"""No bar_cohomology layer of the traced benchmark may read zero: with
perfbench's span tracer installed around acceptance criteria 4 and 5 and
the bundled massey scenario, every bar_cohomology layer it names records
a call.  A refactor that routes the work past the wrapped names would
leave a layer at 0 while its time moves elsewhere.  The tracer and the
criteria are loaded from their files without writing bytecode."""

import contextlib
import importlib.util
import io
import random
import sys
from pathlib import Path

from cohomolab import bar_cohomology, cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_trace_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_bar_layer_records_calls():
    spans, criteria = _load("spans"), _load("criteria")
    tracer = spans.Tracer()
    bar_cohomology._SOLVERS.clear()
    tracer.install()
    try:
        assert criteria.criterion4(random.Random(1))["passed"]
        assert criteria.criterion5(random.Random(1))["passed"]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["scenario", "run", "massey.json"]) == 0
    finally:
        tracer.uninstall()
        bar_cohomology._SOLVERS.clear()
    bar = [layer for layer in tracer.layers
           if layer.startswith("bar_cohomology.")]
    assert bar
    assert [layer for layer in bar if not tracer.calls.get(layer)] == []
