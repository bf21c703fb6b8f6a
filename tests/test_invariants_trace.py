"""The invariant-ring layers of the traced benchmark must not read zero:
with perfbench's span tracer installed around `invariants held5`,
`invariants dickson`, `invariants fixed` and `ringmodel fixed`, the
fixed-subspace kernel, both rings' products, the subalgebra closure and
the ring model's certificate each record calls, and the fixed dimensions
the kernel returned add up to the kernel dimensions the reports print
(held5's come from the Molien series, with no kernel).  The tracer is
loaded from its file without writing bytecode."""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from cohomolab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

ARGVS = [
    ["invariants", "held5", "--max-degree", "30"],
    ["invariants", "dickson", "--p", "3", "--max-degree", "12"],
    ["invariants", "fixed", "--p", "5", "--max-degree", "12", "--action",
     '{"poly_degrees": [2, 2], "ext_degrees": [1], '
     '"matrices": [[[0, 1], [1, 0]], [[2, 0], [0, 1]]]}'],
    ["ringmodel", "fixed", "--p", "3", "--action", "D8-5.10",
     "--max-degree", "12"],
]

LAYERS = ["invariant_rings.fixed", "invariant_rings.mul",
          "invariant_rings.subalgebra", "cohomology_ring_models.mul",
          "cohomology_ring_models.certify"]


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_invariants_trace_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _kernel_dims(report):
    return [d for key in ("fixed_dims", "sl2_fixed_dims", "gl2_fixed_dims")
            for d in report.get(key, [])]


def test_every_invariant_ring_layer_records_calls():
    tracer = _load_spans().Tracer()
    reported = 0
    tracer.install()
    try:
        for argv in ARGVS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) == 0
            reported += sum(_kernel_dims(json.loads(out.getvalue())))
    finally:
        tracer.uninstall()
    assert [layer for layer in LAYERS if not tracer.calls.get(layer)] == []
    assert reported > 0
    assert tracer.value("invariant_rings.basis_dim_sum") == reported
