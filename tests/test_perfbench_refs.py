"""Every cohomology-cold and invariants job of the benchmark catalogue,
checked against its stored reference report.

The benchmark (perfbench/) compares each report byte for byte with
perfbench/refs.json; this test runs the same check inside the test suite,
so a report that changes fails here and not only in a benchmark run.  The
catalogue, the criteria and the references are read, never written: the
modules are loaded from their files without writing bytecode.
"""

import contextlib
import importlib.util
import io
import json
import random
import sys
from pathlib import Path

import pytest

from cohomolab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


jobs = _load("jobs")
criteria = _load("criteria")
REFS = json.loads((PERFBENCH / "refs.json").read_text())


def _run(job):
    """(exit code, report text) as perfbench's runner produces them."""
    if job.fn:
        report = getattr(criteria, job.fn)(random.Random(2024))
        return (0 if report["passed"] else 1,
                json.dumps(report, sort_keys=True, indent=2) + "\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(job.argv))
    return code, out.getvalue()


@pytest.mark.parametrize("workload", ["cohomology-cold", "invariants"])
def test_catalogue_reports_match_references(workload):
    seen, failures = set(), []
    for job in jobs.all_jobs(workload):
        if job.id in seen:  # the median job appears three times
            continue
        seen.add(job.id)
        assert not job.files, f"{job.id} needs input files"
        reason = jobs.check(job, *_run(job), REFS)
        if reason:
            failures.append(f"{job.id}: {reason}")
    assert failures == []
    assert len(seen) > 10
