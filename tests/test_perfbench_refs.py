"""Every job of the benchmark catalogue, on all four workloads, checked
against its stored reference report; and the names the traced benchmark
wraps, checked to be where it looks for them.

The benchmark (perfbench/) compares each report byte for byte with
perfbench/refs.json; this test runs the same check inside the test suite,
so a report that changes fails here and not only in a benchmark run.  The
catalogue, the criteria, the span tracer and the references are read,
never written: the modules are loaded from their files without writing
bytecode.
"""

import contextlib
import importlib.util
import io
import json
import random
import sys
from pathlib import Path

import pytest

from cohomolab import bar_cohomology, char_chern, cli, davis, resolution
from complex_helpers import (chain_counts_oracle, cube_boundaries,
                             orbifold_chi_oracle, quotient_poset,
                             remainder_and_minimum)

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
spans = _load("spans")
REFS = json.loads((PERFBENCH / "refs.json").read_text())


def _run(job, workdir, cache_dir=None):
    """(exit code, report text) as perfbench's runner produces them: the
    in-process memos dropped first, "{dir}" standing for workdir."""
    resolution._RESOLUTIONS.clear()
    bar_cohomology._SOLVERS.clear()
    char_chern.cyclotomic_polynomial.cache_clear()
    if job.fn:
        report = getattr(criteria, job.fn)(random.Random(2024))
        return (0 if report["passed"] else 1,
                json.dumps(report, sort_keys=True, indent=2) + "\n")
    argv = [a.replace("{dir}", str(workdir)) for a in job.argv]
    if cache_dir:
        argv = ["--cache-dir", str(cache_dir)] + argv
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("workload", ["cohomology-cold", "cohomology-warm",
                                      "invariants", "chern-davis"])
def test_catalogue_reports_match_references(workload, tmp_path):
    # a warm job runs twice against one cache: the second run reads it
    cache_dir = tmp_path / "cache" if workload == "cohomology-warm" else None
    seen, failures = set(), []
    for job in jobs.all_jobs(workload):
        if job.id in seen:  # the median job appears three times
            continue
        seen.add(job.id)
        for name, K in job.files:
            (tmp_path / name).write_text(json.dumps(K))
        for _ in range(2 if cache_dir else 1):
            reason = jobs.check(job, *_run(job, tmp_path, cache_dir), REFS)
            if reason:
                failures.append(f"{job.id}: {reason}")
    assert failures == []
    assert len(seen) > 10
    if cache_dir:
        assert any(cache_dir.iterdir())


DAVIS_COMPLEXES = {name: K for job in jobs.all_jobs("chern-davis")
                   for name, K in job.files}


@pytest.mark.parametrize("name", sorted(DAVIS_COMPLEXES))
def test_davis_catalogue_matches_the_oracles(name):
    """Every complex of the chern-davis catalogue: the packed chain counts
    and the integer orbifold sum equal the list program and the
    per-simplex Fraction sum (tests/complex_helpers.py)."""
    K = davis.complex_from_dict(DAVIS_COMPLEXES[name])
    assert davis.orbifold_chi(K) == orbifold_chi_oracle(K)
    elements, masks = quotient_poset(K)
    assert davis._chain_counts(elements, masks) == \
        chain_counts_oracle(elements, masks)


@pytest.mark.parametrize("name", sorted(DAVIS_COMPLEXES))
def test_davis_catalogue_reductions_leave_the_fewest_cells(name):
    """The unit-pair reduction of K's simplicial chain complex and of its
    Davis quotient's cubes leaves Smith normal form nothing to do but
    read the homology: a rank-r group keeps r cells, a Z/m two."""
    K = davis.complex_from_dict(DAVIS_COMPLEXES[name])
    q = davis.davis_quotient(davis.racg_from_complex(K),
                             davis.torsion_free_coloring(K))
    for dims, boundary in ((K.f_vector(), davis._chain_complex(K)),
                           cube_boundaries(q)):
        left, fewest = remainder_and_minimum(dims, boundary)
        assert left == fewest


def test_span_targets_are_where_the_tracer_wraps_them():
    """A method target is in its class's own __dict__ and a function
    target is a callable of its module; install wraps every one of them,
    and uninstall puts every original object back."""
    targets = spans._targets()
    for layer, owner, attr, _ in targets:
        if isinstance(owner, type):
            assert attr in owner.__dict__, f"{layer}: {owner.__name__}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), \
                f"{layer}: {owner.__name__}.{attr}"
    owners = [m for name, m in sys.modules.items()
              if name == "cohomolab" or name.startswith("cohomolab.")]
    owners += [owner for _, owner, _, _ in targets
               if isinstance(owner, type)]
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    try:
        tracer.install()
        for layer, owner, attr, _ in targets:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                fn = getattr(raw, "__func__", raw)
            else:
                fn = getattr(owner, attr)
            assert hasattr(fn, "__wrapped__"), f"{layer}: {attr} not wrapped"
    finally:
        tracer.uninstall()
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert now.keys() == saved.keys()
        assert all(now[k] is v for k, v in saved.items()), owner
