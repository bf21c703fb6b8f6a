"""The warm isolation guard of the traced benchmark, per job: with
perfbench's span tracer installed around the second, cache-read run of
every cohomology-warm catalogue job, the job loads exactly ``job.needs``
differentials inside ``FreeResolution.extend_to`` and makes no Z
``Echelon`` call.  A change to which files a query reads, or one that
rebuilds what the cache holds, fails here and not only in a traced
benchmark run.  The tracer and the catalogue are loaded from their files
without writing bytecode."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

from cohomolab import bar_cohomology, char_chern, cli, resolution

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_warm_trace_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _run(argv):
    """Exit code of one CLI job, the in-process memos dropped first, as
    perfbench's runner runs it."""
    resolution._RESOLUTIONS.clear()
    bar_cohomology._SOLVERS.clear()
    char_chern.cyclotomic_polynomial.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def test_every_warm_job_reads_what_it_needs(tmp_path, monkeypatch):
    monkeypatch.delenv("COHOMOLAB_CACHE", raising=False)
    spans, jobs = _load("spans"), _load("jobs")
    seen, wrong = set(), []
    for job in jobs.all_jobs("cohomology-warm"):
        if job.id in seen:
            continue
        seen.add(job.id)
        argv = ["--cache-dir", str(tmp_path)] + list(job.argv)
        assert _run(argv) == 0  # fills the cache
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert _run(argv) == 0
        finally:
            tracer.uninstall()
        got = (tracer.value("resolution.cache_hits"),
               tracer.value("exact_linalg.echelon_z.calls"))
        if got != (job.needs, 0):
            wrong.append((job.id, got, job.needs))
    assert len(seen) > 10
    assert wrong == []
