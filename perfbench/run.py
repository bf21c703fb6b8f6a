"""Benchmark of cohomolab: run a workload's seeded batch of jobs through
the public entry points, check every report, and print the metrics.

    python3 perfbench/run.py --workload cohomology-cold --seed 1 \
        --seconds 25 --trace 0

Load is a closed loop with one client: jobs run back to back in this
process, one at a time, with no threads.  A run repeats the batch a fixed
number of passes, sized so that a run of the seed code measures for about
``--seconds``.  End-to-end times are scaled to a reference host speed
measured by a probe loop around every job (see ``scaled``).  With
``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced pass (see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import criteria  # noqa: E402
import jobs as catalogue  # noqa: E402

# Passes per 25 s of --seconds, sized so that a 25 s run of the seed code,
# set-ups included, takes 25 to 35 s (2 cores, Python 3.11; the warm
# set-up fills a cache five times).  The count is fixed, so the
# work a run measures, its sample counts and the jobs at the median and
# tail ranks (see jobs.py) are the same on every commit that is compared.
PASSES = {"cohomology-cold": 6, "cohomology-warm": 21, "invariants": 8,
          "chern-davis": 6}
# Fresh set-ups timed per run; the warm one also fills a cache (about 3 s).
SETUP_REPEATS = {"cohomology-cold": 9, "cohomology-warm": 5,
                 "invariants": 9, "chern-davis": 9}
TRACED_PASSES = 2

# The shared machine's speed swings by up to 1.75x, in phases of seconds
# to minutes, for the same code (perfbench/README.md, Steadiness).  So a
# fixed probe loop runs just before every timed job, and once after the
# last, and each time is scaled by REF_PROBE_S over the median
# of the two probes on either side of it: it reads as seconds on a machine
# where the probe takes REF_PROBE_S.  The probe is the benchmark's own
# code, so no change to cohomolab can move it.
REF_PROBE_S = 0.005
PROBE_STEPS = 3000
PROBE_MOD = 1 << 200


@functools.cache
def _probe_table() -> list[dict]:
    """About 4 MB of small dicts: random lookups in them slow down when
    other tenants of the host contend for its caches, as cohomolab's do.
    Built on first use, so a set-up that runs no probe does not pay it."""
    return [dict.fromkeys(range(k, k + 64)) for k in range(0, 1 << 16, 64)]


def probe() -> float:
    """Seconds of a fixed pure-Python loop of the operations cohomolab's
    exact arithmetic is made of: big-int products and remainders, dict
    updates, small lists and lookups spread over a few megabytes."""
    table = _probe_table()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, x = {}, 1
        for i in range(PROBE_STEPS):
            x = (x * 1000003 + i) % PROBE_MOD
            acc[i % 97] = acc.get(i % 97, 0) + (x & 0xff)
            acc[i % 89] = acc.get(i % 89, 0) + len([j * i for j in range(8)])
            d = table[x & 1023]
            acc[0] += ((x >> 10) & 0xffff) in d
        return time.perf_counter() - t0
    finally:
        gc.enable()


# Process start-up slows less than probe() when the host slows, so the
# start-up part of a set-up is scaled by a probe of its own kind: a fresh
# interpreter that imports the standard modules cohomolab imports.
REF_PROCESS_PROBE_S = 0.06
PROCESS_PROBE = [sys.executable, "-c",
                 "import argparse, dataclasses, fractions, hashlib, heapq, "
                 "importlib.resources, itertools, json, random, statistics, "
                 "typing"]


def process_probe() -> float:
    t0 = time.perf_counter()
    subprocess.run(PROCESS_PROBE, check=True)
    return time.perf_counter() - t0


def scaled(times: list[float], probes: list[float],
           ref: float = REF_PROBE_S) -> list[float]:
    """times at the reference speed; probes[i] ran just before times[i]
    and probes[i + 1] just after it."""
    assert len(probes) == len(times) + 1
    return [t * ref / statistics.median(probes[max(0, i - 1):i + 3])
            for i, t in enumerate(times)]


def _catalogue_metrics(key: str) -> dict[str, str]:
    """{name: unit} of the "end_to_end" or "per_layer" list in
    BENCHMARK.json, the one place that names the metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def _load_program():
    """Import cohomolab from the checkout's own src/, never another copy."""
    if not os.path.isfile(os.path.join(SRC, "cohomolab", "__init__.py")):
        sys.exit(f"perfbench: no cohomolab sources under {SRC}")
    sys.path.insert(0, SRC)
    import cohomolab
    from cohomolab import cli
    if os.path.dirname(os.path.dirname(cohomolab.__file__)) != SRC:
        sys.exit(f"perfbench: imported cohomolab from {cohomolab.__file__}")
    return cli


def _reset_memos() -> None:
    """Drop every in-process memo, so no job reuses an earlier job's work:
    each CLI invocation pays for its own resolutions and solvers."""
    from cohomolab import bar_cohomology, char_chern, resolution
    resolution._RESOLUTIONS.clear()
    bar_cohomology._SOLVERS.clear()
    char_chern.cyclotomic_polynomial.cache_clear()


class Runner:
    """Runs and checks the jobs of one seeded batch."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workdir = workdir
        self.cli = _load_program()
        self.batch = catalogue.batch(workload, seed)
        self.refs = {}
        refs = os.path.join(HERE, "refs.json")
        if os.path.exists(refs):
            with open(refs) as fh:
                self.refs = json.load(fh)
        os.makedirs(workdir, exist_ok=True)
        for job in self.batch:
            for name, K in job.files:
                with open(os.path.join(workdir, name), "w") as fh:
                    json.dump(K, fh)
        self.cache_dir = None
        if workload == "cohomology-warm":
            self.cache_dir = os.path.join(workdir, "cache")
        self.failures: list[str] = []

    def fill_cache(self) -> tuple[float, float]:
        """Answer every query once with the cache enabled, which writes the
        differentials that later passes read back; the wall seconds it
        took, probes included, and the scaled seconds of its jobs."""
        t0 = time.perf_counter()
        probes = []
        times, _, _ = self.run_pass(probes=probes)
        probes.append(probe())
        return time.perf_counter() - t0, sum(scaled(times, probes))

    def run_job(self, job, check=True):
        """(seconds, exit code, report text) of one job; failures of a
        checked job are recorded."""
        _reset_memos()
        if os.environ.get("COHOMOLAB_CACHE"):
            raise RuntimeError("COHOMOLAB_CACHE must be unset")
        gc.collect()
        if job.fn:
            rng = random.Random(2024)  # as in tests/test_acceptance.py
            t0 = time.perf_counter()
            report = getattr(criteria, job.fn)(rng)
            text = json.dumps(report, sort_keys=True, indent=2) + "\n"
            code = 0 if report["passed"] else 1
            t1 = time.perf_counter()
        else:
            argv = [a.replace("{dir}", self.workdir) for a in job.argv]
            if self.cache_dir:
                argv = ["--cache-dir", self.cache_dir] + argv
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            t1 = time.perf_counter()
            text = out.getvalue()
        if check:
            reason = catalogue.check(job, code, text, self.refs)
            if reason:
                self.failures.append(f"{job.id}: {reason}")
        return t1 - t0, code, text

    def run_pass(self, tracer=None, probes=None):
        """Per-job seconds, report bytes and, when traced, the seconds
        spent outside traced layers, of one pass over the batch.  Given a
        probes list, a probe is appended to it before each job."""
        times, nbytes, overhead = [], 0, 0.0
        for i, job in enumerate(self.batch):
            if probes is not None:
                probes.append(probe())
            if tracer is not None:
                tracer.job, tracer.top_s = i, 0.0
                tracer.install()
            try:
                dt, _, text = self.run_job(job)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            times.append(dt)
            nbytes += len(text)
            if tracer is not None:
                overhead += dt - tracer.top_s
        return times, nbytes, overhead


def _setup_probe(workload: str, seed: int, workdir: str) -> None:
    """Set-up as a fresh process pays it: import, job generation and, for
    the warm workload, the cache fill.  Prints the wall and scaled
    seconds of the fill (see fill_cache); exits non-zero on a failed
    job."""
    runner = Runner(workload, seed, workdir)
    fill = (0.0, 0.0)
    if runner.cache_dir:
        fill = runner.fill_cache()
    if runner.failures:
        print("\n".join(runner.failures), file=sys.stderr)
        sys.exit(1)
    print(json.dumps(fill))


def _timed_setups(workload: str, seed: int, base: str) -> tuple[float, str]:
    """Median scaled wall time of the workload's SETUP_REPEATS fresh
    set-ups, and the work directory of the last one (its cache is reused
    by the passes).  The start-up part of a set-up is scaled by
    process_probe(), its cache fill by probe()."""
    starts, fills, probes, workdir = [], [], [], base
    repeats = SETUP_REPEATS[workload]
    for i in range(repeats):
        probes.append(process_probe())
        workdir = os.path.join(base, f"setup{i}")
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", workload, "--seed", str(seed),
               "--workdir", workdir]
        t0 = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up failed with exit code "
                     f"{proc.returncode}")
        fill_wall, scaled_fill = json.loads(proc.stdout)
        starts.append(wall - fill_wall)
        fills.append(scaled_fill)
        if i + 1 < repeats:
            shutil.rmtree(workdir)
    probes.append(process_probe())
    starts = scaled(starts, probes, REF_PROCESS_PROBE_S)
    return statistics.median(map(sum, zip(starts, fills))), workdir


def tail(samples: list[tuple[float, str]]) -> tuple[float, float, str]:
    """(value, percentile, job id) of the highest percentile of the
    (seconds, job id) samples that still has at least ten samples beyond
    it."""
    xs = sorted(samples)
    k = max(0, len(xs) - 11)
    return xs[k][0], 100.0 * (k + 1) / len(xs), xs[k][1]


def median_jobs(samples: list[tuple[float, str]]) -> str:
    """The job ids of the sample(s) at the median rank."""
    xs = sorted(samples)
    n = len(xs)
    ids = {xs[n // 2][1], xs[(n - 1) // 2][1]}
    return " / ".join(sorted(ids))


def _layer_metrics(tracer, overhead_s, report_bytes, traced_s, plain_s):
    out = {}
    for name, unit in _catalogue_metrics("per_layer").items():
        if name == "cli.overhead_s":
            value = overhead_s
        elif name == "cli.report_bytes":
            value = report_bytes
        elif name == "trace.overhead_frac":
            value = traced_s / plain_s - 1.0
        else:
            value = tracer.value(name)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=catalogue.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.environ.pop("COHOMOLAB_CACHE", None)

    if args.setup_only:
        _setup_probe(args.workload, args.seed, args.workdir)
        return 0

    base = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return _measure(args, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _measure(args, base) -> int:
    w = args.workload
    passes = max(2, round(PASSES[w] * args.seconds / 25))
    metrics = {}
    if args.trace:
        runner = Runner(w, args.seed, os.path.join(base, "main"))
        if runner.cache_dir:
            runner.fill_cache()
    else:
        setup_s, workdir = _timed_setups(w, args.seed, base)
        metrics["setup_s"] = setup_s
        runner = Runner(w, args.seed, workdir)
    n_jobs = len(runner.batch)

    if not args.trace:
        raw, probes = [], []
        for _ in range(passes):
            t, _, _ = runner.run_pass(probes=probes)
            raw.extend(t)
        probes.append(probe())
        samples = list(zip(scaled(raw, probes),
                           [job.id for job in runner.batch] * passes))
        tail_s, pct, tail_job = tail(samples)
        metrics.update({
            "batch_s": sum(t for t, _ in samples) / passes,
            "job_p50_s": statistics.median(t for t, _ in samples),
            "job_tail_s": tail_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        result = {name: {"value": metrics[name], "unit": unit}
                  for name, unit in _catalogue_metrics("end_to_end").items()}
        print(f"workload {w} seed {args.seed}: {passes} passes of "
              f"{n_jobs} jobs; job_p50_s is {median_jobs(samples)}; "
              f"job_tail_s is p{pct:.1f} of {len(samples)} jobs "
              f"({tail_job}); host speed "
              f"{REF_PROBE_S / statistics.median(probes):.3f} of reference")
        attempted = passes * n_jobs
    else:
        from spans import Tracer
        seen, plain_s, traced_s = None, [], []
        for _ in range(TRACED_PASSES):  # interleaved, so drift cancels
            probes = []
            plain, _, _ = runner.run_pass(probes=probes)
            probes.append(probe())
            plain_s.append(sum(scaled(plain, probes)))
            tracer, probes = Tracer(), []
            traced, nbytes, overhead = runner.run_pass(tracer, probes)
            probes.append(probe())
            traced_s.append(sum(scaled(traced, probes)))
            counts = (tracer.calls, tracer.counters)
            if seen is not None and counts != seen:
                runner.failures.append(
                    "calls or counters differ between two traced passes")
            seen = counts
        result = _layer_metrics(tracer, overhead, nbytes,
                                statistics.median(traced_s),
                                statistics.median(plain_s))
        os.makedirs(WORK, exist_ok=True)
        tracer.dump(os.path.join(WORK, f"spans-{w}-{args.seed}.tsv"))
        # isolation guard: a warm job reads every differential it needs from
        # disk and builds none; no other workload touches a cache
        hits = tracer.counters.get("resolution.cache_hits", 0)
        z = tracer.calls.get("exact_linalg.echelon_z", 0)
        want = 0
        if w == "cohomology-warm":
            want = sum(job.needs for job in runner.batch)
        if hits != want or (want and z):
            runner.failures.append(
                f"isolation: {hits} cache hits for {want} expected, "
                f"{z} Z-echelon calls")
        print(f"workload {w} seed {args.seed}: traced {TRACED_PASSES} "
              f"passes of {n_jobs} jobs; spans in "
              f".perfbench/spans-{w}-{args.seed}.tsv")
        attempted = 2 * TRACED_PASSES * n_jobs

    for line in runner.failures:
        print(f"FAILED {line}")
    for name, m in result.items():
        print(f"{name} {m['value']} {m['unit']}")
    failed = len(runner.failures)
    print(f"failed_frac {failed / attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
