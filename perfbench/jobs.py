"""The job catalogue of each workload and the checks on every report.

A workload's batch is its fixed core (the acceptance criteria and bundled
scenarios that belong to it) plus one job drawn from each of its slots.
The seed picks the draw and the order of the batch.  The alternatives in
a slot cost about the same, so batches from different seeds take about
the same time while still giving the program different inputs.

Every job is checked three ways: the exit code must be 0, a report that
has ``passed`` must have it true, and the report must contain the
published values in ``expect`` and equal, byte for byte, the stored
reference report in ``refs.json``.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Job:
    id: str                       # key of the reference report
    argv: tuple = ()              # CLI argv; "{dir}" stands for the input dir
    fn: Optional[str] = None      # library-call job (criteria 4 and 5)
    expect: dict = field(default_factory=dict)
    files: tuple = ()             # (file name, complex dict) inputs
    needs: int = 0                # resolution differentials the job reads


def _g(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


def C(n):
    return {"family": "cyclic", "n": n}


def prod(*factors):
    return {"family": "product", "factors": list(factors)}


P3 = {"family": "P", "n": 3, "p": 3}
G21 = {"family": "G_a1", "a": 2, "p": 3}


def dims(name, spec, p, degree, expect=None):
    return Job(f"dims {name} p{p} d{degree}",
               ("cohomology", "dims", "--group", _g(spec), "--p", str(p),
                "--max-degree", str(degree)),
               expect=expect or {}, needs=degree + 1)


def integral(name, spec, degree, expect=None):
    return Job(f"integral {name} d{degree}",
               ("cohomology", "integral", "--group", _g(spec),
                "--degree", str(degree)),
               expect=expect or {}, needs=degree if degree > 1 else 0)


def _cli(job_id, *argv, expect=None):
    return Job(job_id, tuple(argv), expect=expect or {})


MEDIAN_COPIES = 3


# Job latencies are pooled over a run's passes.  Each batch has an odd
# number of jobs, and the job at the median rank is a core job with a cost
# gap of at least 1.6x to the jobs on either side of it; every slot's
# alternatives sit on one side of that gap.  The tail rank (the
# eleventh-largest sample) likewise falls inside the samples of a core job,
# at the number of passes a 25 s run makes (run.PASSES).  So job_p50_s and
# job_tail_s time the same jobs for every seed.  Where a run makes few
# passes, the median job is in the core three times (MEDIAN_COPIES), so
# job_p50_s rests on three times as many samples; the rank stays on its
# middle copy, because the batch has as many jobs above the median job as
# below it.  Costs quoted below are
# milliseconds per job on the seed code (2 cores, Python 3.11).

# ---------------------------------------------------------------------------
# cohomology-cold, 15 jobs, 6 passes: median job "scenario massey.json"
# (17 ms, next cheaper 7 ms, next costlier 35 ms); tail sample the 2nd
# smallest of the 6 samples of "dims P(3,3) p3 d4" (1270 ms, next cheaper
# 180 ms, next costlier 2590 ms)
# ---------------------------------------------------------------------------

COLD_CORE = [
    dims("P(3,3)", P3, 3, 4, {"dims": [1, 2, 4, 6, 7]}),            # crit. 1
    integral("G(2,1)", G21, 1, {"rank": 0, "order": 1}),             # crit. 2
    integral("G(2,1)", G21, 2, {"rank": 0, "order": 27}),
    _cli("massey C3", "massey", "triple", "--group", _g(C(3)), "--p", "3",
         expect={"equals_bockstein": True, "is_zero": False,
                 "indeterminacy_size": 0}),                          # crit. 3
    _cli("massey C5", "massey", "triple", "--group", _g(C(5)), "--p", "5",
         expect={"is_zero": True, "indeterminacy_size": 0}),
    _cli("massey C7", "massey", "triple", "--group", _g(C(7)), "--p", "7",
         expect={"is_zero": True, "indeterminacy_size": 0}),
    Job("criterion 4", fn="criterion4", expect={"passed": True}),
    Job("criterion 5", fn="criterion5", expect={"passed": True}),
    *MEDIAN_COPIES * [_cli("scenario massey.json", "scenario", "run",
                           "massey.json", expect={"passed": True})],
]

C3, C9, C27 = C(3), C(9), C(27)

# Seeded resolution jobs on build_group families, all inside the
# _check_limits feasibility table.  Isomorphic groups built different ways
# (nested or reordered products) number their elements differently, so the
# program sees different tables.
COLD_SLOTS = [
    # 3 to 5 ms
    [dims("C3", C3, 3, 8), dims("C5", C(5), 5, 8), dims("C7", C(7), 7, 8),
     dims("C9", C9, 3, 6), dims("C3xC3", prod(C3, C3), 3, 3)],
    [integral("C5", C(5), 3), integral("C7", C(7), 3),
     integral("C9", C9, 3), integral("C11", C(11), 3),
     integral("C3xC3", prod(C3, C3), 2)],
    # 35 to 50 ms
    [dims("C3xC9", prod(C3, C9), 3, 4), dims("C3^3", prod(C3, C3, C3), 3, 3),
     integral("C3xC9", prod(C3, C9), 3), integral("C9xC3", prod(C9, C3), 3)],
    # 70 to 110 ms
    [dims("C3^3", prod(C3, C3, C3), 3, 4),
     dims("(C3xC3)xC3", prod(prod(C3, C3), C3), 3, 4),
     dims("C27xC3", prod(C27, C3), 3, 3)],
]

# ---------------------------------------------------------------------------
# cohomology-warm, 9 jobs, 21 passes: the same kind of queries, read from a
# filled cache.  Median job "integral G(2,1) d2" (15 ms, next cheaper
# 7.5 ms, next costlier 30 ms); tail job "dims P(3,3) p3 d4" (65 ms, next
# cheaper 46 ms), whose 11th of 21 samples, their median, is the tail
# sample.  With more passes the tail sample moves up that job's own
# distribution, and its top quartile swings with the host.
# ---------------------------------------------------------------------------

WARM_CORE = [
    dims("P(3,3)", P3, 3, 4, {"dims": [1, 2, 4, 6, 7]}),
    integral("G(2,1)", G21, 1, {"rank": 0, "order": 1}),
    integral("G(2,1)", G21, 2, {"rank": 0, "order": 27}),
    dims("P(3,3)", P3, 3, 1),
    dims("C3^4", prod(C3, C3, C3, C3), 3, 3),
    integral("C27xC3", prod(C27, C3), 3),
]

WARM_SLOTS = [
    # 5 to 7.5 ms warm
    [integral("P(3,3)", P3, 2), integral("C3xC9", prod(C3, C9), 3),
     integral("C9xC3", prod(C9, C3), 3)],
    [dims("P(3,3)", P3, 3, 2), dims("C3xC9", prod(C3, C9), 3, 3),
     dims("C9xC3", prod(C9, C3), 3, 3), dims("C3^3", prod(C3, C3, C3), 3, 3),
     dims("C3x(C3xC3)", prod(C3, prod(C3, C3)), 3, 3)],
    # 33 to 46 ms warm
    [dims("C3^2xC3^2", prod(prod(C3, C3), prod(C3, C3)), 3, 3),
     dims("M(4,3)", {"family": "M", "n": 4, "p": 3}, 3, 3)],
]

# ---------------------------------------------------------------------------
# invariants, 15 jobs, 8 passes: median job "ringmodel S3xC3-5.12 p7 d44"
# (75 ms, next cheaper 45 ms, next costlier 130 ms); tail sample the 3rd
# largest of the 8 samples of "dickson p5 d30" (470 ms, next cheaper 195 ms,
# next costlier 1080 ms)
# ---------------------------------------------------------------------------


def ringmodel(p, action, degree):
    return _cli(f"ringmodel {action} p{p} d{degree}", "ringmodel", "fixed",
                "--p", str(p), "--action", action,
                "--max-degree", str(degree))


def fixed(name, p, spec, degree):
    return _cli(f"fixed {name} p{p} d{degree}", "invariants", "fixed",
                "--p", str(p), "--action", json.dumps(spec, sort_keys=True),
                "--max-degree", str(degree))


SHEAR = [[1, 1], [0, 1]]
CYCLE3 = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]

INVARIANTS_CORE = [
    _cli("dickson p3 d24", "invariants", "dickson", "--p", "3",
         "--max-degree", "24", expect={"passed": True}),        # crit. 6
    _cli("dickson p5 d30", "invariants", "dickson", "--p", "5",
         "--max-degree", "30", expect={"passed": True}),
    _cli("held5 d60", "invariants", "held5", "--max-degree", "60",
         expect={"passed": True, "group_order": 48,
                 "relation_used": "gamma^2 = 3*(beta^2 + alpha^3)"}),  # 7
    ringmodel(3, "D8-5.10", 24),                                 # crit. 8
    ringmodel(7, "S3xC3-5.12", 60),                              # crit. 9
    ringmodel(3, "C3-shear-3.4", 30),                            # crit. 10
    ringmodel(5, "C3-shear-3.4", 40),
    *MEDIAN_COPIES * [ringmodel(7, "S3xC3-5.12", 44)],
    _cli("scenario dickson-p3.json", "scenario", "run", "dickson-p3.json",
         expect={"passed": True}),
]

INVARIANTS_SLOTS = [
    # 8 to 23 ms
    [fixed("shear", 3, {"poly_degrees": [2, 2], "matrices": [SHEAR]}, 30),
     fixed("shear", 5, {"poly_degrees": [2, 2], "matrices": [SHEAR]}, 30),
     fixed("shear", 7, {"poly_degrees": [2, 2], "matrices": [SHEAR]}, 30)],
    [fixed("perm3", 3, {"poly_degrees": [2, 2, 2], "matrices": [CYCLE3]}, 20),
     fixed("perm3", 5, {"poly_degrees": [2, 2, 2], "matrices": [CYCLE3]},
           20),
     fixed("shear3", 3, {"poly_degrees": [2, 2, 2],
                         "matrices": [[[1, 1, 0], [0, 1, 1], [0, 0, 1]]]},
           16)],
    [fixed("swap-diag", 5, {"poly_degrees": [2, 2],
                            "matrices": [[[0, 1], [1, 0]], [[2, 0], [0, 1]]]},
           30),
     fixed("swap-diag", 7, {"poly_degrees": [2, 2],
                            "matrices": [[[0, 1], [1, 0]], [[3, 0], [0, 1]]]},
           30),
     fixed("shear-ext", 3, {"poly_degrees": [2, 2], "ext_degrees": [1, 1],
                            "matrices": [SHEAR]}, 20),
     fixed("diag", 5, {"poly_degrees": [2, 2],
                       "matrices": [[[2, 0], [0, 3]]]}, 30),
     fixed("diag", 7, {"poly_degrees": [2, 2],
                       "matrices": [[[3, 0], [0, 5]]]}, 30)],
    # 185 to 195 ms
    [ringmodel(7, "S3xC3-5.12", 66), ringmodel(5, "C4A4-5.8", 48)],
]

# ---------------------------------------------------------------------------
# chern-davis, 19 jobs, 6 passes: median job "pc C3xC3 p3" (50 ms, next
# cheaper 9 ms, next costlier 83 ms); tail sample the 2nd smallest of the 6
# samples of "davis build sd-moore-2" (810 ms, next cheaper 620 ms, next
# costlier 1610 ms)
# ---------------------------------------------------------------------------


def pc(name, spec, p, value=None):
    return _cli(f"pc {name} p{p}", "chern", "pc", "--group", _g(spec),
                "--p", str(p), expect={"pc": value} if value else {})


def _sd(K):
    """Barycentric subdivision: the vertices are the faces of K, the
    facets are the chains of faces under inclusion."""
    faces = set()
    for f in K["facets"]:
        for r in range(1, len(f) + 1):
            faces.update(itertools.combinations(sorted(f), r))
    index = {s: i for i, s in enumerate(sorted(faces,
                                               key=lambda s: (len(s), s)))}
    facets = []
    for f in K["facets"]:
        for perm in itertools.permutations(sorted(f)):
            facets.append([index[tuple(sorted(perm[:i]))]
                           for i in range(1, len(f) + 1)])
    return {"vertices": len(index), "facets": facets}


def _flag(n, edges):
    """Clique complex of a graph: its maximal cliques are the facets."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    facets = []

    def grow(R, P, X):
        if not P and not X:
            facets.append(sorted(R))
        for v in sorted(P):
            grow(R | {v}, P & adj[v], X & adj[v])
            P = P - {v}
            X = X | {v}

    grow(set(), set(range(n)), set())
    return {"vertices": n, "facets": sorted(facets)}


def _cycle(n):
    return _flag(n, [(i, (i + 1) % n) for i in range(n)])


def _cross(d):
    """Boundary of the d-dimensional cross-polytope (a flag sphere)."""
    edges = [(u, v) for u, v in itertools.combinations(range(2 * d), 2)
             if u // 2 != v // 2]
    return _flag(2 * d, edges)


def _random_flag(n, density, seed):
    rng = random.Random(seed)
    edges = [e for e in itertools.combinations(range(n), 2)
             if rng.random() < density]
    return _flag(n, edges)


def _simplex(n):
    return {"vertices": n, "facets": [list(range(n))]}


def _moore(n, q=3):
    """The subdivided Moore complex of davis.moore_complex: a disc with a
    central fan and one ring of n*q boundary edges, wrapped n times onto
    a q-vertex circle."""
    m = n * q
    ring = lambda i: 1 + (i % m)
    circ = lambda i: 1 + m + (i % q)
    facets = []
    for i in range(m):
        facets += [[0, ring(i), ring(i + 1)],
                   [ring(i), ring(i + 1), circ(i + 1)],
                   [ring(i), circ(i), circ(i + 1)]]
    return _sd({"vertices": m + q + 1, "facets": facets})


def davis(action, name, K, expect=None):
    fname = f"{name}.json"
    return Job(f"davis {action} {name}",
               ("davis", action, "--k", "{dir}/" + fname),
               expect=expect or {}, files=((fname, K),))


def _criterion12():
    boundary4 = _sd({"vertices": 4, "facets": [list(c) for c in
                                               itertools.combinations(
                                                   range(4), 3)]})
    boundary5 = _sd({"vertices": 5, "facets": [list(c) for c in
                                               itertools.combinations(
                                                   range(5), 4)]})
    ok = {"euler_passed": True}
    return [
        davis("build", "point", {"vertices": 1, "facets": [[0]]}, ok),
        davis("build", "edge", _simplex(2), ok),
        davis("build", "two-points", {"vertices": 2, "facets": [[0], [1]]},
              ok),
        davis("build", "triangle", _simplex(3), ok),
        davis("build", "sd-boundary-4", boundary4,
              {"euler_passed": True, "chi_quotient_over_index": "0"}),
        davis("build", "sd-moore-2", _moore(2), ok),
        davis("chi", "sd-boundary-5", boundary5, {"equal": True,
                                                  "chi_orbifold": "1"}),
    ]


def chern_davis_core():
    return [
        pc("C9", C(9), 3, 2),                                    # crit. 11
        *MEDIAN_COPIES * [pc("C3xC3", prod(C(3), C(3)), 3, 2)],
        pc("P(3,3)", P3, 3, 6),
        pc("Singer(3,2)", {"family": "singer", "p": 3, "n": 2}, 3, 12),
        *_criterion12(),                                         # crit. 12
        _cli("bestvina 2", "davis", "bestvina", "--n", "2",      # crit. 13
             expect={"passed": True, "h0_is_z": True,
                     "vanishing_above_three": True, "rank_h3_zero": True,
                     "torsion_divides_n": True}),
    ]


def chern_davis_slots():
    flags = {s: _random_flag(9, 0.5, s) for s in (0, 1, 2, 3, 5, 6)}
    return [
        # 140 to 200 ms
        [pc("M(3,3)", {"family": "M", "n": 3, "p": 3}, 3),
         pc("G(1,1)", {"family": "G_a1", "a": 1, "p": 3}, 3),
         pc("P_2(3)", {"family": "P_2", "p": 3}, 3),
         pc("C2xC3xC3", prod(C(2), C(3), C(3)), 3)],
        # 110 to 155 ms
        [davis("build", f"flag-{s}", flags[s]) for s in (2, 3, 6)],
        # 3 to 8 ms
        [davis("build", "cycle-7", _cycle(7)),
         davis("build", "sd-cycle-5", _sd(_cycle(5))),
         davis("build", "cycle-6", _cycle(6))],
        [davis("homology", f"flag-{s}", flags[s]) for s in (0, 1, 5)],
        [davis("chi", f"flag-{s}", flags[s]) for s in (2, 3, 6)]
        + [davis("chi", "cross-4", _cross(4)),
           davis("chi", "sd-cross-3", _sd(_cross(3))),
           davis("homology", "sd-cross-3", _sd(_cross(3)))],
    ]


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

WORKLOADS = ("cohomology-cold", "cohomology-warm", "invariants",
             "chern-davis")


def catalogue(workload: str) -> tuple[list, list]:
    """(core jobs, slots) of a workload; a slot is a list of alternatives,
    and an alternative is a job or a list of jobs."""
    if workload == "cohomology-cold":
        return COLD_CORE, COLD_SLOTS
    if workload == "cohomology-warm":
        return WARM_CORE, WARM_SLOTS
    if workload == "invariants":
        return INVARIANTS_CORE, INVARIANTS_SLOTS
    if workload == "chern-davis":
        return chern_davis_core(), chern_davis_slots()
    raise ValueError(f"unknown workload {workload!r}")


def batch(workload: str, seed: int) -> list[Job]:
    """The seeded batch: the core plus one draw per slot, shuffled."""
    core, slots = catalogue(workload)
    rng = random.Random(f"{workload}:{seed}")
    jobs = list(core)
    for slot in slots:
        pick = rng.choice(slot)
        jobs.extend(pick if isinstance(pick, list) else [pick])
    rng.shuffle(jobs)
    return jobs


def all_jobs(workload: str) -> list[Job]:
    core, slots = catalogue(workload)
    out = list(core)
    for slot in slots:
        for alt in slot:
            out.extend(alt if isinstance(alt, list) else [alt])
    return out


def subset_match(expected, actual) -> bool:
    """Whether every key and list item of expected is in actual.  The
    checker keeps its own copy rather than use the program's."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            k in actual and subset_match(v, actual[k])
            for k, v in expected.items())
    if isinstance(expected, list):
        return isinstance(actual, list) and len(expected) == len(actual) \
            and all(subset_match(e, a) for e, a in zip(expected, actual))
    return expected == actual


def check(job: Job, code: int, text: str, refs: dict) -> Optional[str]:
    """None when the job's outcome is correct, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return "report is not JSON"
    if report.get("passed") is False:
        return "report has passed: false"
    if not subset_match(job.expect, report):
        return f"published values differ: expected {job.expect}"
    ref = refs.get(job.id)
    if ref is None:
        return "no reference report"
    if text != ref:
        return "report differs from the reference report"
    return None
