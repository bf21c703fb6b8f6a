import ast
import inspect
import io
import random
import re
import tracemalloc
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cohomolab import exact_linalg
from cohomolab.exact_linalg import (
    Echelon,
    _mat_det,
    SmithReport,
    SparseMatrix,
    kernel_mod_p,
    kernel_z,
    rank_mod_p,
    smith_normal_form,
    solve,
)
from matrix_helpers import cofactor_det, mul_vector, to_dense, transpose


# ---------------------------------------------------------------------------
# is_prime: deterministic Miller-Rabin
# ---------------------------------------------------------------------------


def test_is_prime_agrees_with_a_sieve_below_10_5():
    n = 10 ** 5
    composite = bytearray(n)
    composite[0] = composite[1] = 1
    for d in range(2, 317):
        if not composite[d]:
            composite[d * d::d] = b"\x01" * len(range(d * d, n, d))
    assert [n for n in range(n) if exact_linalg.is_prime(n)] == \
        [n for n in range(n) if not composite[n]]


@pytest.mark.parametrize("n", [561, 1105, 1729, 2465, 2821, 6601, 8911,
                               41041, 825265, 321197185, 9746347772161])
def test_is_prime_rejects_carmichael_numbers(n):
    assert not exact_linalg.is_prime(n)


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(
        pow(x, 2 ** r, n) == n - 1 for r in range(1, s))


def test_is_prime_rejects_strong_pseudoprimes():
    # 3215031751 = 151 * 751 * 28351 passes bases 2, 3, 5 and 7
    n = 3215031751
    assert n == 151 * 751 * 28351
    assert all(_strong_probable_prime(n, a) for a in (2, 3, 5, 7))
    assert not exact_linalg.is_prime(n)


def test_is_prime_limit_is_the_first_pseudoprime_to_all_bases():
    n = exact_linalg._MILLER_RABIN_LIMIT
    assert n == 399165290221 * 798330580441
    assert all(_strong_probable_prime(n, a)
               for a in exact_linalg._MILLER_RABIN_BASES)
    for m in (n, n + 1, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="exact primality range"):
            exact_linalg.is_prime(m)
    assert not exact_linalg.is_prime(n - 1)


def test_prime_factors_are_the_primes_dividing_n():
    for n in range(1, 10 ** 4):
        primes = exact_linalg._prime_factors(n)
        assert primes == sorted(set(primes))
        assert all(exact_linalg.is_prime(q) for q in primes)
        for q in primes:  # n is a product of powers of these primes
            assert n % q == 0
            while n % q == 0:
                n //= q
        assert n == 1


def test_is_prime_is_fast_on_large_primes():
    import time
    start = time.perf_counter()
    assert exact_linalg.is_prime(2 ** 61 - 1)
    assert exact_linalg.is_prime(2 ** 31 - 1)
    assert not exact_linalg.is_prime((2 ** 31 - 1) ** 2)
    assert not exact_linalg.is_prime(65537 * (2 ** 61 - 1))
    assert time.perf_counter() - start < 0.05


def dense_rank_mod_p(rows, p):
    """Independent oracle: plain dense Gaussian elimination over F_p."""
    rows = [[v % p for v in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


def mat_mul_vec(rows, x):
    return [sum(a * b for a, b in zip(r, x)) for r in rows]


def dense(vectors, n):
    """Sparse kernel vectors {column: value} as dense rows of length n;
    each vector is nonzero, stores no zero and has every column below n."""
    for v in vectors:
        assert v and all(v.values()) and all(0 <= j < n for j in v)
    return [[v.get(j, 0) for j in range(n)] for v in vectors]


# ---------------------------------------------------------------------------
# rank_mod_p
# ---------------------------------------------------------------------------


def test_rank_identity():
    assert rank_mod_p(SparseMatrix.identity(2, p=5)) == 2


def test_rank_zero_matrix():
    assert rank_mod_p(SparseMatrix(5, 7, [], p=3)) == 0


def test_rank_random_vs_dense_oracle():
    rng = random.Random(20260823)
    p = 3
    rows = [[rng.randrange(p) if rng.random() < 0.3 else 0 for _ in range(200)]
            for _ in range(200)]
    M = SparseMatrix.from_dense(rows, p=p)
    assert rank_mod_p(M) == dense_rank_mod_p(rows, p)


def test_rank_rectangular_dependent_columns():
    # second column = 2 * first
    M = SparseMatrix.from_dense([[1, 2, 0], [3, 6, 1]], p=7)
    assert rank_mod_p(M) == 2
    M2 = SparseMatrix.from_dense([[1, 2], [3, 6]], p=7)
    assert rank_mod_p(M2) == 1


@given(st.integers(1, 8), st.integers(1, 8), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_rank_property_vs_oracle(n, m, rng):
    p = 5
    rows = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
    M = SparseMatrix.from_dense(rows, p=p)
    assert rank_mod_p(M) == dense_rank_mod_p(rows, p)


def test_rank_mod_p_at_most_rational_rank():
    # rank over F_p <= rank over Q; here drop at p=2 only
    rows = [[2, 0], [0, 1]]
    assert rank_mod_p(SparseMatrix.from_dense(rows, p=2)) == 1
    assert rank_mod_p(SparseMatrix.from_dense(rows, p=3)) == 2
    assert rank_mod_p(SparseMatrix.from_dense(rows, p=5)) == 2


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_kernel_mod_p_dimension_and_membership():
    rng = random.Random(7)
    p = 5
    rows = [[rng.randrange(p) for _ in range(9)] for _ in range(4)]
    M = SparseMatrix.from_dense(rows, p=p)
    kern = dense(kernel_mod_p(M), 9)
    assert len(kern) == 9 - rank_mod_p(M)
    for v in kern:
        assert all(c % p == 0 for c in mat_mul_vec(rows, v))
    # kernel vectors are independent
    K = SparseMatrix.from_dense(kern, p=p) if kern else None
    if K is not None:
        assert rank_mod_p(K) == len(kern)


def test_kernel_z_complete_lattice():
    # M = [2 4]: integer kernel is generated by (2, -1), NOT (4, -2)
    M = SparseMatrix.from_dense([[2, 4]])
    kern = dense(kernel_z(M), 2)
    assert len(kern) == 1
    v = kern[0]
    assert [2 * v[0] + 4 * v[1]] == [0]
    from math import gcd
    assert gcd(v[0], v[1]) == 1


def test_kernel_z_saturated_example():
    # columns (2,0),(0,3),(2,3): kernel generated by (1,1,-1) primitively
    M = SparseMatrix.from_dense([[2, 0, 2], [0, 3, 3]])
    kern = dense(kernel_z(M), 3)
    assert len(kern) == 1
    v = kern[0]
    assert mat_mul_vec([[2, 0, 2], [0, 3, 3]], v) == [0, 0]
    from math import gcd
    assert gcd(gcd(abs(v[0]), abs(v[1])), abs(v[2])) == 1


@given(st.integers(1, 5), st.integers(1, 6), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_kernel_z_property(n, m, rng):
    rows = [[rng.randrange(-4, 5) for _ in range(m)] for _ in range(n)]
    M = SparseMatrix.from_dense(rows)
    kern = dense(kernel_z(M), m)
    for v in kern:
        assert mat_mul_vec(rows, v) == [0] * n
    # rank-nullity over Q: kernel lattice rank = m - rank(M over a big prime)
    p = 10007
    assert len(kern) == m - dense_rank_mod_p(rows, p)


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 6), st.integers(1, 12),
       st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_kernel_mod_p_rows_have_increasing_least_coordinates(p, n, m, rng):
    # an echelon basis of the kernel, which the J*K pruning of the minimal
    # resolution relies on
    rows = [[rng.randrange(p) if rng.random() < 0.5 else 0 for _ in range(m)]
            for _ in range(n)]
    kern = kernel_mod_p(SparseMatrix.from_dense(rows, p=p))
    leads = [min(v) for v in kern]
    assert leads == sorted(set(leads))
    assert len(kern) == m - dense_rank_mod_p(rows, p)
    for v in dense(kern, m):
        assert all(c % p == 0 for c in mat_mul_vec(rows, v))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_identity_and_zero():
    I = SparseMatrix.identity(3, p=7)
    assert solve(I, [1, 2, 3]) == [1, 2, 3]
    Z = SparseMatrix(2, 3, [], p=7)
    assert solve(Z, [0, 0]) == [0, 0, 0]
    assert solve(Z, [1, 0]) is None


def test_solve_construct_then_solve_mod_p():
    rng = random.Random(11)
    p = 3
    rows = [[rng.randrange(p) for _ in range(8)] for _ in range(5)]
    M = SparseMatrix.from_dense(rows, p=p)
    x0 = [rng.randrange(p) for _ in range(8)]
    b = [v % p for v in mat_mul_vec(rows, x0)]
    x = solve(M, b)
    assert x is not None
    assert [v % p for v in mat_mul_vec(rows, x)] == b


def test_solve_construct_then_solve_over_z():
    rng = random.Random(13)
    rows = [[rng.randrange(-3, 4) for _ in range(6)] for _ in range(4)]
    M = SparseMatrix.from_dense(rows)
    x0 = [rng.randrange(-5, 6) for _ in range(6)]
    b = mat_mul_vec(rows, x0)
    x = solve(M, b)
    assert x is not None
    assert mat_mul_vec(rows, x) == b


def test_solve_over_z_integrality():
    # 2x = 1 has no integer solution
    M = SparseMatrix.from_dense([[2]])
    assert solve(M, [1]) is None
    assert solve(M, [4]) == [2]


def test_solve_inconsistent():
    M = SparseMatrix.from_dense([[1, 1], [1, 1]], p=5)
    assert solve(M, [1, 2]) is None


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def test_snf_diag_2_6():
    M = SparseMatrix.from_dense([[2, 0], [0, 6]])
    rep = smith_normal_form(M)
    assert rep.elementary_divisors == (2, 6)
    assert rep.rank == 2


def test_snf_rank_one_gcd():
    M = SparseMatrix.from_dense([[2, 4], [4, 8]])
    rep = smith_normal_form(M)
    assert rep.elementary_divisors == (2,)
    assert rep.rank == 1


def test_snf_divisor_chain_fix():
    # diag(4, 6) must normalize to (2, 12)
    M = SparseMatrix.from_dense([[4, 0], [0, 6]])
    rep = smith_normal_form(M)
    assert rep.elementary_divisors == (2, 12)


def test_snf_zero_and_identity():
    assert smith_normal_form(SparseMatrix(3, 4, [])).elementary_divisors == ()
    rep = smith_normal_form(SparseMatrix.identity(4))
    assert rep.elementary_divisors == (1, 1, 1, 1)


def test_snf_transpose_invariant_random():
    rng = random.Random(97)
    for _ in range(20):
        n, m = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = [[rng.randrange(-6, 7) for _ in range(m)] for _ in range(n)]
        M = SparseMatrix.from_dense(rows)
        assert (smith_normal_form(M).elementary_divisors
                == smith_normal_form(transpose(M)).elementary_divisors)


def test_snf_consistent_with_rank_mod_p():
    rng = random.Random(31)
    for _ in range(15):
        rows = [[rng.randrange(-5, 6) for _ in range(5)] for _ in range(4)]
        M = SparseMatrix.from_dense(rows)
        rep = smith_normal_form(M)
        for p in (2, 3, 5, 7):
            Mp = SparseMatrix.from_dense(rows, p=p)
            expect = sum(1 for d in rep.elementary_divisors if d % p != 0)
            assert rank_mod_p(Mp) == expect


def test_snf_torus_boundary_gives_h1_rank_2():
    # standard 2-torus triangulation: H_1 = Z^2 read off from the boundary
    # maps of a small simplicial model (7 vertices, 21 edges, 14 triangles)
    verts = list(range(7))
    # vertex-transitive triangulation: orbits of {0,1,3} and {0,2,3} mod 7
    tris = sorted({tuple(sorted(((i + a) % 7 for a in t)))
                   for i in range(7) for t in [(0, 1, 3), (0, 2, 3)]})
    # this classical 7-vertex triangulation has every pair as an edge
    edges = sorted({(a, b) for t in tris for a in t for b in t if a < b})
    assert len(edges) == 21 and len(tris) == 14
    eidx = {e: k for k, e in enumerate(edges)}
    d1 = SparseMatrix(len(verts), len(edges),
                      [(e[0], k, -1) for e, k in eidx.items()]
                      + [(e[1], k, 1) for e, k in eidx.items()])
    ent2 = []
    for k, (a, b, c) in enumerate(tris):
        ent2.append((eidx[(b, c)], k, 1))
        ent2.append((eidx[(a, c)], k, -1))
        ent2.append((eidx[(a, b)], k, 1))
    d2 = SparseMatrix(len(edges), len(tris), ent2)
    r1 = smith_normal_form(d1)
    r2 = smith_normal_form(d2)
    # H_1 = ker d1 / im d2: rank = (21 - r1.rank) - r2.rank, torsion from d2
    assert (21 - r1.rank) - r2.rank == 2
    assert r2.torsion == ()
    # H_0 = Z, H_2 = Z for the orientable surface
    assert 7 - r1.rank == 1
    assert 14 - r2.rank == 1


def test_snf_projective_plane_torsion():
    # RP^2 minimal 6-vertex triangulation: H_1 = Z/2
    tris = [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5), (1, 2, 4),
        (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
    ]
    # every edge of K6 lies in exactly two triangles (checked below)
    from collections import Counter
    cnt = Counter((a, b) for t in tris for a in t for b in t if a < b)
    assert set(cnt.values()) == {2} and len(cnt) == 15
    edges = sorted({(a, b) for t in tris for a in t for b in t if a < b})
    eidx = {e: k for k, e in enumerate(edges)}
    ent2 = []
    for k, (a, b, c) in enumerate(tris):
        ent2.append((eidx[(b, c)], k, 1))
        ent2.append((eidx[(a, c)], k, -1))
        ent2.append((eidx[(a, b)], k, 1))
    d2 = SparseMatrix(len(edges), len(tris), ent2)
    d1 = SparseMatrix(6, len(edges),
                      [(e[0], k, -1) for e, k in eidx.items()]
                      + [(e[1], k, 1) for e, k in eidx.items()])
    r1 = smith_normal_form(d1)
    r2 = smith_normal_form(d2)
    assert (len(edges) - r1.rank) - r2.rank == 0  # H_1 rank 0
    assert r2.torsion == (2,)  # H_1 = Z/2
    assert len(tris) - r2.rank == 0  # H_2 = 0


@given(st.integers(1, 5), st.integers(1, 5), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_snf_property_rank_and_chain(n, m, rng):
    rows = [[rng.randrange(-9, 10) for _ in range(m)] for _ in range(n)]
    M = SparseMatrix.from_dense(rows)
    rep = smith_normal_form(M)
    assert rep.rank <= min(n, m)
    # rank over a huge prime equals the integer rank
    assert rep.rank == dense_rank_mod_p(rows, 2_147_483_647)
    for a, b in zip(rep.elementary_divisors, rep.elementary_divisors[1:]):
        assert b % a == 0


def det(a):
    """Laplace expansion along the first row; det of the 0 x 0 matrix is 1."""
    return sum((-1) ** j * v * det([r[:j] + r[j + 1:] for r in a[1:]])
               for j, v in enumerate(a[0]) if v) if a else 1


def determinantal_divisors(rows):
    """Independent oracle: the elementary divisors are d_k / d_(k-1),
    d_k the gcd of all k x k minors (d_0 = 1), up to the rank."""
    out, prev = [], 1
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        d = 0
        for I in combinations(range(len(rows)), k):
            for J in combinations(range(len(rows[0])), k):
                d = gcd(d, det([[rows[i][j] for j in J] for i in I]))
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return tuple(out)


BIG = 2 ** 160
ENTRIES = [
    st.integers(-4, 4),
    st.sampled_from([0, 6, -6, 10, -10, 15, -15]),  # no entry is a unit
    st.sampled_from([0, 0, 1, -2, 3, BIG, -BIG, BIG + 1, 3 * BIG]),
]


@st.composite
def integer_matrices(draw):
    entry = draw(st.sampled_from(ENTRIES))
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return [[draw(entry) for _ in range(m)] for _ in range(n)]


@given(integer_matrices())
@settings(max_examples=200, deadline=None)
def test_snf_matches_determinantal_divisors(rows):
    rep = smith_normal_form(SparseMatrix.from_dense(rows))
    assert rep.elementary_divisors == determinantal_divisors(rows)


def test_snf_exact_beyond_float_range():
    # quotients of 2000-bit entries do not fit a float: only exact floor
    # division reduces them
    H = 2 ** 2000
    for rows in ([[H + 1, H], [H, H - 1]],
                 [[6 * H, 10 * H + 4, 0], [15, 6 * H - 1, 2], [H, 0, 4 * H]]):
        rep = smith_normal_form(SparseMatrix.from_dense(rows))
        assert rep.elementary_divisors == determinantal_divisors(rows)


def test_snf_is_independent_of_the_chain_complex_reduction():
    # the per-degree SNF is the tests' oracle for davis.homology, so no
    # function reachable from smith_normal_form may use the unit-pair
    # reduction that davis.homology runs first
    tree = ast.parse(inspect.getsource(exact_linalg))
    functions = {f.name: f for f in tree.body
                 if isinstance(f, ast.FunctionDef)}
    reached, todo = set(), ["smith_normal_form"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo.extend(n.id for n in ast.walk(functions[name])
                    if isinstance(n, ast.Name) and n.id in functions)
    assert {"_smith_pivot", "_divisor_chain"} <= reached
    assert not reached & {"reduce_chain_complex", "_eliminate_unit_pairs"}


def test_a_column_that_turns_unit_after_its_visit_is_swept_again():
    # cells 0, 1 in degree 0; d2 = 2.0 + 3.1 has no unit entry when it is
    # visited, and d3 = 0 + 1 pairs with 0 (a tie on cofaces, the first
    # face wins), which turns d2 into 1: the pair (2, 1) goes in the
    # second sweep
    boundary = [{}, {}, {0: 2, 1: 3}, {0: 1, 1: 1}]
    exact_linalg._eliminate_unit_pairs(boundary)
    assert boundary == [None] * 4


def test_smith_report_validates():
    with pytest.raises(ValueError):
        SmithReport((3, 2), 2)
    with pytest.raises(ValueError):
        SmithReport((2, 4), 3)
    assert SmithReport((1, 2, 6), 3).torsion == (2, 6)


# ---------------------------------------------------------------------------
# SparseMatrix plumbing
# ---------------------------------------------------------------------------


def coordinate_text(M):
    """The coordinate dump as one string, built in memory: the oracle for
    the streamed SparseMatrix.dump."""
    domain = "Z" if M.p is None else f"F{M.p}"
    lines = [f"{M.n_rows} {M.n_cols} {M.nnz()} {domain}"]
    lines += [f"{i} {j} {v}" for i, j, v in M.entries()]
    return "\n".join(lines) + "\n"


def dumped(M):
    buf = io.StringIO()
    M.dump(buf)
    return buf.getvalue()


def test_dump_load_roundtrip():
    M = SparseMatrix.from_dense([[0, -2], [3, 0], [0, 7]])
    M2 = SparseMatrix.load(dumped(M))
    assert to_dense(M2) == to_dense(M)
    assert M2.p is None
    Mp = SparseMatrix.from_dense([[1, 2], [0, 4]], p=5)
    Mp2 = SparseMatrix.load(dumped(Mp))
    assert Mp2.p == 5 and to_dense(Mp2) == to_dense(Mp)


def test_dump_header_format():
    M = SparseMatrix.from_dense([[1, 0], [0, 2]], p=3)
    first = dumped(M).splitlines()[0]
    assert first == "2 2 2 F3"
    Mz = SparseMatrix.from_dense([[5]])
    assert dumped(Mz).splitlines()[0] == "1 1 1 Z"


@pytest.mark.parametrize("p", [None, 2, 3, 7])
def test_streamed_dump_writes_the_in_memory_text(p):
    rng = random.Random(p or 0)
    for shape in [(0, 0), (3, 0), (0, 4), (5, 5), (40, 17)]:
        ent = {(rng.randrange(shape[0]), rng.randrange(shape[1])):
               rng.randrange(-50, 50) for _ in range(shape[0] * shape[1] // 3)}
        M = SparseMatrix(*shape, [(i, j, v) for (i, j), v in ent.items()], p)
        assert dumped(M) == coordinate_text(M)


def test_dump_streams_into_the_file(tmp_path):
    # 200,000 entries in 2,000 columns; the text is about 3 MB
    M = SparseMatrix(5000, 2000, [(i * 37 % 5000, j, i + j)
                                  for j in range(2000) for i in range(100)])
    path = tmp_path / "m.txt"
    tracemalloc.start()
    try:
        with path.open("w") as fh:
            M.dump(fh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    text = path.read_text()
    assert text == coordinate_text(M)
    assert peak < len(text) // 20


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6),
       st.sampled_from([None, 2, 3, 5, 9, 243]), st.data())
def test_load_reads_what_dump_wrote(n_rows, n_cols, p, data):
    cells = [(i, j) for i in range(n_rows) for j in range(n_cols)]
    picked = data.draw(st.lists(st.sampled_from(cells), unique=True)
                       if cells else st.just([]))
    values = data.draw(st.lists(st.integers(-300, 300),
                                min_size=len(picked), max_size=len(picked)))
    M = SparseMatrix(n_rows, n_cols,
                     [(i, j, v) for (i, j), v in zip(picked, values)], p)
    text = dumped(M)
    domain = ("Z" if p is None else f"F{p}" if exact_linalg.is_prime(p)
              else f"Z/{p}")
    assert text.split("\n", 1)[0].split()[3] == domain
    L = SparseMatrix.load(text)
    assert (L.n_rows, L.n_cols, L.p, L.cols) == \
        (M.n_rows, M.n_cols, M.p, M.cols)
    # blank lines and spacing do not matter
    assert SparseMatrix.load("\n" + text.replace("\n", "\n\n")).cols == \
        M.cols


@pytest.mark.parametrize("text,message", [
    ("", "bad coordinate header"),
    ("2 2 1\n0 0 1\n", "bad coordinate header"),
    ("2 2 1 F3 x\n0 0 1\n", "bad coordinate header"),
    ("2 2 2 F3\n0 0 1\n", "nnz mismatch in coordinate dump"),
    ("2 2 1 F3\n0 0 1\n1 1 1\n", "nnz mismatch in coordinate dump"),
    ("2 2 1 F3\n0 0\n", "nnz mismatch in coordinate dump"),
    ("2 2 1 Z\n2 0 1\n", "index (2,0) out of range"),
    ("2 2 1 Z\n0 -1 1\n", "index (0,-1) out of range"),
    ("2 2 2 Z/9\n1 1 1\n1 1 5\n", "duplicate entry at (1,1)"),
])
def test_load_rejects_a_bad_dump(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SparseMatrix.load(text)


def test_load_reduces_mod_p():
    # 4 = 1 mod 3 is kept as 1, 3 = 0 mod 3 is dropped, and a column whose
    # entries all vanish is not stored; Z/9 keeps 3
    M = SparseMatrix.load("3 2 3 F3\n0 0 4\n1 0 -1\n2 1 3\n")
    assert (M.p, M.cols) == (3, {0: {0: 1, 1: 2}})
    M = SparseMatrix.load("3 2 3 Z/9\n0 0 4\n1 0 -1\n2 1 3\n")
    assert (M.p, M.cols) == (9, {0: {0: 4, 1: 8}, 1: {2: 3}})


def test_mul_vector_and_transpose():
    M = SparseMatrix.from_dense([[1, 2, 0], [0, -1, 4]])
    assert mul_vector(M, [1, 1, 1]) == [3, 3]
    assert to_dense(transpose(M)) == [[1, 0], [2, -1], [0, 4]]


def test_entries_rejects_bad_input():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(2, 0, 1)])
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(0, 0, 1), (0, 0, 2)])


def test_echelon_z_membership():
    ech = Echelon()
    ech.add({0: 2, 1: 4})
    ech.add({0: 0, 1: 6})
    assert ech.rank == 2
    # (2, 10) = (2,4) + (0,6): member
    assert ech.reduce({0: 2, 1: 10}) == {}
    # (1, 2): not in the lattice (pivot 2 does not divide 1)
    assert ech.reduce({0: 1, 1: 2}) != {}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(0, 6).flatmap(
        lambda k: st.lists(st.lists(st.integers(-p, 2 * p), min_size=k,
                                    max_size=k), min_size=k, max_size=k)))))
def test_mat_det_matches_the_cofactor_expansion(case):
    p, A = case
    assert _mat_det(A, p) == cofactor_det(A, p)


def test_mat_det_of_a_singular_matrix_and_a_row_swap():
    assert _mat_det([[0, 1], [1, 0]], 5) == 4  # -1
    assert _mat_det([[1, 2, 3], [2, 4, 6], [0, 0, 1]], 7) == 0
    assert _mat_det([], 3) == 1
