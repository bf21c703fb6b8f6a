"""Packed F_p echelon rows against the dict-based elimination they replaced.

The oracle below is the per-coordinate dict code that ``Echelon`` used over
F_p before rows were packed into integers (bytes per coordinate for p != 3,
two bit planes for p = 3); both must agree on every return value, stored
row, residue, kernel and solution.
"""

import pytest
from hypothesis import given, settings, strategies as st

from cohomolab import bar_cohomology as bc
from cohomolab.exact_linalg import (
    Echelon,
    SparseMatrix,
    _Packing,
    _augmented_echelon,
    _planes,
    kernel_mod_p,
    solve,
)
from cohomolab.groups import build_cyclic, build_product, symmetric_3
from matrix_helpers import mul_vector

PRIMES = [2, 3, 5, 7, 11, 13, 10007, 65537]


# ---------------------------------------------------------------------------
# oracle: the dict-based F_p echelon
# ---------------------------------------------------------------------------


class DictEchelon:
    def __init__(self, p):
        self.p = p
        self.basis = {}

    def reduce(self, vec):
        p = self.p
        vec = {k: v % p for k, v in vec.items() if v % p}
        lo = -1
        while vec:
            pending = [k for k in vec if k > lo]
            if not pending:
                break
            piv = min(pending)
            row = self.basis.get(piv)
            if row is None:
                lo = piv
                continue
            q = (vec[piv] * pow(row[piv], p - 2, p)) % p
            _axpy(vec, row, -q, p)
        return vec

    def add(self, vec):
        p = self.p
        vec = {k: v % p for k, v in vec.items() if v % p}
        while vec:
            piv = min(vec)
            row = self.basis.get(piv)
            if row is None:
                self.basis[piv] = vec
                return True
            q = (vec[piv] * pow(row[piv], p - 2, p)) % p
            _axpy(vec, row, -q, p)
        return False


def _axpy(vec, row, c, p):
    for k, v in row.items():
        nv = (vec.get(k, 0) + c * v) % p
        if nv:
            vec[k] = nv
        else:
            vec.pop(k, None)


def oracle_echelon(M):
    ech = DictEchelon(M.p)
    for j in range(M.n_cols):
        vec = dict(M.cols.get(j, ()))
        vec[M.n_rows + j] = 1
        ech.add(vec)
    return ech


def oracle_kernel(M):
    ech, n = oracle_echelon(M), M.n_rows
    return [{k - n: v for k, v in sorted(ech.basis[piv].items()) if v}
            for piv in sorted(ech.basis) if piv >= n]


def oracle_solve(M, b):
    ech, n = oracle_echelon(M), M.n_rows
    res = ech.reduce({i: v for i, v in enumerate(b) if v})
    if any(k < n for k in res):
        return None
    x = [0] * M.n_cols
    for k, v in res.items():
        x[k - n] = -v % M.p
    return x


def assert_same(ech, oracle):
    assert ech.rank == len(oracle.basis)
    assert sorted(ech.basis) == sorted(oracle.basis)
    for piv, row in oracle.basis.items():
        assert ech.row(piv) == row


# ---------------------------------------------------------------------------
# packed against dict, on random streams of add and reduce
# ---------------------------------------------------------------------------

values = st.integers(-10**6, 10**6) | st.sampled_from([-1, 0, 1, 65536, 65537])
# up to 24 entries, so both ways of packing (a few shifts, a buffer) run
vectors = st.dictionaries(st.integers(0, 40), values, max_size=24)


@given(st.sampled_from(PRIMES),
       st.lists(st.tuples(st.booleans(), vectors), max_size=30))
@settings(max_examples=150, deadline=None)
def test_add_and_reduce_match_dict_oracle(p, ops):
    ech, oracle = Echelon(p), DictEchelon(p)
    for is_add, vec in ops:
        if is_add:
            assert ech.add(dict(vec)) == oracle.add(dict(vec))
        else:
            assert ech.reduce(dict(vec)) == oracle.reduce(dict(vec))
    assert_same(ech, oracle)


# over F_3, vectors spread over thousands of coordinates: rows and sweeps
# then cross the 64-bit window that the bit-plane sweep looks in first,
# and a clustered vector packs through the buffer route
def _spread(base, offsets):
    return {base + k: v for k, v in offsets.items()}


wide_vectors = (
    st.dictionaries(st.integers(0, 5000), values, max_size=24)
    | st.builds(_spread, st.integers(0, 5000),
                st.dictionaries(st.integers(0, 200), values, min_size=17,
                                max_size=40)))


@given(st.lists(st.tuples(st.booleans(), wide_vectors | vectors),
                max_size=30))
@settings(max_examples=75, deadline=None)
def test_f3_streams_over_thousands_of_coordinates(ops):
    ech, oracle = Echelon(3), DictEchelon(3)
    for is_add, vec in ops:
        if is_add:
            assert ech.add(dict(vec)) == oracle.add(dict(vec))
        else:
            assert ech.reduce(dict(vec)) == oracle.reduce(dict(vec))
    assert_same(ech, oracle)


def planes_oracle(vec):
    """_planes one coordinate at a time: a bit of P for each 1 mod 3 and
    of M for each 2, from the least coordinate that is nonzero mod 3."""
    vec = {i: v % 3 for i, v in vec.items() if v % 3}
    if not vec:  # any base, both planes empty
        return None
    lo = min(vec)
    P = sum(1 << i - lo for i, v in vec.items() if v == 1)
    M = sum(1 << i - lo for i, v in vec.items() if v == 2)
    return lo, P, M


@given(st.one_of(
    st.dictionaries(st.integers(0, 20000), st.integers(-9, 9), max_size=60),
    st.builds(_spread, st.integers(0, 5000),
              st.dictionaries(st.integers(0, 300), st.integers(-9, 9),
                              min_size=17, max_size=120))))
@settings(max_examples=300, deadline=None)
def test_planes_of_sparse_and_dense_vectors(vec):
    # a few entries are shifted in one by one, more go through a byte per
    # coordinate, wide (8 * entries < span) or dense; values 0 mod 3 and
    # negative values included
    want = planes_oracle(vec)
    if want is None:
        assert _planes(vec)[1:] == (0, 0)
    else:
        assert _planes(vec) == want


def test_planes_of_the_augmented_coboundary_columns():
    M = bc.coboundary_matrix(build_product([build_cyclic(3)] * 2), 3, 3)
    for j in range(0, M.n_cols, 7):
        vec = dict(M.cols.get(j, ()))
        vec[M.n_rows + j] = 1
        assert len(vec) * 8 < max(vec) - min(vec) + 1  # a wide vector
        assert _planes(vec) == planes_oracle(vec)


@pytest.mark.parametrize("r0,v0", [(1, 1), (1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("gap", [1, 97])
def test_f3_plane_addition_on_all_nine_pairs(r0, v0, gap):
    # one sweep step V - (v0/r0)*R adds R or -R to all nine pairs of
    # coordinates at once; a gap of 97 puts them past the 64-bit window
    pairs = [(x, y) for x in range(3) for y in range(3)]
    row = {0: r0, **{gap * i: y for i, (x, y) in enumerate(pairs, 1)}}
    vec = {0: v0, **{gap * i: x for i, (x, y) in enumerate(pairs, 1)}}
    c = v0 * r0 % 3  # v0 / r0, as r0 is its own inverse mod 3
    want = {gap * i: (x - c * y) % 3 for i, (x, y) in enumerate(pairs, 1)
            if (x - c * y) % 3}
    assert sorted(set(want.values())) == [1, 2]
    ech = Echelon(3)
    assert ech.add(row)
    assert ech.row(0) == {k: v for k, v in row.items() if v}
    assert ech.reduce(vec) == want
    assert ech.add(vec)
    assert ech.row(min(want)) == want


@pytest.mark.parametrize("G,n", [
    (build_product([build_cyclic(3), build_cyclic(3)]), 2),
    (symmetric_3(), 3),
], ids=["C3xC3-delta2", "S3-delta3"])
def test_f3_coboundary_echelon_matches_dict_oracle(G, n):
    M = bc.coboundary_matrix(G, n, 3)
    ech, oracle = _augmented_echelon(M), oracle_echelon(M)
    assert_same(ech, oracle)
    assert kernel_mod_p(M) == oracle_kernel(M)
    for j in range(0, M.n_rows, 7):
        target = {j: 1, (5 * j + 3) % M.n_rows: 2}
        assert ech.reduce(dict(target)) == oracle.reduce(target)


@given(st.sampled_from(PRIMES), st.integers(1, 7), st.integers(1, 9),
       st.data())
@settings(max_examples=100, deadline=None)
def test_kernel_and_solve_match_dict_oracle(p, n_rows, n_cols, data):
    entry = st.sampled_from([0, 0, 0, 1, p - 1]) | st.integers(-p, 2 * p)
    rows = data.draw(st.lists(st.lists(entry, min_size=n_cols,
                                       max_size=n_cols),
                              min_size=n_rows, max_size=n_rows))
    M = SparseMatrix.from_dense(rows, p=p)
    assert kernel_mod_p(M) == oracle_kernel(M)
    b = data.draw(st.lists(st.integers(-2 * p, 2 * p), min_size=n_rows,
                           max_size=n_rows))
    assert solve(M, b) == oracle_solve(M, b)
    # a right-hand side known to be in the image
    x = data.draw(st.lists(st.integers(0, p - 1), min_size=n_cols,
                           max_size=n_cols))
    image = mul_vector(M, x)
    assert solve(M, image) == oracle_solve(M, image)


# ---------------------------------------------------------------------------
# edge inputs
# ---------------------------------------------------------------------------


def run_both(p, ops):
    ech, oracle = Echelon(p), DictEchelon(p)
    for vec in ops:
        assert ech.reduce(dict(vec)) == oracle.reduce(dict(vec))
        assert ech.add(dict(vec)) == oracle.add(dict(vec))
    assert_same(ech, oracle)
    return ech


@pytest.mark.parametrize("p", PRIMES)
def test_empty_and_zero_vectors(p):
    ech = run_both(p, [{}, {3: 0}, {0: p, 5: -p, 9: 7 * p}])
    assert ech.rank == 0
    assert ech.reduce({}) == {}


@pytest.mark.parametrize("p", PRIMES)
def test_negative_and_oversized_values(p):
    run_both(p, [{0: -1, 2: p + 1}, {0: -p - 2, 1: 3 * p - 1},
                 {1: -7, 2: p * p + 5, 3: -(10**12)}, {0: 2, 3: -1}])


@pytest.mark.parametrize("p", PRIMES)
def test_single_coordinate_near_1e5(p):
    ech = run_both(p, [{99_998: p - 1}, {100_003: -1},
                       {99_998: 1, 100_003: 2}, {100_001: p + 3}])
    assert ech.reduce({99_998: 5, 100_003: 1}).keys() <= {100_003}


@pytest.mark.parametrize("p", PRIMES)
def test_all_fields_p_minus_1_with_multiplier_p_minus_1(p):
    # row and vector agree in field 0, so the multiplier is p - 1 and every
    # field of V + (p - 1)*R reaches p*p - p, the largest the packing allows
    top = [p - 1] * 33
    ops = [dict(enumerate(top)),
           dict(enumerate(top)),
           {**dict(enumerate(top)), 5: 1, 32: 0},
           {0: p - 1, **{j: p - 1 for j in range(2, 40, 3)}}]
    ech = run_both(p, ops)
    assert ech.reduce(dict(enumerate(top))) == {}


# ---------------------------------------------------------------------------
# the closed-form Barrett constants
# ---------------------------------------------------------------------------


def primes_below(n):
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, n, i)))
    return [i for i in range(n) if sieve[i]]


def test_barrett_inequalities_for_every_prime_below_2_16():
    for p in primes_below(1 << 16):
        pk = _Packing(p)
        s, m, k, top = pk.s, pk.m, pk.k, p * p - p
        assert m == -(-(1 << s) // p)
        assert (m * p - (1 << s)) * top < 1 << s
        assert top * m < 1 << 8 * k
        assert k & (k - 1) == 0 and (k == 1 or top * m >= 1 << 4 * k)
        for y in (0, 1, p - 1, p, p + 1, top - p, top - 1, top):
            assert y * m >> s == y // p
        if p < 100:
            assert all(y * m >> s == y // p for y in range(top + 1))


def test_field_widths():
    assert [_Packing(p).k for p in (2, 3, 5, 13, 17)] == [1, 1, 2, 2, 4]
    assert _Packing(65521).k == 8
    assert _Packing(65537).k == 16
