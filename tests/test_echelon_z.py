"""The integer echelon against the all-rows size reduction it replaced.

``Echelon`` over Z size-reduces only the row it stores.  The oracle below
is the code it used before, which after every store size-reduced the new
row and then every other row holding a coordinate at the new pivot.  Both
must agree on every rank, residue and pivot value, and span the same
kernel lattices, although their stored rows differ.
"""

from hypothesis import given, settings, strategies as st

from cohomolab.exact_linalg import Echelon, SparseMatrix, kernel_z
from matrix_helpers import mul_vector


# ---------------------------------------------------------------------------
# oracle: the all-rows size-reducing Z echelon
# ---------------------------------------------------------------------------


class AllRowsEchelon:
    def __init__(self):
        self.basis = {}

    def reduce(self, vec):
        vec = {k: v for k, v in vec.items() if v}
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
            q = vec[piv] // row[piv]
            if q:
                _axpy(vec, row, -q)
            if vec.get(piv):
                lo = piv
        return vec

    def add(self, vec):
        vec = {k: v for k, v in vec.items() if v}
        while vec:
            piv = min(vec)
            row = self.basis.get(piv)
            if row is None:
                self._store(piv, vec)
                return True
            a, b = row[piv], vec[piv]
            if b % a == 0:
                _axpy(vec, row, -(b // a))
            elif a % b == 0:
                self._store(piv, vec)
                _axpy(row, vec, -(a // b))
                vec = row
            else:
                g, x, y = _xgcd(a, b)
                new_row = _combine(row, vec, x, y)
                new_vec = _combine(row, vec, -(b // g), a // g)
                self._store(piv, new_row)
                vec = new_vec
        return False

    def _store(self, piv, vec):
        if vec[piv] < 0:
            vec = {k: -v for k, v in vec.items()}
        self.basis[piv] = vec
        self._size_reduce(piv)
        for other in list(self.basis):
            if other != piv and piv in self.basis[other]:
                self._size_reduce(other)

    def _size_reduce(self, piv):
        row = self.basis[piv]
        for k in sorted(self.basis):
            if k == piv:
                continue
            v = row.get(k)
            if not v:
                continue
            other = self.basis[k]
            q = v // other[k]
            if q:
                _axpy(row, other, -q)


def _axpy(vec, row, c):
    for k, v in row.items():
        nv = vec.get(k, 0) + c * v
        if nv:
            vec[k] = nv
        else:
            vec.pop(k, None)


def _combine(u, v, a, b):
    out = {k: a * x for k, x in u.items()} if a else {}
    if b:
        _axpy(out, v, b)
    return out


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def oracle_kernel(M):
    ech, n = AllRowsEchelon(), M.n_rows
    for j in range(M.n_cols):
        vec = dict(M.cols.get(j, ()))
        vec[n + j] = 1
        ech.add(vec)
    return [[ech.basis[piv].get(n + j, 0) for j in range(M.n_cols)]
            for piv in sorted(ech.basis) if piv >= n]


def pivot_values(basis):
    return {piv: row[piv] for piv, row in basis.items()}


def spans(vectors):
    ech = Echelon()
    for v in vectors:
        ech.add({i: x for i, x in enumerate(v) if x})
    return ech


# ---------------------------------------------------------------------------
# incoming-row size reduction against the all-rows oracle
# ---------------------------------------------------------------------------

values = (st.integers(-6, 6) | st.integers(-10**9, 10**9)
          | st.sampled_from([-1, 0, 1, 2, 3, 6, 12]))
vectors = st.dictionaries(st.integers(0, 14), values, max_size=10)


@given(st.lists(st.tuples(st.booleans(), vectors), max_size=40))
@settings(max_examples=200, deadline=None)
def test_add_and_reduce_match_all_rows_oracle(ops):
    ech, oracle = Echelon(), AllRowsEchelon()
    for is_add, vec in ops:
        if is_add:
            assert ech.add(dict(vec)) == oracle.add(dict(vec))
        else:
            assert ech.reduce(dict(vec)) == oracle.reduce(dict(vec))
    assert ech.rank == len(oracle.basis)
    # pivot positions and values are invariants of the lattice
    assert pivot_values(ech.basis) == pivot_values(oracle.basis)
    # every oracle row lies in the lattice, and the residues of the rows
    # of either basis agree
    for row in oracle.basis.values():
        assert ech.reduce(dict(row)) == {}
    for vec in [v for _, v in ops] + list(ech.basis.values()):
        assert ech.reduce(dict(vec)) == oracle.reduce(dict(vec))


@given(st.integers(1, 6), st.integers(1, 9), st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_z_matches_all_rows_oracle(n_rows, n_cols, data):
    entry = st.sampled_from([0, 0, 0, 1, -1]) | st.integers(-9, 9)
    rows = data.draw(st.lists(st.lists(entry, min_size=n_cols,
                                       max_size=n_cols),
                              min_size=n_rows, max_size=n_rows))
    M = SparseMatrix.from_dense(rows)
    kern = [[v.get(j, 0) for j in range(n_cols)] for v in kernel_z(M)]
    expected = oracle_kernel(M)
    assert len(kern) == len(expected)
    for v in kern:
        assert mul_vector(M, v) == [0] * n_rows
    # the same lattice: each basis lies in the span of the other
    ours, theirs = spans(kern), spans(expected)
    assert pivot_values(ours.basis) == pivot_values(theirs.basis)
    for v in expected:
        assert ours.reduce({i: x for i, x in enumerate(v) if x}) == {}
    for v in kern:
        assert theirs.reduce({i: x for i, x in enumerate(v) if x}) == {}


def test_stored_rows_are_not_re_reduced():
    # the second row reduces nothing stored before it: row 0 keeps its
    # coordinate 5 at pivot 1, where the all-rows oracle reduces it to 1
    ech, oracle = Echelon(), AllRowsEchelon()
    for vec in ({0: 1, 1: 5}, {1: 2, 2: 1}):
        assert ech.add(dict(vec)) and oracle.add(dict(vec))
    assert ech.basis[0] == {0: 1, 1: 5}
    assert oracle.basis[0] == {0: 1, 1: 1, 2: -2}
    assert ech.reduce({0: 3, 1: 4, 2: 7}) == oracle.reduce({0: 3, 1: 4, 2: 7})
