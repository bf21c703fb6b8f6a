"""The one-echelon coboundary solver against the separate eliminations it
replaced.

``CoboundarySolver`` holds a single echelon of the columns of
[delta_n ; I].  Each oracle below is built from public functions only:
the kernel of the coboundary matrix, a plain ``Echelon`` of its columns,
and an exact ``solve`` on it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from cohomolab import bar_cohomology as bc
from cohomolab.exact_linalg import (Echelon, _augmented_echelon, kernel_mod_p,
                                    solve)
from cohomolab.groups import build_cyclic, build_product, symmetric_3
from matrix_helpers import cochain_vector, index_cell

C3xC3 = build_product([build_cyclic(3), build_cyclic(3)])

# (group, largest degree n of delta_n tried)
GROUPS = [(build_cyclic(2), 4), (build_cyclic(3), 3), (build_cyclic(4), 2),
          (symmetric_3(), 2), (C3xC3, 1)]
CASES = [(G, n) for G, top in GROUPS for n in range(top + 1)]
RINGS = [2, 3, None]


def _cochain(draw, G, n, p):
    """A cochain of degree n with a few drawn entries."""
    cells = bc.n_cells(G, n)
    if cells == 0:
        return bc.zero_cochain(G, n, p)
    values = st.integers(0, p - 1) if p else st.integers(-3, 3)
    data = draw(st.dictionaries(st.integers(0, cells - 1), values,
                                max_size=6))
    return bc.Cochain(G, n, {index_cell(G, n, j): v
                             for j, v in data.items()}, p)


def _from_vector(G, n, p, vec):
    return bc.Cochain(G, n, {index_cell(G, n, j): v
                             for j, v in enumerate(vec) if v}, p)


@pytest.mark.parametrize("G,n", [c for c in CASES if c[1] >= 1],
                         ids=lambda x: getattr(x, "name", x))
@pytest.mark.parametrize("p", [2, 3])
def test_cocycle_basis_is_the_kernel_of_delta(G, n, p):
    M = bc.coboundary_matrix(G, n, p)
    kernel = [[v.get(j, 0) for j in range(M.n_cols)] for v in kernel_mod_p(M)]
    assert [cochain_vector(z) for z in bc.cocycle_basis(G, n, p)] \
        == kernel
    assert all(bc.is_cocycle(z) for z in bc.cocycle_basis(G, n, p))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CASES), st.sampled_from(RINGS), st.data())
def test_reduce_matches_a_plain_echelon(case, p, data):
    G, n = case
    M = bc.coboundary_matrix(G, n, p)
    plain = Echelon(p=p)
    for j in sorted(M.cols):
        plain.add(dict(M.cols[j]))
    c = _cochain(data.draw, G, n + 1, p)
    if data.draw(st.booleans()):  # same class, other representative
        c = c + bc.coboundary(_cochain(data.draw, G, n, p))
    residue = plain.reduce({bc.cell_index(G, k): v
                            for k, v in c.data.items()})
    got = bc.CoboundarySolver(G, n, p).reduce(c)
    assert got == _from_vector(G, n + 1, p, [residue.get(i, 0)
                                             for i in range(M.n_rows)])
    assert bc._solver(G, n, p).reduce(c) == got


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CASES), st.sampled_from(RINGS), st.data())
def test_find_primitive_matches_solve(case, p, data):
    G, n = case
    if data.draw(st.booleans()):
        c = bc.coboundary(_cochain(data.draw, G, n, p))
    else:
        c = _cochain(data.draw, G, n + 1, p)
    x = solve(bc.coboundary_matrix(G, n, p), cochain_vector(c))
    prim = bc.find_primitive(c)
    if x is None:
        assert prim is None
        assert not bc.is_coboundary(c)
    else:
        assert prim == _from_vector(G, n, p, x)
        assert bc.coboundary(prim) == c


# (group, n) for the plane route against the dict route: C2, C3, C9,
# C3 x C3 and S3 in degrees 0..3, and S3 in degree 4
PLANE_CASES = [(G, n) for G in (build_cyclic(2), build_cyclic(3),
                                build_cyclic(9), C3xC3, symmetric_3())
               for n in range(4)] + [(symmetric_3(), 4)]


@pytest.mark.parametrize("G,n", PLANE_CASES,
                         ids=lambda x: getattr(x, "name", x))
def test_plane_columns_match_the_coboundary_matrix(monkeypatch, G, n):
    """Over F_3 the solver writes each column of [delta_n ; I] straight
    into bit planes: each column, read back, is the matrix column mod 3
    with a 1 at its bookkeeping coordinate, and the echelon has the
    pivots and planes of the augmented echelon of coboundary_matrix."""
    D = bc.coboundary_matrix(G, n, 3)
    columns = []
    add3 = Echelon._add3

    def spied(self, lo, P, M):
        columns.append((lo, P, M))
        return add3(self, lo, P, M)

    monkeypatch.setattr(Echelon, "_add3", spied)
    planes = bc._plane_echelon(G, n)
    monkeypatch.undo()
    assert planes.basis == _augmented_echelon(D).basis
    assert len(columns) == D.n_cols
    for j, (lo, P, M) in enumerate(columns):
        one = Echelon(p=3)
        one.basis[lo] = (P, M)
        assert one.row(lo) == {**D.cols.get(j, {}), D.n_rows + j: 1}
