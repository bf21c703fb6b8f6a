"""Bar cochains stored by cell index against the tuple-keyed oracles of
tests/cochain_helpers.py; the one-sweep class questions (is_coboundary,
_independent_classes) against the residue of CoboundarySolver.reduce; and
the early-exit residue and copy of Echelon that they use."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cohomolab import bar_cohomology as bc
from cohomolab.exact_linalg import Echelon
from cohomolab.groups import (build_P, build_cyclic, build_product,
                              subgroup_closure, symmetric_3)
from cochain_helpers import (coboundary_ref, cup1_ref, cup_ref,
                             independent_classes_ref, is_coboundary_ref,
                             restrict_ref, transfer_ref)
from matrix_helpers import index_cell

C3xC3 = build_product([build_cyclic(3), build_cyclic(3)])
# (group, largest cochain degree drawn)
GROUPS = [(build_cyclic(2), 4), (build_cyclic(3), 3), (build_cyclic(4), 3),
          (symmetric_3(), 3), (C3xC3, 3)]
RINGS = [None, 2, 3, 5]


def _cochain(draw, G, n, p, size=8):
    """A degree-n cochain with up to size drawn entries (negative ones
    too, so that reduction mod p and over Z is exercised)."""
    cells = bc.n_cells(G, n)
    data = draw(st.dictionaries(st.integers(0, cells - 1),
                                st.integers(-7, 7), max_size=size))
    return bc.Cochain(G, n, {index_cell(G, n, j): v
                             for j, v in data.items()}, p)


group_cases = st.sampled_from(GROUPS)


@settings(max_examples=150, deadline=None)
@given(group_cases, st.sampled_from(RINGS), st.data())
def test_coboundary_cup_and_cup1_match_the_tuple_oracles(case, p, data):
    G, top = case
    deg = st.integers(0, top)
    u = _cochain(data.draw, G, data.draw(deg), p)
    v = _cochain(data.draw, G, data.draw(st.integers(0, top - 1)), p)
    assert bc.coboundary(u).data == coboundary_ref(u)
    assert bc.cup(u, v).data == cup_ref(u, v)
    assert bc.cup(v, u).data == cup_ref(v, u)
    assert bc.cup1(u, v).data == cup1_ref(u, v)
    assert bc.cup1(v, u).data == cup1_ref(v, u)


@pytest.mark.parametrize("G,top", GROUPS, ids=lambda x: getattr(x, "name", x))
@pytest.mark.parametrize("p", RINGS)
def test_dense_cochains_match_the_tuple_oracles(G, top, p):
    rng = random.Random(f"{G.name}:{p}")
    for n in range(top):
        u = bc.Cochain(G, n, {index_cell(G, n, j): rng.randint(-4, 4)
                              for j in range(bc.n_cells(G, n))}, p)
        v = bc.random_cochain(G, 1, p or 7, rng)
        if p is None:
            v = v.lift_to_z()
        assert bc.coboundary(u).data == coboundary_ref(u)
        assert bc.cup(u, v).data == cup_ref(u, v)
        assert bc.cup1(u, v).data == cup1_ref(u, v)
        assert bc.cup1(v, u).data == cup1_ref(v, u)


@settings(max_examples=60, deadline=None)
@given(group_cases, st.sampled_from(RINGS), st.data())
def test_tuple_view_round_trips(case, p, data):
    G, top = case
    c = _cochain(data.draw, G, data.draw(st.integers(0, top)), p)
    again = bc.Cochain(G, c.degree, c.data, p)
    assert again == c and list(again.cells) == list(c.cells)
    for key, v in c.data.items():
        assert c(key) == v and c.cells[bc.cell_index(G, key)] == v
    if c.degree:
        assert c((0,) * c.degree) == 0


@pytest.mark.parametrize("p", [None, 3])
def test_restrict_and_transfer_match_the_tuple_oracles(p):
    rng = random.Random(11)
    for G, gens in ((C3xC3, [3]), (C3xC3, [1]), (symmetric_3(), [3]),
                    (build_P(3, 3), [3, 1])):
        H = subgroup_closure(G, gens)
        Hg = H.as_group()
        for n in (0, 1, 2, 3):
            if (Hg.order - 1) ** n * H.index > 10_000 or \
                    (G.order - 1) ** n > 5_000:
                continue
            c = bc.random_cochain(G, n, 5, rng)
            h = bc.random_cochain(Hg, n, 5, rng)
            if p is None:
                c, h = c.lift_to_z(), h.lift_to_z()
            else:
                c, h = c.lift_to_z().reduce_mod(p), h.lift_to_z().reduce_mod(p)
            assert bc.restrict(c, H).data == restrict_ref(c, H)
            assert bc.transfer(h, H).data == transfer_ref(h, H)


# ---------------------------------------------------------------------------
# one-sweep class questions
# ---------------------------------------------------------------------------


SOLVER_CASES = [(G, n) for G, top in GROUPS for n in range(1, top + 1)
                if bc.n_cells(G, n) <= 512]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SOLVER_CASES), st.sampled_from(RINGS), st.data())
def test_is_coboundary_matches_the_residue_route(case, p, data):
    G, n = case
    kind = data.draw(st.sampled_from(["coboundary", "shifted", "any"]))
    if kind == "any":
        c = _cochain(data.draw, G, n, p)
    else:
        c = bc.coboundary(_cochain(data.draw, G, n - 1, p))
        if kind == "shifted":  # a coboundary plus one cell
            c = c + _cochain(data.draw, G, n, p, size=1)
    assert bc.is_coboundary(c) == is_coboundary_ref(c)
    if kind == "coboundary":
        assert bc.is_coboundary(c)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SOLVER_CASES), st.sampled_from([2, 3, 5]), st.data())
def test_independent_classes_match_the_residue_route(case, p, data):
    G, n = case
    cocycles = bc.cocycle_basis(G, n, p)
    cands = []
    for _ in range(data.draw(st.integers(1, 6))):
        kind = data.draw(st.sampled_from(["cocycle", "coboundary", "sum"]))
        if kind == "sum" and not cands:
            kind = "cocycle"
        if kind == "cocycle" and cocycles:
            c = cocycles[data.draw(st.integers(0, len(cocycles) - 1))]
        elif kind != "sum":
            c = bc.coboundary(_cochain(data.draw, G, n - 1, p))
        else:  # dependent on what came before, up to a coboundary
            c = cands[data.draw(st.integers(0, len(cands) - 1))]
            c = c.scale(data.draw(st.integers(1, p - 1))) + bc.coboundary(
                _cochain(data.draw, G, n - 1, p))
        cands.append(c)
    got = bc._independent_classes(cands, G, n, p)
    assert [id(c) for c in got] == \
        [id(c) for c in independent_classes_ref(cands, G, n, p)]
    # the solver's own echelon is left as it was
    assert bc._independent_classes(cands, G, n, p) == got


@pytest.mark.parametrize("G,n,p", [(build_cyclic(3), 2, 3),
                                   (C3xC3, 2, 3), (symmetric_3(), 2, 2),
                                   (build_cyclic(4), 2, 2),
                                   (build_cyclic(5), 2, 5)],
                         ids=lambda x: getattr(x, "name", x))
def test_a_nonzero_coboundary_is_never_a_new_class(G, n, p):
    # its residue lies in bookkeeping coordinates only
    rng = random.Random(3)
    z = bc.class_basis(G, n, p)
    for _ in range(5):
        b = bc.coboundary(bc.random_cochain(G, n - 1, p, rng))
        if b.is_zero():
            continue
        assert bc.is_coboundary(b)
        assert bc._independent_classes([b], G, n, p) == []
        assert bc._independent_classes(z + [b], G, n, p) == z
        assert bc._independent_classes([b] + z, G, n, p) == z
        if z:
            assert not bc.is_coboundary(z[0] + b)


# ---------------------------------------------------------------------------
# the Echelon pieces: the residue's least coordinate below stop, and copy
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([None, 2, 3, 5, 7]), st.data())
def test_reduce_with_stop_is_the_least_residue_coordinate(p, data):
    coords = st.integers(0, 40)
    vecs = st.dictionaries(coords, st.integers(-4, 4), max_size=8)
    ech = Echelon(p=p)
    for vec in data.draw(st.lists(vecs, max_size=8)):
        ech.add(vec)
    vec = data.draw(vecs)
    stop = data.draw(coords)
    res = {k: v for k, v in ech.reduce(vec).items() if v}
    below = sorted(k for k in res if k < stop)
    want = {below[0]: res[below[0]]} if below else {}
    assert ech.reduce(vec, stop) == want


@pytest.mark.parametrize("p", [None, 2, 3, 5])
def test_copy_is_added_to_independently(p):
    rng = random.Random(p)
    ech = Echelon(p=p)
    for _ in range(6):
        ech.add({rng.randrange(30): rng.randint(1, 9) for _ in range(5)})
    rows = {piv: ech.row(piv) for piv in ech.basis}
    probes = [{rng.randrange(30): rng.randint(-9, 9) for _ in range(6)}
              for _ in range(20)]
    residues = [ech.reduce(vec) for vec in probes]
    other = ech.copy()
    assert {piv: other.row(piv) for piv in other.basis} == rows
    assert [other.reduce(vec) for vec in probes] == residues
    for vec in probes:
        other.add(vec)
    assert other.rank > ech.rank
    assert {piv: ech.row(piv) for piv in ech.basis} == rows
    assert [ech.reduce(vec) for vec in probes] == residues
