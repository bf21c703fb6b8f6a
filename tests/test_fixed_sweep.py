"""The memoised fixed-subspace sweep against the plain, unmemoised maps:
every per-degree basis and every monomial image must be the same."""

from functools import partial

import pytest
from hypothesis import assume, given, settings, strategies as st

from cohomolab.cohomology_ring_models import (
    RingModel,
    named_action,
    named_restriction,
)
from cohomolab.exact_linalg import _mat_det
from cohomolab.invariant_rings import (
    GradedAlgebra,
    HELD5_MATRICES,
    MatrixAction,
    fixed_subspace,
    fixed_subspaces,
    fixed_sweep,
)


def plain_fixed(ring, maps, max_degree):
    return [fixed_subspace(ring, maps, d) for d in range(max_degree + 1)]


@st.composite
def actions(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    k = draw(st.sampled_from([2, 3]))
    entry = st.integers(0, p - 1)
    matrix = st.tuples(*[st.tuples(*[entry] * k)] * k)
    mats = draw(st.lists(matrix, min_size=1, max_size=2))
    assume(all(_mat_det(M, p) for M in mats))
    poly_degree = draw(st.sampled_from([1, 2]))
    ext = draw(st.sampled_from([(), (1,), (3,)]))
    twists = [draw(st.integers(0, p - 2)) for _ in ext]
    A = GradedAlgebra(p, [poly_degree] * k, ext)
    act = MatrixAction(A, mats, ext_twists=twists if ext else None)
    max_degree = (10 if k == 2 else 6) * poly_degree
    return A, act, max_degree


@settings(max_examples=40, deadline=None)
@given(actions())
def test_sweep_matches_plain_matrix_action(case):
    A, act, D = case
    plain = plain_fixed(A, [partial(act.apply_matrix, M)
                            for M in act.matrices], D)
    assert list(fixed_subspaces(A, act.maps, D)) == plain


@settings(max_examples=20, deadline=None)
@given(actions())
def test_memoised_images_match_plain_images(case):
    A, act, D = case
    for M in act.matrices:
        memo = {}
        for d in range(D + 1):
            for u in _one_and_many_terms(A, d):
                img = act.apply_matrix(M, u, memo)
                assert img == act.apply_matrix(M, u)
                img.clear()  # the caller owns the image, not the memo


@pytest.mark.parametrize("p,name", [(3, "C3-shear-3.4"), (5, "C3-shear-3.4"),
                                    (7, "C3-shear-3.4"), (3, "D8-5.10"),
                                    (7, "S3xC3-5.12"), (5, "C4A4-5.8")])
def test_sweep_matches_plain_ring_model_action(p, name):
    model = RingModel(p)
    autos = named_action(model, name)
    D = 4 * p
    assert list(fixed_subspaces(model, [phi.apply for phi in autos], D)) == \
        plain_fixed(model, [phi.apply for phi in autos], D)


@pytest.mark.parametrize("p,name", [(3, "H-5.10"), (7, "K-5.13")])
def test_memoised_restriction_matches_plain(p, name):
    model = RingModel(p)
    rmap = named_restriction(model, name)
    memo = {}
    for d in range(4 * p + 1):
        for u in _one_and_many_terms(model, d):
            img = rmap.apply(u, memo)
            assert img == rmap.apply(u)
            img.clear()


def _one_and_many_terms(ring, d):
    """Each degree-d basis monomial with a coefficient from 1 to p-1 in
    turn, then their sum."""
    terms = [{m: 1 + i % (ring.p - 1)} for i, m in enumerate(ring.basis(d))]
    whole = {m: c for u in terms for m, c in u.items()}
    return terms + [whole] if len(whole) > 1 else terms


@pytest.mark.parametrize("ring", [GradedAlgebra(5, [2, 2], [3]),
                                  GradedAlgebra(3, [1, 2], [1, 3]),
                                  RingModel(3), RingModel(7)])
def test_word_prefix_drops_the_last_letter(ring):
    for d in range(30):
        for m in ring.basis(d):
            split = ring.word_prefix(m)
            if split is None:
                assert d == 0 and ring.word(m) == []
                continue
            rest, g = split
            assert ring.word(rest) + [g] == ring.word(m)
            assert ring.canonical(rest) == rest
            assert d - ring.monomial_degree(rest) <= \
                ring.top_generator_degree()


def test_sweep_holds_only_prefixes_later_degrees_need():
    A = GradedAlgebra(5, [2, 2], [3])
    act = MatrixAction(A, HELD5_MATRICES, ext_twists=[1])
    top, D = A.top_generator_degree(), 40

    swept = []
    for d, maps in fixed_sweep(A, act.maps, D):
        ahead = {A.word_prefix(m)[0]
                 for e in range(max(d, 1), min(d + top, D + 1))
                 for m in A.basis(e)}
        for f in maps:
            assert all(m in ahead and A.monomial_degree(m) < d
                       for m in f.keywords["memo"])
        swept.append(fixed_subspace(A, maps, d))
    assert [len(b) for b in swept] == \
        [len(b) for b in fixed_subspaces(A, act.maps, D)]


def test_sweep_makes_one_product_per_monomial_and_map():
    class Counting(GradedAlgebra):
        products = 0

        def mul(self, u, v):
            Counting.products += 1
            return super().mul(u, v)

    A = Counting(5, [2, 2], [3])
    act = MatrixAction(A, HELD5_MATRICES, ext_twists=[1])
    Counting.products = 0
    dims = [len(b) for b in fixed_subspaces(A, act.maps, 30)]
    assert dims[15] == 1
    assert Counting.products == \
        len(act.matrices) * sum(A.dim(d) for d in range(1, 31))
