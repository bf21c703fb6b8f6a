"""The fixed-subspace sweep against the plain maps: every image block the
sweep builds from generator images, and every per-degree basis, must be
what the plain left-to-right evaluation of each monomial gives."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from cohomolab.cohomology_ring_models import (
    RingAutomorphism,
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


def plain_blocks(ring, apply_maps, d):
    """The image of each basis monomial under each map, multiplied out
    word by word."""
    return [[f({m: 1}) for m in ring.basis(d)] for f in apply_maps]


def plain_fixed(ring, apply_maps, max_degree):
    return [fixed_subspace(ring, plain_blocks(ring, apply_maps, d), d)
            for d in range(max_degree + 1)]


def matrix_maps(act):
    return [lambda u, M=M: act.apply_matrix(M, u) for M in act.matrices]


@st.composite
def actions(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    k = draw(st.sampled_from([2, 3]))
    entry = st.integers(0, p - 1)
    matrix = st.tuples(*[st.tuples(*[entry] * k)] * k)
    mats = draw(st.lists(matrix, min_size=1, max_size=2))
    assume(all(_mat_det(M, p) for M in mats))
    poly_degree = draw(st.sampled_from([1, 2]))
    ext = draw(st.sampled_from([(), (1,), (3,), (1, 3)]))
    twists = [draw(st.integers(0, p - 2)) for _ in ext]
    A = GradedAlgebra(p, [poly_degree] * k, ext)
    act = MatrixAction(A, mats, ext_twists=twists if ext else None)
    max_degree = (10 if k == 2 else 6) * poly_degree
    return A, act, max_degree


class _Unchecked(RingAutomorphism):
    """The images from_matrix builds, with no relation check: the sweep and
    the plain word-by-word route make the same products on any generator
    images, so any unit j may go with any matrix."""

    def __init__(self, model, images):
        self.model = self.target = model
        self.images = images


@st.composite
def ring_model_actions(draw):
    """Custom automorphism images of the P(3) ring model: M in GL_2(p) and
    a unit j, p = 3, 5, 7, up to degree 4p."""
    p = draw(st.sampled_from([3, 5, 7]))
    model = RingModel(p)
    entry = st.integers(0, p - 1)
    autos = []
    for _ in range(draw(st.integers(1, 3))):
        M = draw(st.tuples(st.tuples(entry, entry), st.tuples(entry, entry)))
        assume(_mat_det(M, p))
        autos.append(_Unchecked.from_matrix(model, M,
                                            draw(st.integers(1, p - 1))))
    return model, autos, 4 * p


@settings(max_examples=40, deadline=None)
@given(actions())
def test_sweep_matches_plain_matrix_action(case):
    A, act, D = case
    assert list(fixed_subspaces(A, act.maps, D)) == \
        plain_fixed(A, matrix_maps(act), D)


@settings(max_examples=30, deadline=None)
@given(actions())
def test_sweep_images_match_plain_matrix_images(case):
    A, act, D = case
    for d, blocks in fixed_sweep(A, act.maps, D):
        assert blocks == plain_blocks(A, matrix_maps(act), d)


@settings(max_examples=30, deadline=None)
@given(ring_model_actions())
def test_sweep_images_match_plain_ring_model_images(case):
    model, autos, D = case
    for d, blocks in fixed_sweep(model, [phi.images for phi in autos], D):
        assert blocks == plain_blocks(model, [phi.apply for phi in autos], d)


@pytest.mark.parametrize("p,name", [(3, "C3-shear-3.4"), (5, "C3-shear-3.4"),
                                    (7, "C3-shear-3.4"), (3, "D8-5.10"),
                                    (7, "S3xC3-5.12"), (5, "C4A4-5.8")])
def test_sweep_matches_plain_ring_model_action(p, name):
    model = RingModel(p)
    autos = named_action(model, name)
    D = 4 * p
    assert list(fixed_subspaces(model, [phi.images for phi in autos], D)) \
        == plain_fixed(model, [phi.apply for phi in autos], D)


@pytest.mark.parametrize("p,name", [(3, "H-5.10"), (7, "K-5.13")])
def test_memoised_restriction_matches_plain(p, name):
    """Restriction images memoised by word prefix (the image of the prefix
    times the image of the last letter, in the target) against apply, on
    one-term and many-term elements; an image apply hands back is the
    caller's to change."""
    model = RingModel(p)
    rmap = named_restriction(model, name)
    T = rmap.target
    memo = {0: [T.one()]}
    for d in range(4 * p + 1):
        if d:
            memo[d] = [T.mul(memo[e][i], rmap.images[g])
                       for e, i, g in model.prefixes(d)]
        for u in _one_and_many_terms(model, d):
            want = {}
            for m, c in u.items():
                want = T.add(want, T.scale(memo[d][model.index_of(m, d)], c))
            img = rmap.apply(u)
            assert img == want
            img.clear()
            assert rmap.apply(u) == want


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
        if d:
            assert len(ring.prefixes(d)) == ring.dim(d)
        for j, m in enumerate(ring.basis(d)):
            split = ring.word_prefix(m)
            if split is None:
                assert d == 0 and ring.word(m) == []
                continue
            rest, g = split
            assert ring.word(rest) + [g] == ring.word(m)
            e, i, letter = ring.prefixes(d)[j]
            assert (ring.basis(e)[i], letter) == (rest, g)
            assert 0 < d - e <= ring.top_generator_degree()


@pytest.mark.parametrize("ring,maps", [
    (GradedAlgebra(5, [2, 2], [3]),
     MatrixAction(GradedAlgebra(5, [2, 2], [3]), HELD5_MATRICES,
                  ext_twists=[1]).maps),
    (RingModel(7), [phi.images for phi in
                    named_action(RingModel(7), "S3xC3-5.12")]),
], ids=["held5", "S3xC3-5.12"])
def test_sweep_keeps_a_degree_while_a_later_degree_reads_it(ring, maps):
    D = 40
    reads = {d: {e for e, _, _ in ring.prefixes(d)}
             for d in range(1, D + 1)}
    sweep = fixed_sweep(ring, maps, D)
    yielded = {}
    for d, blocks in sweep:
        yielded[d] = blocks
        # the images held when degree d is handed out: each earlier
        # degree that degree d or a later one reads, and no other
        wanted = {e for e in range(d)
                  if any(e in reads[r] for r in range(d, D + 1))}
        held = sweep.gi_frame.f_locals["held"]
        assert set(held) == wanted
        assert all(held[e] is yielded[e] for e in held)


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
