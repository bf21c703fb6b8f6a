import random

import pytest

from cohomolab.bar_cohomology import cohomology_dims_mod_p
from cohomolab.cohomology_ring_models import (
    RestrictionMap,
    RingAutomorphism,
    RingModel,
    build_model,
    check_lemma_3_4,
    check_theorem_5_10,
    check_theorem_5_12,
    check_theorem_5_14,
    fixed_dims,
    fixed_subring,
    named_action,
    named_restriction,
    theorem_5_14_generators,
)
from cohomolab.groups import build_P


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------


def test_model_degree_four_component_p3():
    m = build_model(3, samples=100)
    basis = m.basis(4)
    assert len(basis) == 4  # alpha^2, alpha*beta, beta^2, chi_2
    assert (0, 0, 0, 0, 0, 2) in basis


def test_mu_nu_vanishes_p3():
    m = build_model(3, samples=100)
    assert m.mul(m.gen("mu"), m.gen("nu")) == {}


def test_mu_nu_is_lam_chi3_p5():
    m = build_model(5, lam=2, samples=100)
    assert m.mul(m.gen("mu"), m.gen("nu")) == m.scale(m.gen("chi_3"), 2)


def test_beta_chi_products_p7():
    m = build_model(7, samples=100)
    assert m.mul(m.gen("beta"), m.gen("chi_3")) == {}
    assert m.mul(m.gen("beta"), m.gen("chi_6")) == \
        m.scale(m.power(m.gen("beta"), 7), -1)


def test_relation_checks_exhaustive():
    for p in (3, 5, 7):
        m = build_model(p, samples=100)
        assert all(ok for _, ok in m.relation_checks())


def test_straightening_rule():
    m = build_model(3, samples=100)
    a, b = m.gen("alpha"), m.gen("beta")
    lhs = m.mul(m.power(a, 3), b)
    rhs = m.mul(m.power(b, 3), a)
    assert lhs == rhs != {}


def test_graded_commutativity_on_odd_generators():
    m = build_model(7, samples=100)
    mu, nu = m.gen("mu"), m.gen("nu")
    assert m.mul(mu, nu) == m.scale(m.mul(nu, mu), -1) != {}
    assert m.mul(mu, mu) == {}


def test_model_validation():
    with pytest.raises(ValueError):
        RingModel(4)
    with pytest.raises(ValueError):
        RingModel(9)
    with pytest.raises(ValueError):
        RingModel(5, lam=5)
    with pytest.raises(ValueError):
        RingModel(3, n=4)
    with pytest.raises(ValueError):
        build_model(3).gen("chi_1")


def test_dims_match_mod_p_cohomology_of_p27():
    # dim H^n(G; F_p) = model_n + model_(n+1) for n >= 1, because the
    # positive-degree integral cohomology is all exponent p here
    m = build_model(3, samples=100)
    G = build_P(3, 3)
    dims = cohomology_dims_mod_p(G, 3, 4)
    assert dims[0] == 1 and m.dim(0) == 1 and m.dim(1) == 0
    for n in range(1, 5):
        assert dims[n] == m.dim(n) + m.dim(n + 1)


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------


def test_from_matrix_shear_action():
    m = build_model(3, samples=100)
    phi = RingAutomorphism.from_matrix(m, ((1, 0), (1, 1)), 1)
    assert phi.apply(m.gen("alpha")) == m.gen("alpha")
    assert phi.apply(m.gen("beta")) == m.add(m.gen("alpha"), m.gen("beta"))
    assert phi.apply(m.gen("mu")) == m.add(m.gen("mu"), m.gen("nu"))
    assert phi.apply(m.gen("nu")) == m.gen("nu")
    assert phi.apply(m.gen("zeta")) == m.gen("zeta")


def test_automorphism_composition_matches_matrix_product():
    m = build_model(3, samples=50)
    rot = RingAutomorphism.from_matrix(m, ((0, -1), (1, 0)), 1)
    twice = rot.compose(rot)
    direct = RingAutomorphism.from_matrix(m, ((-1, 0), (0, -1)), 1)
    rng = random.Random(5)
    for _ in range(30):
        u = m.random_monomial(rng, 12)
        assert twice.apply(u) == direct.apply(u)


def test_automorphism_rejects_bad_multiplicative_images():
    m = build_model(3, samples=50)
    images = {name: m.gen(name) for name in m.generator_names()}
    images["beta"] = m.add(m.gen("beta"), m.gen("alpha"))  # not mu-shifted
    with pytest.raises(ArithmeticError):
        RingAutomorphism(m, images)


def test_named_action_validation():
    m = build_model(3, samples=50)
    with pytest.raises(ValueError):
        named_action(m, "S3xC3-5.12")  # wrong prime
    with pytest.raises(ValueError):
        named_action(m, "no-such-action")


# ---------------------------------------------------------------------------
# fixed subrings
# ---------------------------------------------------------------------------


def test_identity_action_fixes_everything():
    m = build_model(3, samples=50)
    ident = RingAutomorphism.from_matrix(m, ((1, 0), (0, 1)), 1)
    for d, basis in enumerate(fixed_subring(m, [ident], 10)):
        assert len(basis) == m.dim(d)


def test_fixed_dims_shrink_with_more_generators():
    m = build_model(3, samples=50)
    autos = named_action(m, "D8-5.10")
    partial = fixed_dims(m, autos[:1], 16)
    full = fixed_dims(m, autos, 16)
    assert all(f <= p for f, p in zip(full, partial))
    assert full != partial


def test_fixed_elements_are_fixed():
    m = build_model(3, samples=50)
    autos = named_action(m, "D8-5.10")
    for basis in fixed_subring(m, autos, 12):
        for v in basis:
            for phi in autos:
                assert phi.apply(v) == v


def test_fixed_subring_degree_cap():
    m = build_model(3, samples=50)
    with pytest.raises(ValueError):
        fixed_subring(m, named_action(m, "D8-5.10"), 12 * 3 + 1)


def test_c4a4_action_builds_and_has_trivial_low_degrees():
    m = build_model(5, samples=100)
    autos = named_action(m, "C4A4-5.8")
    sub = fixed_subring(m, autos, 10)
    # every determinant squares to 1 mod 5, so chi_2 and chi_4 survive
    assert [len(b) for b in sub[:9]] == [1, 0, 0, 0, 1, 0, 0, 0, 1]
    assert sub[4] == [{(0, 0, 0, 0, 0, 2): 1}]
    for basis in sub:
        for v in basis:
            for phi in autos:
                assert phi.apply(v) == v


# ---------------------------------------------------------------------------
# published fixed-ring checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,D", [(3, 30), (5, 40)])
def test_shear_fixed_subring(p, D):
    rep = check_lemma_3_4(p, D)
    assert rep.passed
    assert rep.fixed_dims == rep.generated_dims


def test_shear_negative_control_trivial_action():
    rep = check_lemma_3_4(3, 20, trivial_action=True)
    assert not rep.passed
    assert any(f > g for f, g in zip(rep.fixed_dims, rep.generated_dims))


def test_d8_fixed_subring():
    rep = check_theorem_5_10(24)
    assert rep.passed
    assert rep.fixed_dims == rep.generated_dims
    assert all(rep.extra["span_checks"])
    # even-degree span dims coincide with the fixed dims exactly
    evens = [rep.extra["span_dims"][d] for d in range(0, 25, 2)]
    assert evens == [rep.fixed_dims[d] for d in range(0, 25, 2)]


def test_s3xc3_fixed_subring():
    rep = check_theorem_5_12(60)
    assert rep.passed
    assert rep.fixed_dims == rep.generated_dims


def test_fixed_subring_independent_of_lam():
    m1 = build_model(7, lam=1, samples=50)
    m3 = build_model(7, lam=3, samples=50)
    f1 = fixed_dims(m1, named_action(m1, "S3xC3-5.12"), 30)
    f3 = fixed_dims(m3, named_action(m3, "S3xC3-5.12"), 30)
    assert f1 == f3


# ---------------------------------------------------------------------------
# restriction maps
# ---------------------------------------------------------------------------


def test_restriction_h_5_10_images():
    m = build_model(3, samples=50)
    rmap = named_restriction(m, "H-5.10")
    T = rmap.target
    assert rmap.apply(m.gen("alpha")) == {}
    assert rmap.apply(m.gen("nu")) == {}
    bp = T.variable(0)
    assert rmap.apply(m.gen("chi_2")) == \
        T.scale(T.mul(bp, bp), -1)


def test_restriction_k_5_13_spot_images():
    m = build_model(7, samples=50)
    rmap = named_restriction(m, "K-5.13")
    T = rmap.target
    zp, eps = T.variable(0), T.variable(1)
    g = m.gen
    z2ab = m.mul(m.power(g("zeta"), 2), m.mul(g("alpha"), g("beta")))
    expected = T.scale(T.mul(T.power(zp, 2), T.power(eps, 2)), -1)
    assert rmap.apply(z2ab) == expected
    a3b3 = m.add(m.power(g("alpha"), 3), m.power(g("beta"), 3))
    assert rmap.apply(a3b3) == {}
    gens = theorem_5_14_generators(m)
    last = gens[-1]  # zeta^6 - alpha^39 beta^3
    assert rmap.apply(last) == \
        T.add(T.power(zp, 6), T.power(eps, 42))


def test_restriction_rejects_wrong_degree_image():
    m = build_model(3, samples=50)
    T = named_restriction(m, "H-5.10").target
    images = {name: {} for name in m.generator_names()}
    images["alpha"] = T.ext_variable(0)  # degree 3, alpha has degree 2
    with pytest.raises(ValueError, match="image of alpha"):
        RestrictionMap(m, T, images, check=False)


def test_restriction_validation():
    m = build_model(3, samples=50)
    with pytest.raises(ValueError):
        named_restriction(m, "K-5.13")
    with pytest.raises(ValueError):
        named_restriction(m, "nowhere")


def test_twelve_elements_restrict_into_s():
    rep = check_theorem_5_14()
    assert rep.passed
    assert len(rep.in_subring) == 12
