import ast
import itertools
import random
from pathlib import Path

import pytest

from cohomolab.bar_cohomology import cohomology_dims_mod_p
from cohomolab.cli import EXIT_FAILURE, EXIT_INPUT, main
from cohomolab.cohomology_ring_models import (
    RestrictionMap,
    RingAutomorphism,
    RingModel,
    build_model,
    check_lemma_3_4,
    check_theorem_5_10,
    check_theorem_5_12,
    check_theorem_5_14,
    named_action,
    named_restriction,
    theorem_5_14_generators,
)
from cohomolab.groups import build_P
from cohomolab.invariant_rings import (GradedAlgebra, fixed_dims,
                                       fixed_subspaces)
from ring_helpers import (random_monomial, reference_ring_mul,
                          reference_rules, relation_checks_oracle,
                          unsigned_ring_mul)


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------


def test_model_degree_four_component_p3():
    m = build_model(3)
    basis = m.basis(4)
    assert len(basis) == 4  # alpha^2, alpha*beta, beta^2, chi_2
    assert (0, 0, 0, 0, 0, 2) in basis


def test_mu_nu_vanishes_p3():
    m = build_model(3)
    assert m.mul(m.gen("mu"), m.gen("nu")) == {}


def test_mu_nu_is_lam_chi3_p5():
    m = build_model(5, lam=2)
    assert m.mul(m.gen("mu"), m.gen("nu")) == m.scale(m.gen("chi_3"), 2)


def test_beta_chi_products_p7():
    m = build_model(7)
    assert m.mul(m.gen("beta"), m.gen("chi_3")) == {}
    assert m.mul(m.gen("beta"), m.gen("chi_6")) == \
        m.scale(m.power(m.gen("beta"), 7), -1)


def test_relation_checks_exhaustive():
    for p in (3, 5, 7):
        m = build_model(p)
        assert all(ok for _, ok in m.relation_checks())


ACTIONS = {3: ["C3-shear-3.4", "D8-5.10"], 5: ["C3-shear-3.4", "C4A4-5.8"],
           7: ["C3-shear-3.4", "S3xC3-5.12"]}
RESTRICTIONS = {3: ["H-5.10"], 5: [], 7: ["K-5.13"]}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_relation_checks_match_the_oracle(p):
    """The checks that build each power of an image once give the names,
    order and outcomes of the oracle that rebuilds them in every check:
    on the model, every named action and restriction at p, and a map that
    fails checks (chi_(p-1) sent to 0)."""
    m = build_model(p)
    cases = [(None, None)]
    cases += [(phi.images, m) for name in ACTIONS[p]
              for phi in named_action(m, name)]
    for name in RESTRICTIONS[p]:
        r = named_restriction(m, name)
        cases.append((r.images, r.target))
    broken = {name: m.gen(name) for name in m.generator_names()}
    broken[f"chi_{p - 1}"] = {}
    cases.append((broken, m))
    for images, target in cases:
        assert m.relation_checks(images, target) == \
            relation_checks_oracle(m, images, target)
    assert not all(ok for _, ok in m.relation_checks(broken, m))


def test_straightening_rule():
    m = build_model(3)
    a, b = m.gen("alpha"), m.gen("beta")
    lhs = m.mul(m.power(a, 3), b)
    rhs = m.mul(m.power(b, 3), a)
    assert lhs == rhs != {}


@pytest.mark.parametrize("p, lam", [(3, 1), (5, 1), (5, 2), (7, 1), (7, 3)])
def test_mul_matches_the_stepwise_rules_on_every_basis_pair(p, lam):
    """Every product of two basis monomials of degree <= 4p, with
    coefficients 1 and p-1, against the rules applied step by step."""
    m = RingModel(p, lam)
    basis = [u for d in range(4 * p + 1) for u in m.basis(d)]
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            x, y = {u: 1}, {v: 1 if (i + j) % 2 else p - 1}
            assert m.mul(x, y) == reference_ring_mul(m, x, y), (u, v)


def test_graded_commutativity_on_odd_generators():
    m = build_model(7)
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
        build_model(3).gen("chi_1")


def test_dims_match_mod_p_cohomology_of_p27():
    # dim H^n(G; F_p) = model_n + model_(n+1) for n >= 1, because the
    # positive-degree integral cohomology is all exponent p here
    m = build_model(3)
    G = build_P(3, 3)
    dims = cohomology_dims_mod_p(G, 3, 4)
    assert dims[0] == 1 and m.dim(0) == 1 and m.dim(1) == 0
    for n in range(1, 5):
        assert dims[n] == m.dim(n) + m.dim(n + 1)


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------


def test_from_matrix_shear_action():
    m = build_model(3)
    phi = RingAutomorphism.from_matrix(m, ((1, 0), (1, 1)), 1)
    assert phi.apply(m.gen("alpha")) == m.gen("alpha")
    assert phi.apply(m.gen("beta")) == m.add(m.gen("alpha"), m.gen("beta"))
    assert phi.apply(m.gen("mu")) == m.add(m.gen("mu"), m.gen("nu"))
    assert phi.apply(m.gen("nu")) == m.gen("nu")
    assert phi.apply(m.gen("zeta")) == m.gen("zeta")


def test_automorphism_composition_matches_matrix_product():
    m = build_model(3)
    rot = RingAutomorphism.from_matrix(m, ((0, -1), (1, 0)), 1)
    twice = rot.compose(rot)
    direct = RingAutomorphism.from_matrix(m, ((-1, 0), (0, -1)), 1)
    rng = random.Random(5)
    for _ in range(30):
        u = random_monomial(m, rng, 12)
        assert twice.apply(u) == direct.apply(u)


def test_automorphism_rejects_bad_multiplicative_images():
    m = build_model(3)
    images = {name: m.gen(name) for name in m.generator_names()}
    images["beta"] = m.add(m.gen("beta"), m.gen("alpha"))  # not mu-shifted
    with pytest.raises(ArithmeticError):
        RingAutomorphism(m, images)


def test_named_action_validation():
    m = build_model(3)
    with pytest.raises(ValueError):
        named_action(m, "S3xC3-5.12")  # wrong prime
    with pytest.raises(ValueError):
        named_action(m, "no-such-action")


# ---------------------------------------------------------------------------
# fixed subrings
# ---------------------------------------------------------------------------


def test_identity_action_fixes_everything():
    m = build_model(3)
    ident = RingAutomorphism.from_matrix(m, ((1, 0), (0, 1)), 1)
    for d, basis in enumerate(fixed_subspaces(m, [ident.images], 10)):
        assert len(basis) == m.dim(d)


def test_fixed_dims_shrink_with_more_generators():
    m = build_model(3)
    autos = named_action(m, "D8-5.10")
    partial = fixed_dims(m, [autos[0].images], 16)
    full = fixed_dims(m, [phi.images for phi in autos], 16)
    assert all(f <= p for f, p in zip(full, partial))
    assert full != partial


def test_fixed_elements_are_fixed():
    m = build_model(3)
    autos = named_action(m, "D8-5.10")
    for basis in fixed_subspaces(m, [phi.images for phi in autos], 12):
        for v in basis:
            for phi in autos:
                assert phi.apply(v) == v


def test_fixed_subring_degree_cap():
    assert main(["ringmodel", "fixed", "--p", "3", "--action", "D8-5.10",
                 "--max-degree", str(12 * 3 + 1)]) == EXIT_INPUT


def test_c4a4_action_builds_and_has_trivial_low_degrees():
    m = build_model(5)
    autos = named_action(m, "C4A4-5.8")
    sub = list(fixed_subspaces(m, [phi.images for phi in autos], 10))
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
    m1 = build_model(7, lam=1)
    m3 = build_model(7, lam=3)
    f1 = fixed_dims(m1, [phi.images for phi in named_action(m1, "S3xC3-5.12")],
                    30)
    f3 = fixed_dims(m3, [phi.images for phi in named_action(m3, "S3xC3-5.12")],
                    30)
    assert f1 == f3


# ---------------------------------------------------------------------------
# restriction maps
# ---------------------------------------------------------------------------


def test_restriction_h_5_10_images():
    m = build_model(3)
    rmap = named_restriction(m, "H-5.10")
    T = rmap.target
    assert rmap.apply(m.gen("alpha")) == {}
    assert rmap.apply(m.gen("nu")) == {}
    bp = T.variable(0)
    assert rmap.apply(m.gen("chi_2")) == \
        T.scale(T.mul(bp, bp), -1)


def test_restriction_k_5_13_spot_images():
    m = build_model(7)
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
    m = build_model(3)
    T = named_restriction(m, "H-5.10").target
    images = {name: {} for name in m.generator_names()}
    images["alpha"] = T.ext_variable(0)  # degree 3, alpha has degree 2
    with pytest.raises(ValueError, match="image of alpha"):
        RestrictionMap(m, T, images)


def test_restriction_validation():
    m = build_model(3)
    with pytest.raises(ValueError):
        named_restriction(m, "K-5.13")
    with pytest.raises(ValueError):
        named_restriction(m, "nowhere")


def test_twelve_elements_restrict_into_s():
    rep = check_theorem_5_14()
    assert rep.passed
    assert len(rep.in_subring) == 12


# ---------------------------------------------------------------------------
# the relation certificate of generator maps
# ---------------------------------------------------------------------------


def _refused(m, target, images):
    """The checks that the generator images (zero where not given) fail,
    after checking that the map is refused with each of them named."""
    full = {name: {} for name in m.generator_names()}
    full.update(images)
    bad = [name for name, ok in m.relation_checks(full, target) if not ok]
    with pytest.raises(ArithmeticError) as err:
        if target is m:
            RingAutomorphism(m, full)
        else:
            RestrictionMap(m, target, full)
    assert str(bad) in str(err.value)
    return set(bad)


def test_automorphism_mutants_that_samples_accepted():
    # 100 sampled pairs (seed 11) took both for ring maps
    m = build_model(5)
    images = {name: m.gen(name) for name in m.generator_names()}
    images["chi_3"] = m.scale(m.gen("chi_3"), 2)  # breaks mu*nu = lam*chi_3
    assert _refused(m, m, images) == {"mu*nu = lam*chi_3"}
    m = build_model(7)
    images = {name: m.gen(name) for name in m.generator_names()}
    images["chi_2"] = m.add(m.gen("chi_2"), m.power(m.gen("alpha"), 2))
    assert "alpha*chi_2 = 0" in _refused(m, m, images)


def test_restriction_refused_only_by_graded_commutativity():
    # w1*w2 = -w2*w1 although both have even degree; every relation holds
    m = build_model(3)
    T = GradedAlgebra(3, [], [2, 2])
    images = {"alpha": T.ext_variable(0), "beta": T.ext_variable(1)}
    assert _refused(m, T, images) == {"alpha*beta = beta*alpha"}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_each_relation_refuses_a_map_that_breaks_it(p):
    """Maps with most generator images zero, each breaking a few named
    relations: together they break every relation of the list."""
    m = build_model(p)
    top = f"chi_{p - 1}"
    top_sq = "chi_(p-1)^2 relation"
    mu_nu = "mu*nu = 0 (p=3)" if p == 3 else "mu*nu = lam*chi_3"
    # mu, nu -> w1, w2 in an exterior algebra: only mu*nu is wrong
    T = GradedAlgebra(p, [], [3, 3])
    assert _refused(m, T, {"mu": T.ext_variable(0),
                           "nu": T.ext_variable(1)}) == {mu_nu}
    # an odd polynomial generator squares to nonzero
    T = GradedAlgebra(p, [3])
    for x in ("mu", "nu"):
        assert _refused(m, T, {x: T.variable(0)}) == {f"{x}^2 = 0"}
    # alpha, beta -> x, y with chi_(p-1) -> 0
    T = GradedAlgebra(p, [2, 2])
    assert _refused(m, T, {"alpha": T.variable(0),
                           "beta": T.variable(1)}) == {
        "alpha^p*beta = beta^p*alpha", f"alpha*{top} = -alpha^p",
        f"beta*{top} = -beta^p", top_sq}
    # alpha, mu -> x, w with beta, nu -> 0
    T = GradedAlgebra(p, [2], [3])
    assert _refused(m, T, {"alpha": T.variable(0),
                           "mu": T.ext_variable(0)}) == {
        "alpha*mu = beta*nu", "alpha^p*mu = beta^p*nu",
        f"alpha*{top} = -alpha^p", top_sq}
    # mu or nu -> w and chi_(p-1) -> x with alpha, beta -> 0
    T = GradedAlgebra(p, [2 * p - 2], [3])
    for x, other in (("mu", "beta"), ("nu", "alpha")):
        assert _refused(m, T, {x: T.ext_variable(0),
                               top: T.variable(0)}) == {
            f"{x}*{top} = -{other}^(p-1)*{x}", top_sq}
    # chi_i -> x_i, polynomial: every chi product is wrong
    T = GradedAlgebra(p, [2 * i for i in range(2, p)])
    chis = {f"chi_{i}": T.variable(i - 2) for i in range(2, p)}
    assert _refused(m, T, chis) == {
        f"chi_{i}*chi_{j} = 0" for i in range(2, p - 1)
        for j in range(i, p)} | {top_sq} | ({mu_nu} if p > 3 else set())
    # chi_i -> chi_i + alpha^i in the model, i < p-1
    for i in range(2, p - 1):
        images = {name: m.gen(name) for name in m.generator_names()}
        images[f"chi_{i}"] = m.add(m.gen(f"chi_{i}"),
                                   m.power(m.gen("alpha"), i))
        assert _refused(m, m, images) == {
            f"{x}*chi_{i} = 0" for x in ("alpha", "beta", "mu", "nu")} | {
            f"chi_{i}*chi_{i} = 0", f"chi_{i}*{top} = 0"} | (
            {mu_nu} if i == 3 else set())


def _multiplicative(m, phi, max_degree):
    """Brute force: phi(u*v) = phi(u)*phi(v) for all basis monomials u, v
    of total degree <= max_degree."""
    images = {}
    for d in range(max_degree + 1):
        for u in m.basis(d):
            images[u] = phi.apply({u: 1})
    return all(
        phi.apply(m.mul({u: 1}, {v: 1}))
        == m.mul(images[u], images[v])
        for u in images for v in images
        if m.monomial_degree(u) + m.monomial_degree(v) <= max_degree)


def test_certificate_agrees_with_brute_force_multiplicativity(monkeypatch):
    """A seeded sample of the 1,920 maps from_matrix builds from
    (M in GL_2(5), j): the relations accept exactly those that are
    multiplicative on every basis pair up to degree 10."""
    m = build_model(5)
    pairs = [(((a, b), (c, d)), j)
             for a, b, c, d in itertools.product(range(5), repeat=4)
             if (a * d - b * c) % 5 for j in range(1, 5)]
    assert len(pairs) == 1920
    pairs = random.Random(3).sample(pairs, 100)
    accepted = []
    for M, j in pairs:
        try:
            RingAutomorphism.from_matrix(m, M, j)
            accepted.append(True)
        except ArithmeticError:
            accepted.append(False)
    monkeypatch.setattr(RingModel, "require_relations", lambda *args: None)
    brute = [_multiplicative(m, RingAutomorphism.from_matrix(m, M, j), 10)
             for M, j in pairs]
    assert accepted == brute
    assert 0 < sum(accepted) < len(accepted)


# ---------------------------------------------------------------------------
# the certificate of the multiplication
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p, lam", [(3, 1), (5, 1), (5, 2), (7, 1), (7, 3)])
def test_rules_are_the_oracle_on_their_leads(p, lam):
    """Each rule's tail is what the stepwise oracle makes of its lead, and
    every basis monomial up to degree 4p is divisible by no lead."""
    m = RingModel(p, lam)
    names = m.generator_names()
    rules = m.rewriting_rules()
    for lead, tail in rules:
        value = m.one()
        for g, k in zip(names, lead):
            for _ in range(k):
                value = reference_ring_mul(m, value, m.gen(g))
        assert value == tail, lead
    for d in range(4 * p + 1):
        for z, a, b, mu, nu, chi in m.basis(d):
            e = [a, b, mu, nu, z] + [0] * (p - 2)
            if chi:
                e[names.index(f"chi_{chi}")] = 1
            assert not any(all(map(int.__le__, lead, e))
                           for lead, _ in rules), e


def test_rules_list_every_lead_of_the_presentation():
    m = RingModel(7)
    texts = sorted(m._word_text(lead) for lead, _ in m.rewriting_rules())
    assert len(texts) == 4 + 4 * 4 + 4 + 15
    for text in ("beta*nu", "alpha*beta^7", "alpha*beta^6*mu", "mu*nu",
                 "nu*chi_6", "chi_6^2", "mu*chi_2", "chi_2*chi_5"):
        assert text in texts


@pytest.mark.parametrize("p", [3, 5, 7])
def test_certify_refuses_a_wrong_straightening_rule(monkeypatch, p):
    # alpha beta^(p-1) -> alpha^p: every relation still holds, but
    # chi_(p-1)^2 loses its alpha^(p-1) beta^(p-1) term
    monkeypatch.setattr(RingModel, "_reduce_into",
                        reference_rules(plain_shift=-1))
    m = RingModel(p)
    m.require_relations()
    with pytest.raises(ArithmeticError,
                       match=rf"the rule chi_{p - 1}\^2 -> .* fails"):
        m.certify()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_certify_refuses_a_wrong_mu_straightening(monkeypatch, p):
    # alpha beta^(p-2) mu -> alpha^p beta^(-1) mu: the random sample of
    # 500 triples missed this one; the box reaches it at its first product
    monkeypatch.setattr(RingModel, "_reduce_into",
                        reference_rules(mu_shift=-1))
    m = RingModel(p)
    m.require_relations()
    with pytest.raises(ArithmeticError,
                       match=rf"product \(0, {p}, -1, 1, 0, 0\) is not a"):
        m.certify()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_the_box_meets_a_straightening_that_skips_b_above_p(monkeypatch, p):
    # alpha^a beta^b, b > p, left as it is; the overlap of alpha beta^p
    # and beta chi_(p-1) would meet it only at b = 2p - 1, so the message
    # pins the box's reach to b = p + 1
    reduce_into = RingModel._reduce_into

    def skips(self, out, z, a, b, mu, nu, chis, coeff):
        if a and b > p and not (mu or nu or chis):
            out[(z, a, b, 0, 0, 0)] = coeff % p
        else:
            reduce_into(self, out, z, a, b, mu, nu, chis, coeff)

    monkeypatch.setattr(RingModel, "_reduce_into", skips)
    with pytest.raises(ArithmeticError,
                       match=rf"product \(0, 1, {p + 1}, 0, 0, 0\) is not"):
        RingModel(p).certify()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_certify_refuses_a_flipped_sign_in_the_top_chi_square(monkeypatch,
                                                              p):
    monkeypatch.setattr(RingModel, "_reduce_into",
                        reference_rules(top_sign=1))
    with pytest.raises(ArithmeticError,
                       match=rf"the rule chi_{p - 1}\^2 -> .* fails"):
        RingModel(p).certify()


@pytest.mark.parametrize("p", [5, 7])
def test_certify_refuses_mul_without_the_nu_mu_sign(monkeypatch, p):
    monkeypatch.setattr(RingModel, "mul", unsigned_ring_mul)
    with pytest.raises(ArithmeticError, match="graded commutativity fails"):
        RingModel(p).certify()


def test_the_nu_mu_sign_changes_no_product_at_p3():
    """Every product that moves a mu past a nu holds mu*nu, which is 0
    mod 3, so no check can refuse mul without that sign at p = 3."""
    m = RingModel(3)
    basis = [u for d in range(13) for u in m.basis(d)]
    for u in basis:
        for v in basis:
            assert unsigned_ring_mul(m, {u: 1}, {v: 1}) == m.mul({u: 1},
                                                                {v: 1})


def _with_wrong_product(u, v, wrong, both_orders=False):
    """RingModel.mul, except that u * v (and v * u) gives wrong."""
    mul = RingModel.mul
    pairs = [(u, v), (v, u)] if both_orders else [(u, v)]

    def patched(self, x, y):
        return dict(wrong) if (x, y) in pairs else mul(self, x, y)

    return patched


@pytest.mark.parametrize("p", [3, 5, 7])
def test_certify_refuses_a_wrong_tail(monkeypatch, p):
    rules = RingModel(p).rewriting_rules()
    (lead, tail), rest = rules[0], rules[1:]
    monkeypatch.setattr(RingModel, "rewriting_rules",
                        lambda self: [(lead, {**tail, (1, 0, 0, 0, 0, 0): 1})]
                        + rest)
    with pytest.raises(ArithmeticError, match=r"the rule beta\*nu -> "):
        RingModel(p).certify()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_certify_refuses_a_rewritten_basis_product(monkeypatch, p):
    # alpha * zeta -> beta * zeta, a basis monomial of the same degree
    monkeypatch.setattr(RingModel, "mul", _with_wrong_product(
        {(0, 1, 0, 0, 0, 0): 1}, {(1, 0, 0, 0, 0, 0): 1},
        {(1, 0, 1, 0, 0, 0): 1}, both_orders=True))
    with pytest.raises(ArithmeticError, match=r"mul\(\(0, 1, 0, 0, 0, 0\), "
                       r"zeta\) = .* rewrites the basis monomial"):
        RingModel(p).certify()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_certify_refuses_an_overlap_that_does_not_resolve(monkeypatch, p):
    # chi_(p-1)^2 * alpha loses a term; alpha * chi_(p-1) * chi_(p-1)
    # still gives alpha^(2p-1)
    m = RingModel(p)
    top = f"chi_{p - 1}"
    square = m.mul(m.gen(top), m.gen(top))
    monkeypatch.setattr(RingModel, "mul", _with_wrong_product(
        square, m.gen("alpha"), {(0, 2 * p - 1, 0, 0, 0, 0): 1,
                                 (0, p, p - 1, 0, 0, 0): 1}))
    with pytest.raises(ArithmeticError, match=rf"the overlap alpha\*{top}\^2"
                       " resolves to"):
        RingModel(p).certify()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_certify_refuses_a_tail_that_mu_does_not_kill(monkeypatch, p):
    m = RingModel(p)
    tail = m.scale({(0, 0, p - 1, 1, 0, 0): 1}, -1)  # of mu * chi_(p-1)
    monkeypatch.setattr(RingModel, "mul", _with_wrong_product(
        tail, m.gen("mu"), {(0, 0, 0, 0, 0, 2): 1}))
    with pytest.raises(ArithmeticError,
                       match=rf"mu\*chi_{p - 1} -> .* does not vanish "
                       "times mu"):
        RingModel(p).certify()


def test_no_module_but_bar_cohomology_imports_random():
    # random_cochain, the one sampled routine left, serves a benchmark
    # criterion; every answer of the package is deterministic
    import cohomolab
    src = Path(cohomolab.__file__).parent
    importers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(n and n.split(".")[0] == "random" for n in names):
                importers.add(path.name)
    assert importers == {"bar_cohomology.py"}


def test_a_product_outside_the_basis_exits_1(monkeypatch, capsys):
    # alpha beta^(p-2) mu -> alpha^p beta^(-1) mu passes the relations;
    # certify meets the monomial outside the basis before the sweep does
    monkeypatch.setattr(RingModel, "_reduce_into",
                        reference_rules(mu_shift=-1))
    for p in (3, 5, 7):
        rc = main(["ringmodel", "fixed", "--p", str(p), "--action",
                   "C3-shear-3.4", "--max-degree", "30"])
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert f"(0, {p}, -1, 1, 0, 0) is not a monomial" in err
