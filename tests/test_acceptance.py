"""The acceptance gate: one test per binding criterion, each emitting a
single pass/fail line (shown with pytest -v via the test name, and
printed explicitly for -s runs) and asserting its time budget."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from cohomolab import bar_cohomology as bc
from cohomolab import davis as dv
from cohomolab.char_chern import pc
from cohomolab.cohomology_ring_models import (
    build_model,
    check_lemma_3_4,
    check_theorem_5_10,
    check_theorem_5_12,
    check_theorem_5_14,
)
from cohomolab.groups import (
    build_G_a1,
    build_P,
    build_cyclic,
    build_product,
    singer_group,
    subgroup_closure,
)
from cohomolab.invariant_rings import dickson_check, held_5_part_check
from complex_helpers import (euler_characteristic, full_simplex,
                             simplex_boundary)

RNG = random.Random(2024)


@contextmanager
def budget(seconds, label):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed <= seconds, f"{label}: {elapsed:.1f}s over {seconds}s"
    print(f"PASS {label} ({elapsed:.1f}s)")


def test_criterion_01_mod3_dimensions_of_p27():
    with budget(900, "criterion 1: mod-3 dims of the order-27 exponent-3 "
                     "group are [2,4,6,7] in degrees 1-4"):
        dims = bc.cohomology_dims_mod_p(build_P(3, 3), 3, 4)
        assert dims[1:] == [2, 4, 6, 7]


def test_criterion_02_integral_orders_of_g21():
    with budget(1200, "criterion 2: |H^1|=1, |H^2|=27, |H^3|=9 for G(2,1) "
                      "at p=3"):
        G = build_G_a1(2, 3)
        orders = []
        for n in (1, 2, 3):
            rank, torsion = bc.integral_cohomology(G, n)
            assert rank == 0
            size = 1
            for d in torsion:
                size *= d
            orders.append(size)
        assert orders == [1, 27, 9]


def test_criterion_03_triple_massey_products():
    ys = {}
    for p in (3, 5, 7):
        G = build_cyclic(p)
        ys[p] = bc.Cochain(G, 1, {(r,): r for r in range(1, p)}, p)
    with budget(1, "criterion 3: <y,y,y> = beta(y) on C_3, = 0 on C_5 and "
                   "C_7, zero indeterminacy"):
        for p, y in ys.items():
            res = bc.massey(y, y, y)
            assert res.indeterminacy == []
            if p == 3:
                assert res.equals_cochain(bc.bockstein(y))
                assert not res.is_zero_modulo_indeterminacy()
            else:
                assert res.is_zero_modulo_indeterminacy()


def test_criterion_04_cochain_identities():
    from cohomolab.groups import symmetric_3
    groups = (build_cyclic(2), build_cyclic(3), symmetric_3())
    with budget(60, "criterion 4: cup Leibniz, cup-1 coboundary formula, "
                    "Hirsch identity on 100+ random triples each"):
        for G in groups:
            for _ in range(34):
                p = RNG.randint(1, 3)
                q = RNG.randint(1, 3)
                r = RNG.randint(1, 2)
                u = bc.random_cochain(G, p, 5, RNG)
                v = bc.random_cochain(G, q, 5, RNG)
                w = bc.random_cochain(G, r, 5, RNG)
                # Leibniz: d(uv) = du v + (-1)^p u dv
                assert bc.coboundary(bc.cup(u, v)) == \
                    bc.cup(bc.coboundary(u), v) + \
                    bc.cup(u, bc.coboundary(v)).scale(-1 if p % 2 else 1)
                # d(u cup1 v) = -du cup1 v - (-1)^p u cup1 dv
                #               + uv - (-1)^{pq} vu
                assert bc.coboundary(bc.cup1(u, v)) == (
                    bc.cup1(bc.coboundary(u), v).scale(-1)
                    + bc.cup1(u, bc.coboundary(v)).scale(
                        -1 if p % 2 == 0 else 1)
                    + bc.cup(u, v)
                    + bc.cup(v, u).scale(1 if (p * q) % 2 else -1))
                # Hirsch: (uv) cup1 w = (-1)^p u(v cup1 w)
                #                       + (-1)^{qr} (u cup1 w) v
                assert bc.cup1(bc.cup(u, v), w) == (
                    bc.cup(u, bc.cup1(v, w)).scale(-1 if p % 2 else 1)
                    + bc.cup(bc.cup1(u, w), v).scale(
                        -1 if (q * r) % 2 else 1))


def test_criterion_05_transfer():
    V = build_product([build_cyclic(3), build_cyclic(3)])
    H = subgroup_closure(V, [3])
    with budget(60, "criterion 5: Cor from C_3 < C_3 x C_3 vanishes on "
                    "H^1..H^4 and Cor.Res = [G:H] id"):
        for n in (1, 2, 3, 4):
            for c in bc.class_basis(H.as_group(), n, 3):
                assert bc.is_coboundary(bc.transfer(c, H))
        for n in (1, 2, 3):
            basis = bc.class_basis(V, n, 3)
            for _ in range(3):
                c = basis[0].scale(0)
                for z in basis:
                    c = c + z.scale(RNG.randrange(3))
                if not bc.is_cocycle(c):
                    continue
                cr = bc.transfer(bc.restrict(c, H), H)
                assert bc.class_equal(cr, c.scale(H.index))


def test_criterion_06_dickson():
    with budget(120, "criterion 6: Dickson fixed dims equal free-generator "
                     "dims for SL_2 and GL_2 at p=3 (D=24), p=5 (D=30)"):
        assert dickson_check(3, 24).passed
        assert dickson_check(5, 30).passed


def test_criterion_07_order48_fixed_ring():
    with budget(300, "criterion 7: order-48 subgroup of GL_2(5) fixed ring "
                     "matches the presented ring to degree 120"):
        rep = held_5_part_check(120)
        assert rep.passed
        assert rep.group_order == 48
        assert rep.relation_used == "gamma^2 = 3*(beta^2 + alpha^3)"


def test_criterion_08_d8_fixed_subring():
    with budget(120, "criterion 8: D_8-fixed subring of the p=3 model "
                     "matches span and five generators to degree 24"):
        rep = check_theorem_5_10(24)
        assert rep.passed
        assert all(rep.extra["span_checks"])


def test_criterion_09_p7_fixed_subring_and_restriction():
    with budget(600, "criterion 9: fifteen elements generate the p=7 fixed "
                     "subring to degree 60; twelve restrict into S"):
        rep = check_theorem_5_12(60)
        assert rep.passed
        mem = check_theorem_5_14()
        assert mem.passed and len(mem.in_subring) == 12


def test_criterion_10_shear_fixed_ring():
    with budget(180, "criterion 10: shear fixed ring reproduced for p=3 "
                     "(D=30) and p=5 (D=40)"):
        assert check_lemma_3_4(3, 30).passed
        assert check_lemma_3_4(5, 40).passed


def test_criterion_11_pc_invariant():
    with budget(120, "criterion 11: pc values 2, 2, 6, 10, 12 and the "
                     "divisibility bound"):
        cases = [
            (build_cyclic(9), 3, 2, 2),
            (build_product([build_cyclic(3), build_cyclic(3)]), 3, 2, 2),
            (build_P(3, 3), 3, 3, 6),
            (build_P(3, 5), 5, 3, 10),
            (singer_group(3, 2), 3, 2, 12),
        ]
        for G, p, n, want in cases:
            value = pc(G, p)
            assert value == want
            assert (2 * (p - 1) * p ** (n - 1)) % value == 0


def test_criterion_12_davis_euler_characteristics():
    with budget(300, "criterion 12: chiswell = orbifold = 2^-k chi(quotient) "
                     "on six complexes; positive chi; S^2-link 3-manifold"):
        cases = [
            dv.SimplicialComplex(1, [[0]]),
            full_simplex(2),
            dv.SimplicialComplex(2, [[0], [1]]),
            full_simplex(3),
            dv.barycentric_subdivision(simplex_boundary(4)),
            dv.barycentric_subdivision(dv.moore_complex(2)),
        ]
        for K in cases:
            q = dv.davis_quotient(dv.racg_from_complex(K),
                                  dv.torsion_free_coloring(K))
            assert q.euler.passed  # all three values equal, exactly
            assert q.euler.chi_chiswell == dv.chiswell_chi(K)
            assert q.euler.chi_orbifold == dv.orbifold_chi(K)
        four_sphere = dv.barycentric_subdivision(simplex_boundary(5))
        assert dv.chiswell_chi(four_sphere) == \
            dv.orbifold_chi(four_sphere) > 0
        K = dv.barycentric_subdivision(simplex_boundary(4))
        q = dv.davis_quotient(dv.racg_from_complex(K),
                              dv.torsion_free_coloring(K))
        assert euler_characteristic(q.complex) == 0
        assert q.euler.chi_quotient_over_index == Fraction(0)
        sphere = [dv.HomologyGroup(1, ()), dv.HomologyGroup(0, ()),
                  dv.HomologyGroup(1, ())]
        for v in range(q.complex.n_vertices):
            assert dv.homology(dv.link(q.complex, [v])) == sphere


def test_criterion_13_bestvina():
    with budget(900, "criterion 13: Bestvina quotients for n=2,3,4 pass "
                     "(H_0=Z, vanishing above 3, H^3 torsion divides n)"):
        for n in (2, 3, 4):
            rep = dv.bestvina_check(n)
            assert rep.passed
            assert rep.h0_is_z and rep.vanishing_above_three
            assert n % rep.torsion_exponent == 0
            assert rep.rank_h3_zero
