"""Acceptance criteria 4 and 5, which have no CLI subcommand, as library
calls through the public bar_cohomology functions.  Each returns a
report whose content does not depend on the random draws, so it can be
compared with a stored reference."""

from __future__ import annotations

import random


def criterion4(rng: random.Random) -> dict:
    """Cup Leibniz rule, cup-1 coboundary formula and Hirsch identity on
    34 random triples of cochains on each of C_2, C_3 and S_3."""
    from cohomolab import bar_cohomology as bc
    from cohomolab.groups import build_cyclic, symmetric_3

    checks = failures = 0
    for G in (build_cyclic(2), build_cyclic(3), symmetric_3()):
        for _ in range(34):
            p, q, r = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
            u = bc.random_cochain(G, p, 5, rng)
            v = bc.random_cochain(G, q, 5, rng)
            w = bc.random_cochain(G, r, 5, rng)
            sp = -1 if p % 2 else 1
            leibniz = bc.coboundary(bc.cup(u, v)) == \
                bc.cup(bc.coboundary(u), v) + bc.cup(u, bc.coboundary(v)).scale(sp)
            cup1 = bc.coboundary(bc.cup1(u, v)) == (
                bc.cup1(bc.coboundary(u), v).scale(-1)
                + bc.cup1(u, bc.coboundary(v)).scale(-sp)
                + bc.cup(u, v)
                + bc.cup(v, u).scale(1 if (p * q) % 2 else -1))
            hirsch = bc.cup1(bc.cup(u, v), w) == (
                bc.cup(u, bc.cup1(v, w)).scale(sp)
                + bc.cup(bc.cup1(u, w), v).scale(-1 if (q * r) % 2 else 1))
            checks += 3
            failures += (not leibniz) + (not cup1) + (not hirsch)
    return {"identities_checked": checks, "failures": failures,
            "passed": failures == 0}


def criterion5(rng: random.Random) -> dict:
    """Corestriction from C_3 < C_3 x C_3 vanishes on H^1..H^4, and
    Cor . Res is multiplication by the index on H^1..H^3."""
    from cohomolab import bar_cohomology as bc
    from cohomolab.groups import build_cyclic, build_product, subgroup_closure

    V = build_product([build_cyclic(3), build_cyclic(3)])
    H = subgroup_closure(V, [3])
    vanishing = []
    for n in (1, 2, 3, 4):
        vanishing.append(all(bc.is_coboundary(bc.transfer(c, H))
                             for c in bc.class_basis(H.as_group(), n, 3)))
    index_checks = []
    for n in (1, 2, 3):
        basis = bc.class_basis(V, n, 3)
        for _ in range(3):
            c = basis[0].scale(0)
            for z in basis:
                c = c + z.scale(rng.randrange(3))
            if not bc.is_cocycle(c):
                index_checks.append(False)
                continue
            cr = bc.transfer(bc.restrict(c, H), H)
            index_checks.append(bc.class_equal(cr, c.scale(H.index)))
    return {"cor_vanishes": vanishing, "cor_res_is_index": index_checks,
            "passed": all(vanishing) and all(index_checks)}
