"""Oracles for the graded rings.

RingModel's multiplication one rewriting step at a time, the oracle of
RingModel.mul: the chi indices sorted per term pair, one recursive call
per rewriting step, and the straightening as while loops.  Its two
straightening thresholds and the sign of alpha^(p-1) beta^(p-1) in
chi_(p-1)^2 can be moved to make mutants of the rules, and
unsigned_ring_mul drops the sign of moving a mu past a nu.

RingModel.relation_checks as it was first written, each power of an
image rebuilt by RingModel.power wherever a check names it: the oracle
of the checks that build each power once.

Random basis monomials, for tests that sample elements of a RingModel.

The averaging idempotent of a MatrixAction, whose rank is the fixed
dimension when p does not divide the group order.

Held5's invariant dimensions from the kernel of each degree, the oracle
of its Molien count.

The stacked (g - 1) matrix of a degree as a SparseMatrix, column by
column from the image blocks, the oracle of the columns fixed_subspace
writes packed."""

from cohomolab.exact_linalg import SparseMatrix, rank_mod_p
from cohomolab.invariant_rings import (GradedAlgebra, HELD5_MATRICES,
                                       MatrixAction, fixed_dims)


def reference_rules(mu_shift: int = 0, plain_shift: int = 0,
                    top_sign: int = -1):
    """A RingModel._reduce_into that applies one rule per call.
    alpha beta^b mu straightens while b >= p - 1 + mu_shift, alpha
    beta^b without mu or nu while b >= p + plain_shift, and chi_(p-1)^2
    is alpha^(2p-2) + beta^(2p-2) + top_sign alpha^(p-1) beta^(p-1)."""

    def reduce_into(model, out, z, a, b, mu, nu, chis, coeff):
        p = model.p
        coeff %= p
        if coeff == 0 or mu > 1 or nu > 1:
            return
        if chis and (a or b or mu or nu):
            c, rest = chis[0], chis[1:]
            if c < p - 1:
                return
            if a:
                reduce_into(model, out, z, a + p - 1, b, mu, nu, rest, -coeff)
            elif b:
                reduce_into(model, out, z, a, b + p - 1, mu, nu, rest, -coeff)
            elif mu:
                reduce_into(model, out, z, a, b + p - 1, 1, nu, rest, -coeff)
            else:
                reduce_into(model, out, z, a + p - 1, b, mu, 1, rest, -coeff)
            return
        if len(chis) >= 2:
            (c1, c2), rest = chis[:2], chis[2:]
            if c1 == p - 1 and c2 == p - 1:
                for da, db, s in ((2 * p - 2, 0, 1), (0, 2 * p - 2, 1),
                                  (p - 1, p - 1, top_sign)):
                    reduce_into(model, out, z, a + da, b + db, mu, nu,
                                rest, s * coeff)
            return
        if mu and nu:
            if p > 3:
                reduce_into(model, out, z, a, b, 0, 0, chis + (3,),
                            coeff * model.lam)
            return
        if nu and b:
            reduce_into(model, out, z, a + 1, b - 1, 1, 0, chis, coeff)
            return
        if mu:
            while a >= 1 and b >= p - 1 + mu_shift:
                a, b = a + p - 1, b - (p - 1)
        elif not nu:
            while a >= 1 and b >= p + plain_shift:
                a, b = a + p - 1, b - (p - 1)
        m = (z, a, b, mu, nu, chis[0] if chis else 0)
        nc = (out.get(m, 0) + coeff) % p
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)

    return reduce_into


REFERENCE_RULES = reference_rules()


def reference_ring_mul(model, u, v):
    out = {}
    for (z1, a1, b1, m1, n1, c1), x1 in u.items():
        for (z2, a2, b2, m2, n2, c2), x2 in v.items():
            coeff = x1 * x2
            if n1 and m2:  # move the second mu past the first nu
                coeff = -coeff
            chis = tuple(sorted(c for c in (c1, c2) if c))
            REFERENCE_RULES(model, out, z1 + z2, a1 + a2, b1 + b2,
                            m1 + m2, n1 + n2, chis, coeff)
    return {m: c for m, c in out.items() if c}


def unsigned_ring_mul(model, u, v):
    """RingModel.mul without the sign of moving the second mu past the
    first nu."""
    out = {}
    for (z1, a1, b1, m1, n1, c1), x1 in u.items():
        for (z2, a2, b2, m2, n2, c2), x2 in v.items():
            if m1 and m2 or n1 and n2:
                continue
            chis = tuple(sorted(c for c in (c1, c2) if c))
            model._reduce_into(out, z1 + z2, a1 + a2, b1 + b2, m1 + m2,
                               n1 + n2, chis, x1 * x2)
    return out


def relation_checks_oracle(model, images=None, target=None):
    """[(name, holds)] of every check of model.relation_checks, in its
    order, with alpha^p, beta^p, alpha^(p-1) and beta^(p-1) rebuilt by
    T.power in each check that uses them."""
    T = model if target is None else target
    names = model.generator_names()
    g = images or {name: model.gen(name) for name in names}
    p, mul, sc, pw = model.p, T.mul, T.scale, T.power
    top = f"chi_{p - 1}"
    checks = [
        ("alpha*mu = beta*nu",
         mul(g["alpha"], g["mu"]) == mul(g["beta"], g["nu"])),
        ("alpha^p*beta = beta^p*alpha",
         mul(pw(g["alpha"], p), g["beta"])
         == mul(pw(g["beta"], p), g["alpha"])),
        ("alpha^p*mu = beta^p*nu",
         mul(pw(g["alpha"], p), g["mu"])
         == mul(pw(g["beta"], p), g["nu"])),
        ("mu^2 = 0", mul(g["mu"], g["mu"]) == {}),
        ("nu^2 = 0", mul(g["nu"], g["nu"]) == {}),
    ]
    for x in ("alpha", "beta", "mu", "nu"):
        checks += [(f"{x}*chi_{i} = 0", mul(g[x], g[f"chi_{i}"]) == {})
                   for i in range(2, p - 1)]
    for x in ("alpha", "beta"):
        checks.append((f"{x}*{top} = -{x}^p",
                       mul(g[x], g[top]) == sc(pw(g[x], p), -1)))
    for x, other in (("mu", "beta"), ("nu", "alpha")):
        checks.append(
            (f"{x}*{top} = -{other}^(p-1)*{x}", mul(g[x], g[top])
             == sc(mul(pw(g[other], p - 1), g[x]), -1)))
    checks += [(f"chi_{i}*chi_{j} = 0",
                mul(g[f"chi_{i}"], g[f"chi_{j}"]) == {})
               for i in range(2, p - 1) for j in range(i, p)]
    a, b = pw(g["alpha"], p - 1), pw(g["beta"], p - 1)
    checks.append(("chi_(p-1)^2 relation", mul(g[top], g[top]) == T.add(
        T.add(mul(a, a), mul(b, b)), sc(mul(a, b), -1))))
    mn = mul(g["mu"], g["nu"])
    if p == 3:
        checks.append(("mu*nu = 0 (p=3)", mn == {}))
    else:
        checks.append(("mu*nu = lam*chi_3",
                       mn == sc(g["chi_3"], model.lam)))
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            odd = {x, y} == {"mu", "nu"}  # the one pair of odd degrees
            checks.append((f"{x}*{y} = {'-' * odd}{y}*{x}",
                           mul(g[x], g[y])
                           == sc(mul(g[y], g[x]), -1 if odd else 1)))
    return checks


def random_monomial(model, rng, max_degree):
    """One basis monomial of a random degree <= max_degree with a random
    nonzero coefficient, drawn from rng."""
    while True:
        d = rng.randrange(max_degree + 1)
        basis = model.basis(d)
        if basis:
            return {rng.choice(basis): rng.randrange(1, model.p)}


def action_matrix(action, M, d):
    """The matrix of one matrix of a MatrixAction on the degree-d
    component: column j holds the image of basis(d)[j]."""
    A = action.algebra
    basis = A.basis(d)
    entries = []
    for j, m in enumerate(basis):
        for mm, c in action.apply_matrix(M, {m: 1}).items():
            entries.append((A.index_of(mm), j, c))
    return SparseMatrix(len(basis), len(basis), entries, p=A.p)


def averaging_rank(algebra, action, d):
    """Rank of the averaging idempotent (1/|G|) sum of the group action on
    the degree-d component, the oracle of the fixed dimension; requires p
    coprime to the group order."""
    p = algebra.p
    group = action.group
    if len(group) % p == 0:
        raise ValueError("averaging needs p coprime to the group order")
    n = len(algebra.basis(d))
    acc = [[0] * n for _ in range(n)]
    for M in group:
        for i, j, v in action_matrix(action, M, d).entries():
            acc[i][j] = (acc[i][j] + v) % p
    inv = pow(len(group) % p, p - 2, p)
    dense = [[(v * inv) % p for v in row] for row in acc]
    return rank_mod_p(SparseMatrix.from_dense(dense, p=p))


def held5_kernel_dims(max_degree):
    """The fixed dimensions of held5's action in degrees 0..max_degree, one
    stacked (g - 1) kernel per degree."""
    A = GradedAlgebra(5, [2, 2], [3])
    act = MatrixAction(A, HELD5_MATRICES, ext_twists=[1])
    return fixed_dims(A, act.maps, max_degree)


def stacked_matrix(ring, blocks, d):
    """The stacked (g - 1) of the maps given by their image blocks (as in
    fixed_subspace) on the degree-d component, block k on rows k*n ..
    k*n + n-1, through the SparseMatrix constructor, which reduces mod p
    and drops zeros; with no blocks the n x n zero matrix."""
    basis = ring.basis(d)
    n = len(basis)
    entries = []
    for k, block in enumerate(blocks):
        for j, (m, img) in enumerate(zip(basis, block)):
            diag = dict(img)
            diag[m] = diag.get(m, 0) - 1
            entries += [(k * n + ring.index_of(mm, d), j, c)
                        for mm, c in diag.items()]
    return SparseMatrix(n * max(1, len(blocks)), n, entries, p=ring.p)
