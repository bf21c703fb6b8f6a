"""Mod-p models of the presented integral cohomology rings of the groups
P(n) of order p^n and exponent p (n = 3), with monomial bases, rewriting
multiplication, automorphism actions, fixed subrings, and named
restriction maps to rank-two elementary abelian subgroups.

Monomials are tuples (z, a, b, mu, nu, chi) standing for
zeta^z alpha^a beta^b mu^mu nu^nu chi_chi in normal form:

  * chi > 0 excludes every other generator besides zeta;
  * nu = 1 forces b = 0 (beta nu rewrites to alpha mu);
  * mu = 1 requires a = 0 or b <= p-2;
  * mu = nu = 0 requires a = 0 or b <= p-1.

Degrees: alpha, beta = 2; mu, nu = 3; chi_i = 2i (2 <= i <= p-1,
chi_1 is absent for n = 3); zeta = 2p.  The scalar parameter lam is the
undetermined unit in mu*nu = lam*chi_3 (p > 3); for p = 3 the product
mu*nu vanishes mod 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, sub
from typing import Optional

from .exact_linalg import Echelon, _mat_det, is_prime
from .invariant_rings import (
    GradedAlgebra,
    GradedRing,
    HELD5_MATRICES,
    fixed_dims,
    fixed_subspaces,
    in_span,
    subalgebra_basis,
    subalgebra_dims,
)

Monomial = tuple  # (z, a, b, mu, nu, chi)
Element = dict    # Monomial -> scalar mod p

GENERATOR_ORDER = ("alpha", "beta", "mu", "nu", "zeta")  # plus chi_i


class RingModel(GradedRing):
    """The mod-p reduction of the presented cohomology ring of P(3).

    Generator keys are the names from generator_names()."""

    def __init__(self, p: int, lam: int = 1):
        if p < 3 or not is_prime(p):
            raise ValueError("p must be an odd prime")
        if lam % p == 0:
            raise ValueError("lam must be a unit mod p")
        super().__init__(p)
        self.lam = lam % p

    # -- monomials ----------------------------------------------------------

    def monomial_degree(self, m: Monomial) -> int:
        z, a, b, mu, nu, chi = m
        return 2 * self.p * z + 2 * (a + b + chi) + 3 * (mu + nu)

    def _monomials(self, d: int) -> list[Monomial]:
        p = self.p
        out = []
        for z in range(d // (2 * p) + 1):
            rem = d - 2 * p * z
            if rem == 0:
                out.append((z, 0, 0, 0, 0, 0))
                continue
            if rem % 2 == 0:
                j = rem // 2
                if 2 <= j <= p - 1:
                    out.append((z, 0, 0, 0, 0, j))
                for b in range(j + 1):
                    a = j - b
                    if a == 0 or b <= p - 1:
                        out.append((z, a, b, 0, 0, 0))
            else:
                if rem < 3:
                    continue
                j = (rem - 3) // 2
                out.append((z, j, 0, 0, 1, 0))
                for b in range(j + 1):
                    a = j - b
                    if a == 0 or b <= p - 2:
                        out.append((z, a, b, 1, 0, 0))
        return out

    def word(self, m: Monomial) -> list[str]:
        z, a, b, mu, nu, chi = m
        return (["zeta"] * z + ["alpha"] * a + ["beta"] * b + ["mu"] * mu
                + ["nu"] * nu + ([f"chi_{chi}"] if chi else []))

    def word_prefix(self, m: Monomial):
        z, a, b, mu, nu, chi = m
        if chi:
            return (z, a, b, mu, nu, 0), f"chi_{chi}"
        if nu:
            return (z, a, b, mu, 0, 0), "nu"
        if mu:
            return (z, a, b, 0, 0, 0), "mu"
        if b:
            return (z, a, b - 1, 0, 0, 0), "beta"
        if a:
            return (z, a - 1, 0, 0, 0, 0), "alpha"
        if z:
            return (z - 1, 0, 0, 0, 0, 0), "zeta"
        return None

    def top_generator_degree(self) -> int:
        return 2 * self.p  # zeta

    # -- elements -----------------------------------------------------------

    def one(self) -> Element:
        return {(0, 0, 0, 0, 0, 0): 1}

    def gen(self, name: str) -> Element:
        if name == "alpha":
            return {(0, 1, 0, 0, 0, 0): 1}
        if name == "beta":
            return {(0, 0, 1, 0, 0, 0): 1}
        if name == "mu":
            return {(0, 0, 0, 1, 0, 0): 1}
        if name == "nu":
            return {(0, 0, 0, 0, 1, 0): 1}
        if name == "zeta":
            return {(1, 0, 0, 0, 0, 0): 1}
        if name.startswith("chi_"):
            i = int(name[4:])
            if not 2 <= i <= self.p - 1:
                raise ValueError(f"no generator chi_{i} in this model")
            return {(0, 0, 0, 0, 0, i): 1}
        raise ValueError(f"unknown generator {name!r}")

    def generator_names(self) -> list[str]:
        return list(GENERATOR_ORDER) + \
            [f"chi_{i}" for i in range(2, self.p)]

    def mul(self, u: Element, v: Element) -> Element:
        out: Element = {}
        reduce_into = self._reduce_into
        for (z1, a1, b1, m1, n1, c1), x1 in u.items():
            for (z2, a2, b2, m2, n2, c2), x2 in v.items():
                if m1 and m2 or n1 and n2:
                    continue  # mu^2 = nu^2 = 0
                if c1 and c2:
                    chis = (c1, c2) if c1 <= c2 else (c2, c1)
                else:
                    chis = (c1 or c2,) if c1 or c2 else ()
                # moving the second mu past the first nu changes the sign
                reduce_into(out, z1 + z2, a1 + a2, b1 + b2, m1 + m2, n1 + n2,
                            chis, -x1 * x2 if n1 and m2 else x1 * x2)
        return out

    def _reduce_into(self, out: Element, z: int, a: int, b: int,
                     mu: int, nu: int, chis: tuple, coeff: int) -> None:
        """Add coeff times zeta^z alpha^a beta^b mu^mu nu^nu and the chi_i,
        i in the sorted tuple chis, to out in normal form.  Every
        rewriting rule of the presentation is applied here."""
        p = self.p
        coeff %= p
        if coeff == 0 or mu > 1 or nu > 1:
            return
        chi = 0
        if chis:
            if a or b or mu or nu:
                for c in chis:
                    if c < p - 1:
                        return  # alpha/beta/mu/nu times chi_i, i < p-1, is 0
                    # chi_(p-1) x = -alpha^(p-1) x if x has alpha, or nu and
                    # no beta or mu; otherwise -beta^(p-1) x
                    coeff = -coeff
                    if a or not (b or mu):
                        a += p - 1
                    else:
                        b += p - 1
            elif len(chis) == 2:
                if chis[0] == chis[1] == p - 1:
                    # chi_(p-1)^2 = alpha^(2p-2) + beta^(2p-2)
                    #               - alpha^(p-1) beta^(p-1)
                    for da, db, c in ((2 * p - 2, 0, coeff),
                                      (0, 2 * p - 2, coeff),
                                      (p - 1, p - 1, -coeff)):
                        self._reduce_into(out, z, da, db, 0, 0, (), c)
                return  # all other chi products are multiples of p
            else:
                chi = chis[0]
        if mu and nu:
            # mu*nu is a multiple of 3 for p = 3, and lam*chi_3 times alpha
            # or beta vanishes for p > 3
            if p == 3 or a or b:
                return
            mu = nu = 0
            chi = 3
            coeff = coeff * self.lam % p
        elif nu and b:
            a, b, mu, nu = a + 1, b - 1, 1, 0  # beta nu = alpha mu
        if a:
            # alpha beta^(p-1) mu = alpha^p mu and alpha beta^p = alpha^p
            # beta, applied k times in one step
            if mu:
                k = b // (p - 1)
            elif not nu and b >= p:
                k = (b - 1) // (p - 1)
            else:
                k = 0
            a += k * (p - 1)
            b -= k * (p - 1)
        m = (z, a, b, mu, nu, chi)
        nc = (out.get(m, 0) + coeff) % p
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)

    # -- certification ------------------------------------------------------

    def rewriting_rules(self) -> list[tuple[tuple, Element]]:
        """The presentation as rewriting rules (lead, tail): the lead an
        exponent vector over generator_names(), the tail its normal form.
        mu^2 = nu^2 = 0 are not listed: mul drops those pairs itself."""
        p = self.p
        index = {g: i for i, g in enumerate(self.generator_names())}

        def lead(*word: str) -> tuple:
            e = [0] * len(index)
            for g in word:
                e[index[g]] += 1
            return tuple(e)

        def term(c: int, a: int = 0, b: int = 0, mu: int = 0, nu: int = 0,
                 chi: int = 0) -> Element:
            return {(0, a, b, mu, nu, chi): c % p}

        top = f"chi_{p - 1}"
        rules = [
            (lead("beta", "nu"), term(1, a=1, mu=1)),
            (lead("alpha", *["beta"] * p), term(1, a=p, b=1)),
            (lead("alpha", *["beta"] * (p - 1), "mu"), term(1, a=p, mu=1)),
            (lead("mu", "nu"), term(self.lam, chi=3) if p > 3 else {}),
            (lead("alpha", top), term(-1, a=p)),
            (lead("beta", top), term(-1, b=p)),
            (lead("mu", top), term(-1, b=p - 1, mu=1)),
            (lead("nu", top), term(-1, a=p - 1, nu=1)),
            (lead(top, top), {**term(1, a=2 * p - 2), **term(1, b=2 * p - 2),
                              **term(-1, a=p - 1, b=p - 1)}),
        ]
        for i in range(2, p - 1):
            rules += [(lead(x, f"chi_{i}"), {})
                      for x in ("alpha", "beta", "mu", "nu")]
            rules += [(lead(f"chi_{i}", f"chi_{j}"), {}) for j in range(i, p)]
        return rules

    def _word_text(self, e: tuple) -> str:
        return "*".join(g if k == 1 else f"{g}^{k}"
                        for g, k in zip(self.generator_names(), e) if k)

    def certify(self) -> None:
        """ArithmeticError unless mul is the product of rewriting_rules().
        [e] is the word of the exponent vector e multiplied out through
        mul, left to right in generator_names() order.

        1. Each lead multiplies out to its tail, which lies in the basis.
        2. The threshold box: each basis monomial u with no zeta, a <= 1
           and b <= p+1 times each generator g lands in the basis, g*u is
           u*g times the Koszul sign, and a u*g that is itself a basis
           monomial comes back unchanged.
        3. Each pair of rules whose leads share a generator, tails not
           both zero, reduces the lcm L of the leads both ways to one
           basis element: tail*[L - lead], signed when a mu of L - lead
           moves past the lead's nu.  Each lead holding mu (or nu) has a
           tail that mu (or nu) kills.

        By Bergman's diamond lemma (Adv. Math. 29, 1978), parts 1 and 3
        make the rules' product associative and graded-commutative in
        every degree.  The box holds every branch threshold of
        _reduce_into, so parts 1 and 2 tie its closed form to the rules;
        it runs before part 3, to name a wrong closed form at its first
        product."""
        p, mul, scale = self.p, self.mul, self.scale
        names = self.generator_names()
        gens = [self.gen(g) for g in names]
        rules = self.rewriting_rules()
        words = {(0,) * len(names): self.one()}

        def value(e: tuple) -> Element:
            v = words.get(e)
            if v is None:
                last = max(i for i, k in enumerate(e) if k)
                v = mul(value(e[:last] + (e[last] - 1,) + e[last + 1:]),
                        gens[last])
                words[e] = v
            return v

        def in_basis(u: Element) -> Element:
            for m in u:
                self.index_of(m)  # ArithmeticError outside the basis
            return u

        for lead, tail in rules:
            got = value(lead)
            if got != in_basis(tail):
                raise ArithmeticError(f"the rule {self._word_text(lead)} -> "
                                      f"{tail} fails: mul gives {got}")

        monos = [next(iter(y)) for y in gens]
        degrees = [self.monomial_degree(gm) for gm in monos]
        index = self._index_cache
        for d in range(4 * p + 6):
            self.basis(d)  # every degree a box product reaches
        for d in range(2 * p + 6):
            for u in self.basis(d):
                if u[0] or u[1] > 1 or u[2] > p + 1:
                    continue
                x = {u: 1}
                for g, y, gm, dg in zip(names, gens, monos, degrees):
                    here = index[d + dg]
                    xy = mul(x, y)
                    if not here.keys() >= xy.keys():
                        in_basis(xy)
                    if mul(y, x) != (scale(xy, -1) if d & dg & 1 else xy):
                        raise ArithmeticError(
                            f"graded commutativity fails on {u} and {g}")
                    if u[5] and gm[5]:
                        continue  # two chi: no basis monomial
                    m = tuple(map(add, u, gm))
                    if m in here and xy != {m: 1}:
                        raise ArithmeticError(
                            f"mul({u}, {g}) = {xy} rewrites the basis "
                            f"monomial {m}")

        mu, nu = names.index("mu"), names.index("nu")
        having = [[r for r, (lead, _) in enumerate(rules) if lead[i]]
                  for i in range(len(names))]
        pairs = {(min(r, s), max(r, s))
                 for r, (lead, tail) in enumerate(rules) if tail
                 for i, k in enumerate(lead) if k
                 for s in having[i] if s != r}
        for r, s in sorted(pairs):
            lcm = tuple(map(max, rules[r][0], rules[s][0]))
            ways = []
            for lead, tail in (rules[r], rules[s]):
                c = tuple(map(sub, lcm, lead))
                ways.append(scale(mul(tail, value(c)),
                                  -1 if lead[nu] and c[mu] else 1))
            if ways[0] != in_basis(ways[1]):
                raise ArithmeticError(
                    f"the overlap {self._word_text(lcm)} resolves to "
                    f"{ways[0]} and to {ways[1]}")
        for lead, tail in rules:
            for i in (mu, nu):
                if lead[i] and mul(tail, gens[i]):
                    raise ArithmeticError(
                        f"{self._word_text(lead)} -> {tail} does not vanish "
                        f"times {names[i]}")

    def relation_checks(self, images: Optional[dict] = None,
                        target: Optional[GradedRing] = None
                        ) -> list[tuple[str, bool]]:
        """Each defining relation, and graded commutativity of each pair of
        generators, evaluated on the generator images in target: by
        default the generators in the model itself.  The model is a
        presentation of the ring, so images extend to a ring map exactly
        when every check holds."""
        T = self if target is None else target
        names = self.generator_names()
        g = images or {name: self.gen(name) for name in names}
        p, mul, sc = self.p, T.mul, T.scale
        top = f"chi_{p - 1}"
        # x^(p-1) and x^p of alpha and beta, once: x^p is x^(p-1) * x as
        # T.power builds it
        a1, b1 = T.power(g["alpha"], p - 1), T.power(g["beta"], p - 1)
        ap, bp = mul(a1, g["alpha"]), mul(b1, g["beta"])
        checks = [
            ("alpha*mu = beta*nu",
             mul(g["alpha"], g["mu"]) == mul(g["beta"], g["nu"])),
            ("alpha^p*beta = beta^p*alpha",
             mul(ap, g["beta"]) == mul(bp, g["alpha"])),
            ("alpha^p*mu = beta^p*nu",
             mul(ap, g["mu"]) == mul(bp, g["nu"])),
            ("mu^2 = 0", mul(g["mu"], g["mu"]) == {}),
            ("nu^2 = 0", mul(g["nu"], g["nu"]) == {}),
        ]
        for x in ("alpha", "beta", "mu", "nu"):
            checks += [(f"{x}*chi_{i} = 0", mul(g[x], g[f"chi_{i}"]) == {})
                       for i in range(2, p - 1)]
        for x, xp in (("alpha", ap), ("beta", bp)):
            checks.append((f"{x}*{top} = -{x}^p",
                           mul(g[x], g[top]) == sc(xp, -1)))
        for x, other, power in (("mu", "beta", b1), ("nu", "alpha", a1)):
            checks.append(
                (f"{x}*{top} = -{other}^(p-1)*{x}", mul(g[x], g[top])
                 == sc(mul(power, g[x]), -1)))
        checks += [(f"chi_{i}*chi_{j} = 0",
                    mul(g[f"chi_{i}"], g[f"chi_{j}"]) == {})
                   for i in range(2, p - 1) for j in range(i, p)]
        checks.append(("chi_(p-1)^2 relation", mul(g[top], g[top]) == T.add(
            T.add(mul(a1, a1), mul(b1, b1)), sc(mul(a1, b1), -1))))
        mn = mul(g["mu"], g["nu"])
        if p == 3:
            checks.append(("mu*nu = 0 (p=3)", mn == {}))
        else:
            checks.append(("mu*nu = lam*chi_3",
                           mn == sc(g["chi_3"], self.lam)))
        for i, x in enumerate(names):
            for y in names[i + 1:]:
                odd = {x, y} == {"mu", "nu"}  # the one pair of odd degrees
                checks.append((f"{x}*{y} = {'-' * odd}{y}*{x}",
                               mul(g[x], g[y])
                               == sc(mul(g[y], g[x]), -1 if odd else 1)))
        return checks

    def require_relations(self, images: Optional[dict] = None,
                          target: Optional[GradedRing] = None,
                          what: str = "the model") -> None:
        """ArithmeticError naming each failed check of relation_checks."""
        bad = [name for name, ok in self.relation_checks(images, target)
               if not ok]
        if bad:
            raise ArithmeticError(f"{what} breaks the relations {bad}")


def build_model(p: int, lam: int = 1) -> RingModel:
    model = RingModel(p, lam)
    model.certify()
    model.require_relations()
    return model


# ---------------------------------------------------------------------------
# Ring automorphisms
# ---------------------------------------------------------------------------


class _GeneratorMap:
    """A ring map out of a RingModel into target given by the images of
    the generators.  Each image must have its generator's degree
    (ValueError), and the images must satisfy the model's relation_checks
    (ArithmeticError), which makes the map a ring map.  A subclass names
    its kind (for the error message) and defines apply."""

    def __init__(self, model: RingModel, target: GradedRing,
                 images: dict[str, Element]):
        self.model = model
        self.target = target
        self.images = {name: dict(images[name])
                       for name in model.generator_names()}
        for name, img in self.images.items():
            d = target.element_degree(img)
            if d is not None and \
                    d != model.element_degree(model.gen(name)):
                raise ValueError(f"image of {name} has the wrong degree")
        model.require_relations(self.images, target, f"the {self.kind}")


class RingAutomorphism(_GeneratorMap):
    """A ring endomorphism given by images of the generators, certified
    by the relations at construction."""

    kind = "automorphism"

    def __init__(self, model: RingModel, images: dict[str, Element]):
        super().__init__(model, model, images)

    @classmethod
    def from_matrix(cls, model: RingModel, matrix,
                    j: int) -> "RingAutomorphism":
        """Images per the presented ring's automorphism rule: the matrix
        (n1 n2 / n3 n4) acts on <alpha, beta>, the central scalar j gives
        chi_i -> j^i chi_i, zeta -> j^p zeta, mu -> j(n4 mu + n3 nu),
        nu -> j(n2 mu + n1 nu).  ValueError on a singular matrix or
        j = 0 mod p."""
        p = model.p
        (n1, n2), (n3, n4) = matrix
        if (n1 * n4 - n2 * n3) % p == 0:
            raise ValueError("automorphism matrix not invertible mod p")
        if j % p == 0:
            raise ValueError("the scalar j must be a unit mod p")
        g = {name: model.gen(name) for name in model.generator_names()}
        images = {
            "alpha": model.add(model.scale(g["alpha"], n1),
                               model.scale(g["beta"], n2)),
            "beta": model.add(model.scale(g["alpha"], n3),
                              model.scale(g["beta"], n4)),
            "mu": model.scale(model.add(model.scale(g["mu"], n4),
                                        model.scale(g["nu"], n3)), j),
            "nu": model.scale(model.add(model.scale(g["mu"], n2),
                                        model.scale(g["nu"], n1)), j),
            "zeta": model.scale(g["zeta"], pow(j % p, p, p)),
        }
        for i in range(2, p):
            images[f"chi_{i}"] = model.scale(g[f"chi_{i}"],
                                             pow(j % p, i, p))
        return cls(model, images)

    def apply(self, u: Element) -> Element:
        return self.model.evaluate(u, self.images, self.target)

    def compose(self, other: "RingAutomorphism") -> "RingAutomorphism":
        """self after other."""
        images = {name: self.apply(img)
                  for name, img in other.images.items()}
        return RingAutomorphism(self.model, images)


def named_action(model: RingModel, name: str) -> list[RingAutomorphism]:
    p, g = model.p, model.gen
    if name == "C3-shear-3.4":
        return [RingAutomorphism.from_matrix(model, ((1, 0), (1, 1)), 1)]
    if name == "D8-5.10":
        if p != 3:
            raise ValueError("D8-5.10 requires p = 3")
        # reflections (determinant -1) and the rotation (determinant 1);
        # the scalar j is the determinant in every case
        return [
            RingAutomorphism.from_matrix(model, ((-1, 0), (0, 1)), -1),
            RingAutomorphism.from_matrix(model, ((1, 0), (0, -1)), -1),
            RingAutomorphism.from_matrix(model, ((0, -1), (1, 0)), 1),
        ]
    if name == "S3xC3-5.12":
        if p != 7:
            raise ValueError("S3xC3-5.12 requires p = 7")
        return [
            RingAutomorphism.from_matrix(model, ((2, 0), (0, 1)), 2),
            RingAutomorphism.from_matrix(model, ((1, 0), (0, 2)), 2),
            RingAutomorphism.from_matrix(model, ((0, 1), (1, 0)), -1),
        ]
    if name == "C4A4-5.8":
        if p != 5:
            raise ValueError("C4A4-5.8 requires p = 5")
        return [RingAutomorphism.from_matrix(model, M, _mat_det(M, 5))
                for M in HELD5_MATRICES]
    raise ValueError(f"unknown action {name!r}")


# ---------------------------------------------------------------------------
# Published fixed-ring checks
# ---------------------------------------------------------------------------


@dataclass
class FixedRingReport:
    max_degree: int
    fixed_dims: list[int]
    generated_dims: list[int]
    extra: dict = field(default_factory=dict)
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = (self.fixed_dims == self.generated_dims
                       and all(self.extra.get("span_checks", [True])))


def check_lemma_3_4(p: int, max_degree: int,
                    trivial_action: bool = False) -> FixedRingReport:
    """Even-degree fixed subring of the shear (beta -> beta + alpha,
    mu -> mu + nu) vs the closure of alpha, chi_i, zeta, and
    beta^m(beta^p - alpha^(p-1)*beta)."""
    model = build_model(p)
    if trivial_action:
        autos = [RingAutomorphism.from_matrix(model, ((1, 0), (0, 1)), 1)]
    else:
        autos = named_action(model, "C3-shear-3.4")
    alpha, beta = model.gen("alpha"), model.gen("beta")
    core = model.add(model.power(beta, p),
                     model.scale(model.mul(model.power(alpha, p - 1), beta),
                                 -1))
    gens = [alpha, model.gen("zeta")] + \
        [model.gen(f"chi_{i}") for i in range(2, p)]
    m = 0
    while 2 * (m + p) <= max_degree:
        gens.append(model.mul(model.power(beta, m), core))
        m += 1
    fixed = fixed_dims(model, [phi.images for phi in autos], max_degree)
    closed = subalgebra_dims(model, gens, max_degree)
    evens = list(range(0, max_degree + 1, 2))
    return FixedRingReport(
        max_degree,
        [fixed[d] for d in evens],
        [closed[d] for d in evens],
        extra={"degrees": evens},
    )


def _d8_span_elements(model: RingModel, d: int) -> list[Element]:
    """Spanning monomials of the D_8-fixed subring at p=3 (the published
    list, with the odd family's relative sign corrected to match the
    determinant-consistent rotation action): zeta^{2i}chi_2,
    zeta^{2i+1}(alpha^{2j+1}nu + beta^{2j+1}mu),
    zeta^{2i}(alpha^{2j}+beta^{2j}), zeta^{2i}alpha^{2j}beta^2 (j >= 1)."""
    out = []
    for i in range(d // 12 + 1):
        rem = d - 12 * i
        if rem == 4:
            out.append({(2 * i, 0, 0, 0, 0, 2): 1})
        if rem == 0:
            out.append({(2 * i, 0, 0, 0, 0, 0): 1})
        if rem % 4 == 0 and rem >= 4:
            j = rem // 4
            out.append({(2 * i, 2 * j, 0, 0, 0, 0): 1,
                        (2 * i, 0, 2 * j, 0, 0, 0): 1})
        if rem >= 8 and (rem - 4) % 4 == 0:
            j = (rem - 4) // 4
            out.append({(2 * i, 2 * j, 2, 0, 0, 0): 1})
    for i in range((d - 6) // 12 + 1) if d >= 6 else []:
        rem = d - 6 * (2 * i + 1)
        if rem >= 5 and (rem - 5) % 4 == 0:
            j = (rem - 5) // 4
            out.append({(2 * i + 1, 2 * j + 1, 0, 0, 1, 0): 1,
                        (2 * i + 1, 0, 2 * j + 1, 1, 0, 0): 1})
    return out


def check_theorem_5_10(max_degree: int = 24) -> FixedRingReport:
    """p=3: the D_8-fixed subring equals both the published monomial span
    and the closure of the five stated generators, degree by degree."""
    model = build_model(3)
    autos = named_action(model, "D8-5.10")
    fixed = list(fixed_subspaces(model, [phi.images for phi in autos],
                                 max_degree))
    g = model.gen
    a2b2 = model.add(model.power(g("alpha"), 2), model.power(g("beta"), 2))
    gens = [
        g("chi_2"),
        a2b2,
        model.mul(model.power(g("alpha"), 2), model.power(g("beta"), 2)),
        model.mul(g("zeta"),
                  model.add(model.mul(g("alpha"), g("nu")),
                            model.mul(g("beta"), g("mu")))),
        model.power(g("zeta"), 2),
    ]
    closed = subalgebra_dims(model, gens, max_degree)
    span_checks = []
    span_dims = []
    for d in range(max_degree + 1):
        span = _d8_span_elements(model, d)
        ech = Echelon(p=3)
        count = sum(1 for e in span
                    if ech.add({model.index_of(m): c for m, c in e.items()}))
        span_dims.append(count)
        # the published list is a basis in even degrees; in odd degrees it
        # is an independent subset (products of the stated generators fill
        # in the rest, as the closure comparison certifies)
        ok = all(in_span(model, fixed[d], e) for e in span)
        if d % 2 == 0:
            ok = ok and count == len(fixed[d])
        span_checks.append(ok)
    return FixedRingReport(
        max_degree, [len(b) for b in fixed], closed,
        extra={"span_dims": span_dims, "span_checks": span_checks},
    )


def check_theorem_5_12(max_degree: int = 60) -> FixedRingReport:
    """p=7: the fifteen stated elements generate the fixed subring of the
    full S_3 x C_3 action, degree by degree."""
    model = build_model(7)
    autos = named_action(model, "S3xC3-5.12")
    fixed = fixed_dims(model, [phi.images for phi in autos], max_degree)
    closed = subalgebra_dims(model, theorem_5_12_generators(model),
                             max_degree)
    return FixedRingReport(max_degree, fixed, closed)


def theorem_5_12_generators(model: RingModel) -> list[Element]:
    g, mul, pw, sc = model.gen, model.mul, model.power, model.scale
    add = model.add
    a, b, mu, nu, z = g("alpha"), g("beta"), g("mu"), g("nu"), g("zeta")
    a3 = pw(a, 3)
    b3 = pw(b, 3)
    return [
        add(a3, b3),
        mul(a3, b3),
        g("chi_6"),
        add(mul(mul(pw(a, 5), b), mu),
            sc(mul(mul(pw(a, 2), pw(b, 4)), mu), -1)),
        mul(z, mul(a, mu)),
        mul(z, g("chi_5")),
        mul(z, add(mul(pw(a, 5), pw(b, 2)),
                   sc(mul(pw(a, 2), pw(b, 5)), -1))),
        mul(pw(z, 2), mul(a, b)),
        mul(pw(z, 2), add(mul(pw(a, 2), nu),
                          sc(mul(pw(b, 2), mu), -1))),
        mul(pw(z, 2), g("chi_4")),
        mul(pw(z, 3), g("chi_3")),
        mul(pw(z, 3), add(a3, sc(b3, -1))),
        mul(pw(z, 4), g("chi_2")),
        mul(pw(z, 5), add(mul(pw(a, 2), nu), mul(pw(b, 2), mu))),
        pw(z, 6),
    ]


def theorem_5_14_generators(model: RingModel) -> list[Element]:
    g, mul, pw, sc = model.gen, model.mul, model.power, model.scale
    add = model.add
    a, b, mu, nu, z = g("alpha"), g("beta"), g("mu"), g("nu"), g("zeta")
    return [
        add(pw(a, 3), pw(b, 3)),
        add(g("chi_6"), sc(mul(pw(a, 3), pw(b, 3)), -1)),
        mul(z, mul(a, mu)),
        mul(z, g("chi_5")),
        mul(pw(z, 2), mul(a, b)),
        mul(pw(z, 2), add(mul(pw(a, 2), nu), sc(mul(pw(b, 2), mu), -1))),
        mul(pw(z, 2), g("chi_4")),
        mul(pw(z, 3), g("chi_3")),
        mul(pw(z, 3), add(pw(a, 3), sc(pw(b, 3), -1))),
        mul(pw(z, 4), g("chi_2")),
        mul(pw(z, 5), add(mul(pw(a, 2), nu), mul(pw(b, 2), mu))),
        add(pw(z, 6), sc(mul(pw(a, 39), pw(b, 3)), -1)),
    ]


# ---------------------------------------------------------------------------
# Restriction maps
# ---------------------------------------------------------------------------


class RestrictionMap(_GeneratorMap):
    """Generator-image map from a RingModel into a GradedAlgebra,
    certified by the relations at construction."""

    kind = "restriction"

    def apply(self, u: Element) -> Element:
        return self.model.evaluate(u, self.images, self.target)


def named_restriction(model: RingModel, name: str) -> RestrictionMap:
    p = model.p
    if name == "H-5.10":
        if p != 3:
            raise ValueError("H-5.10 requires p = 3")
        # target Z[beta', gamma] (x) Lambda[delta] mod 3, degrees 2, 2, 3
        T = GradedAlgebra(3, [2, 2], [3])
        bp, gam, dl = T.variable(0), T.variable(1), T.ext_variable(0)
        bp2 = T.mul(bp, bp)
        images = {
            "alpha": {},
            "beta": bp,
            "mu": dl,
            "nu": {},
            "zeta": T.add(T.power(gam, 3),
                          T.scale(T.mul(bp2, gam), -1)),
            "chi_2": T.scale(bp2, -1),
        }
        return RestrictionMap(model, T, images)
    if name == "K-5.13":
        if p != 7:
            raise ValueError("K-5.13 requires p = 7")
        # target F_7[zeta'(14), eps(2)] (x) Lambda[delta(3)]
        T = GradedAlgebra(7, [14, 2], [3])
        zp, eps, dl = T.variable(0), T.variable(1), T.ext_variable(0)
        images = {
            "alpha": eps,
            "beta": T.scale(eps, -1),
            "mu": dl,
            "nu": T.scale(dl, -1),
            "zeta": zp,
            "chi_6": T.scale(T.power(eps, 6), -1),
        }
        for i in range(2, 6):
            images[f"chi_{i}"] = {}
        return RestrictionMap(model, T, images)
    raise ValueError(f"unknown restriction {name!r}")


@dataclass
class MembershipReport:
    degrees: list[int]
    in_subring: list[bool]
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = all(self.in_subring)


def check_theorem_5_14(model: Optional[RingModel] = None) -> MembershipReport:
    """Each of the twelve stated elements restricts (via the K map) into
    the subring generated by zeta'*eps, zeta'^6 + eps^42, and delta."""
    model = model or build_model(7)
    rmap = named_restriction(model, "K-5.13")
    T = rmap.target
    zp, eps, dl = T.variable(0), T.variable(1), T.ext_variable(0)
    s_gens = [T.mul(zp, eps),
              T.add(T.power(zp, 6), T.power(eps, 42)),
              dl]
    gens = theorem_5_14_generators(model)
    top = max(model.element_degree(g) for g in gens)
    pool = subalgebra_basis(T, s_gens, top)
    degrees, hits = [], []
    for g in gens:
        d = model.element_degree(g)
        img = rmap.apply(g)
        degrees.append(d)
        hits.append(not img or in_span(T, pool[d], img))
    return MembershipReport(degrees, hits)
