"""Exact character theory over the cyclotomic integers and the pc
invariant.

Characters are computed by monomial induction: every 1-dimensional
character of a source subgroup H, read off H/H', is induced up and the
norm-1 results are kept.  The sources are one closure of <=2 elements per
conjugacy class, up to repeats, as conjugate sources induce the same
characters (_subgroup_sources).  Completeness is certified
three ways: as many irreducibles as conjugacy classes, the sum-of-squares
count, and exact pairwise orthonormality, so the method is self-checking
on monomial groups.  Every value is a sum of roots of unity, so all
arithmetic stays in Z[zeta_N]; the only divisions (by |G| in inner
products, by p in eigenvalue multiplicities) must come out as exact
integers or the certificate fails.

A class function holds one value per conjugacy class, and the induction
formula is evaluated at the class representatives only.  Inner products
and eigenvalue multiplicities add raw coefficient lists and reduce mod
Phi_N once per result, not once per term.

pc(G) is twice the least common multiple, over conjugacy classes of
order-p subgroups C <= G, of the gcd of the degrees in which restricted
total Chern classes of irreducible characters have nonzero coefficients
on C.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd
from typing import Optional, Sequence

from .exact_linalg import ResourceLimitError, is_prime
from .groups import (FiniteGroup, Subgroup, closure_members, derived_members,
                     generating_set, order_p_subgroup_classes)

MAX_ENUM_ORDER = 200


# ---------------------------------------------------------------------------
# Cyclotomic integers Z[zeta_N] = Z[x]/Phi_N(x)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic_polynomial(N: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the N-th cyclotomic polynomial,
    by exact division of x^N - 1 by the proper-divisor factors."""
    if N < 1:
        raise ValueError("N must be positive")
    num = [-1] + [0] * (N - 1) + [1]  # x^N - 1
    for d in range(1, N):
        if N % d == 0:
            num = _poly_exact_div(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _poly_exact_div(num: list[int], den: list[int]) -> list[int]:
    """Integer long division by a monic polynomial; the remainder must
    vanish."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - 1, len(den) - 2, -1):
        q = num[i]
        out[i - len(den) + 1] = q
        if q:
            for j, c in enumerate(den):
                num[i - len(den) + 1 + j] -= q * c
    if any(num[:len(den) - 1]):
        raise ArithmeticError("division is not exact")
    return out


class Cyclotomic:
    """Element of Z[x]/Phi_N(x): integer coefficients in the power basis,
    which is a Z-basis of the cyclotomic integers Z[zeta_N]."""

    __slots__ = ("N", "coeffs")

    def __init__(self, N: int, coeffs: Sequence[int]):
        phi = len(cyclotomic_polynomial(N)) - 1
        cs = list(map(operator.index, coeffs))  # TypeError on non-integers
        if len(cs) > phi:
            cs = _reduce_mod_phi(N, cs)
        cs += [0] * (phi - len(cs))
        self.N = N
        self.coeffs = tuple(cs)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(N: int) -> "Cyclotomic":
        return Cyclotomic(N, [])

    @staticmethod
    def integer(N: int, n: int) -> "Cyclotomic":
        return Cyclotomic(N, [n])

    @staticmethod
    def root(N: int, k: int) -> "Cyclotomic":
        """zeta_N^k."""
        k %= N
        return Cyclotomic(N, [0] * k + [1])

    # -- arithmetic ---------------------------------------------------------

    def _compat(self, other: "Cyclotomic") -> None:
        if self.N != other.N:
            raise ValueError("conductor mismatch")

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._compat(other)
        return Cyclotomic(self.N,
                          [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._compat(other)
        return Cyclotomic(self.N,
                          [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._compat(other)
        n = len(self.coeffs)
        prod = [0] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    prod[i + j] += a * b
        return Cyclotomic(self.N, prod)

    def scale(self, n: int) -> "Cyclotomic":
        n = operator.index(n)
        return Cyclotomic(self.N, [n * c for c in self.coeffs])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Cyclotomic) and self.N == other.N
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.N, self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def as_integer(self) -> int:
        if any(self.coeffs[1:]):
            raise ValueError("not an integer")
        return self.coeffs[0]

    def divide_exact(self, n: int) -> int:
        """The integer self / n; anything else is a failed certificate."""
        if any(self.coeffs[1:]):
            raise ArithmeticError(f"{self} is not a rational integer")
        q, r = divmod(self.coeffs[0], n)
        if r:
            raise ArithmeticError(f"{self.coeffs[0]} is not a multiple "
                                  f"of {n}")
        return q

    def __repr__(self):
        return f"Cyclotomic(N={self.N}, {list(self.coeffs)})"


def _reduce_mod_phi(N: int, cs: list[int]) -> list[int]:
    phi = cyclotomic_polynomial(N)
    deg = len(phi) - 1
    for i in range(len(cs) - 1, deg - 1, -1):
        q = cs[i]
        if q:
            for j, c in enumerate(phi):
                cs[i - deg + j] -= q * c
    return cs[:deg]


# ---------------------------------------------------------------------------
# Class functions and characters
# ---------------------------------------------------------------------------


@dataclass
class ClassFunction:
    """A function on a finite group with cyclotomic values, one per
    conjugacy class, in the numbering of ``group.classes()``."""

    group: FiniteGroup
    values: list[Cyclotomic]

    def __post_init__(self):
        if len(self.values) != len(self.group.classes().reps):
            raise ValueError("one value per conjugacy class required")

    @property
    def conductor(self) -> int:
        return self.values[0].N

    def degree(self) -> int:
        return self.values[0].as_integer()  # class 0 is the identity

    def inner(self, other: "ClassFunction") -> int:
        """<self, other> = (1/|G|) sum_K |K| self(K) other(K^-1), certified
        to be an integer (as it is for characters).  The products are
        added as raw coefficient lists and reduced mod Phi_N once."""
        if other.conductor != self.conductor:
            raise ValueError("conductor mismatch")
        cls = self.group.classes()
        acc = [0] * (2 * len(self.values[0].coeffs) - 1)
        for a, size, k_inv in zip(self.values, cls.sizes, cls.inverse):
            b = other.values[k_inv].coeffs
            for i, x in enumerate(a.coeffs):
                if x:
                    x *= size
                    for j, y in enumerate(b, i):
                        acc[j] += x * y
        return Cyclotomic(self.conductor, acc).divide_exact(self.group.order)

    def norm(self) -> int:
        return self.inner(self)

    def value_key(self) -> tuple:
        return tuple(c.coeffs for c in self.values)


# ---------------------------------------------------------------------------
# Linear characters (exponents of zeta_N) and induction
# ---------------------------------------------------------------------------


def linear_character_exponents(H: FiniteGroup, N: int) -> list[list[int]]:
    """All homomorphisms H -> Z/N (characters h -> zeta_N^e(h)), as exponent
    vectors indexed by element.  N must be a multiple of exponent(H).

    They are the characters of H/H' (I. M. Isaacs, *Character Theory of
    Finite Groups*, Cor. 2.23).  Each choice of images t*N/o of a greedy
    generating set of H/H' (o the order of a generator) is spread over the
    quotient along a spanning tree and pulled back to H.  That set may be
    dependent, so a candidate is kept only if it passes _is_homomorphism,
    and exactly |H : H'| candidates must pass."""
    if N % H.exponent() != 0:
        raise ValueError("conductor does not contain the character values")
    mul = H.mul
    derived = derived_members(H)
    coset = [-1] * H.order  # element -> its coset of H', by least element
    reps: list[int] = []
    for x in range(H.order):
        if coset[x] < 0:
            for d in derived:
                coset[mul[x][d]] = len(reps)
            reps.append(x)
    # tree: (coset, the coset before it, generator position), from H'
    gens: list[int] = []
    orders: list[int] = []
    tree, seen = [(0, 0, 0)], {0}
    for c in range(1, len(reps)):
        if c in seen:  # the generators so far reach it
            continue
        x = y = reps[c]
        o = 1
        while coset[y]:
            y = mul[y][x]
            o += 1
        gens.append(x)
        orders.append(o)
        tree, seen = [(0, 0, 0)], {0}
        for b, _, _ in tree:  # the loop reads tree as it grows
            row = mul[reps[b]]
            for i, g in enumerate(gens):
                a = coset[row[g]]
                if a not in seen:
                    seen.add(a)
                    tree.append((a, b, i))
    out = []
    on_coset = [0] * len(reps)
    for choice in itertools.product(*[range(o) for o in orders]):
        images = [t * (N // o) for t, o in zip(choice, orders)]
        for a, b, i in tree[1:]:
            on_coset[a] = (on_coset[b] + images[i]) % N
        exps = [on_coset[c] for c in coset]
        if _is_homomorphism(H, exps, N):
            out.append(exps)
    if len(out) != len(reps):
        raise ArithmeticError(
            f"{len(out)} linear characters found for |H : H'| = {len(reps)}")
    return out


def _is_homomorphism(H: FiniteGroup, exps: list[int], N: int) -> bool:
    """e(a*s) = e(a) + e(s) mod N for every a in H and generator s of H:
    then e is additive on all of H, as every element is a word in the
    generators."""
    for s in H.generators:
        e_s = exps[s]
        for row, e_a in zip(H.mul, exps):
            if (e_a + e_s - exps[row[s]]) % N:
                return False
    return True


def induce_linear(H: Subgroup, exponents: list[int], N: int) -> ClassFunction:
    """Induced character Ind_H^G(lambda) where lambda(h) = zeta_N^e(h),
    evaluated at each class representative g as the sum of
    lambda(t^-1 g t) over the transversal t with t^-1 g t in H."""
    G = H.parent
    mul, inv = G.mul, G.inv
    idx = H.index_of
    values = []
    for g in G.classes().reps:
        counts = [0] * N  # counts[e] = number of terms zeta_N^e
        for t in H.transversal:
            x = mul[inv[t]][mul[g][t]]
            if x in idx:
                counts[exponents[idx[x]]] += 1
        values.append(Cyclotomic(N, counts))
    return ClassFunction(G, values)


def _add_closure(G: FiniteGroup, found: dict, gens) -> bool:
    """Validate the closure of gens as a Subgroup into found (member set
    -> Subgroup), unless already found."""
    key = closure_members(G, gens)
    if key in found:
        return False
    found[key] = Subgroup(G, key)
    return True


def _largest_first(found: dict) -> list[Subgroup]:
    return sorted(found.values(), key=lambda s: -s.order)


def _subgroup_sources(G: FiniteGroup) -> list[Subgroup]:
    """G itself, one cyclic subgroup per conjugacy class (its head), and
    the closure of each head with each cyclic subgroup, deduplicated,
    largest first.  Every closure of <=2 elements is conjugate to one of
    them: <a', b> = <a, b^(x^-1)>^x for a' = a^x, and conjugate sources
    induce the same characters.  ResourceLimitError above MAX_ENUM_ORDER."""
    if G.order > MAX_ENUM_ORDER:
        raise ResourceLimitError(
            f"subgroup enumeration capped at order {MAX_ENUM_ORDER}")
    mul, of = G.mul, G.classes().of
    cyclic: dict[frozenset, int] = {}  # member set -> its least generator
    generated: set[int] = set()  # the generators of the listed ones
    heads: list[frozenset] = []
    headed: set[int] = set()  # the element classes of the heads' generators
    for g in range(1, G.order):
        if g in generated:
            continue
        powers = [0, g]
        while (x := mul[powers[-1]][g]) != 0:
            powers.append(x)
        o = len(powers)
        gens = [powers[j] for j in range(1, o) if gcd(j, o) == 1]
        generated.update(gens)
        key = frozenset(powers)
        cyclic[key] = g
        # <g> is conjugate to a head exactly when g is conjugate to one of
        # the head's generators
        if of[g] not in headed:
            heads.append(key)
            headed.update(of[x] for x in gens)
    found: dict[frozenset, Subgroup] = {}
    _add_closure(G, found, G.generators)
    for key in heads:
        if key not in found:
            found[key] = Subgroup(G, key)
    done: set[frozenset] = set()  # heads whose pairs are taken
    for h_key in heads:
        h = cyclic[h_key]
        for key, g in cyclic.items():
            # <h, g> is <g> or <h> when one contains the other
            if h not in key and g not in h_key and key not in done:
                _add_closure(G, found, [h, g])
        done.add(h_key)
    return _largest_first(found)


def _extended_sources(G: FiniteGroup,
                      sources: list[Subgroup]) -> list[Subgroup]:
    """sources and the closure of each with one more element, deduplicated,
    largest first: from closures of <=2 elements, closures of <=3."""
    found = {H.member_set: H for H in sources}
    for H in sources:
        gens = generating_set(G, H.members)
        for g in range(1, G.order):
            if g not in H.member_set:
                _add_closure(G, found, gens + [g])
    return _largest_first(found)


def _monomial_search(G: FiniteGroup,
                     sources: list[Subgroup]) -> list[ClassFunction]:
    """Distinct norm-1 characters induced from linear characters of the
    sources, until their squared degrees add up to |G|."""
    N = G.exponent()
    irreducibles: list[ClassFunction] = []
    seen: set[tuple] = set()
    total = 0
    for H in sources:
        if total == G.order:
            break
        if H.index ** 2 > G.order - total:
            continue
        for exps in linear_character_exponents(H.as_group(), N):
            chi = induce_linear(H, exps, N)
            key = chi.value_key()
            if key in seen:
                continue
            if chi.norm() == 1:
                seen.add(key)
                irreducibles.append(chi)
                total += chi.degree() ** 2
                if total == G.order:
                    break
    return irreducibles


def irreducible_characters(G: FiniteGroup,
                           sources: Optional[list[Subgroup]] = None
                           ) -> list[ClassFunction]:
    """Complete list of irreducible characters, by monomial induction.
    Without sources, from the closures of <=2 elements, and only if they
    come up incomplete, of <=3 (_extended_sources).

    Raises ArithmeticError if the class-count, sum-of-squares or
    orthonormality certificate fails (which signals a non-monomial input
    or an exhausted search)."""
    enumerated = sources is None
    if enumerated:
        sources = _subgroup_sources(G)  # refuses a group above the cap
    n_classes = len(G.classes().reps)
    irreducibles = _monomial_search(G, sources)
    if enumerated and len(irreducibles) != n_classes:
        # a character induced only from a subgroup that needs three
        # generators, as (C2)^3 in Singer(2,3)
        irreducibles = _monomial_search(G, _extended_sources(G, sources))
    if len(irreducibles) != n_classes:
        raise ArithmeticError(
            f"character search incomplete: {len(irreducibles)} irreducible "
            f"characters for {n_classes} conjugacy classes")
    total = sum(chi.degree() ** 2 for chi in irreducibles)
    if total != G.order:
        raise ArithmeticError(
            f"character search incomplete: sum of squares {total} != {G.order}")
    # <b,a> is the sum of <a,b> over K^-1 in place of K, so i <= j covers all
    for i, a in enumerate(irreducibles):
        for j in range(i, len(irreducibles)):
            if a.inner(irreducibles[j]) != (1 if i == j else 0):
                raise ArithmeticError("orthonormality certificate failed")
    irreducibles.sort(key=lambda c: (c.degree(), c.value_key()))
    return irreducibles


# ---------------------------------------------------------------------------
# Chern-class restrictions to order-p subgroups and pc
# ---------------------------------------------------------------------------


@dataclass
class ChernReport:
    subgroup: Subgroup
    exponent_set: set = field(default_factory=set)
    m: Optional[int] = None  # None marks an empty exponent set


def _eigenvalue_multiplicities(chi: ClassFunction, g: int, p: int) -> list[int]:
    """a_j = multiplicity of zeta_p^j in chi restricted to <g>, |g| = p:
    (1/p) sum_k chi(g^k) zeta_N^(-jkN/p), added as raw coefficients with
    exponents mod N (x^N = 1 mod Phi_N) and reduced once per j."""
    G = chi.group
    N = chi.conductor
    of = G.classes().of
    powers = []  # the coefficients of chi(g^k)
    gk = 0
    for _ in range(p):
        powers.append(chi.values[of[gk]].coeffs)
        gk = G.mul[gk][g]
    out = []
    for j in range(p):
        acc = [0] * N
        for k, cs in enumerate(powers):
            shift = -j * k * (N // p)
            for i, c in enumerate(cs):
                if c:
                    acc[(i + shift) % N] += c
        a = Cyclotomic(N, acc).divide_exact(p)
        if a < 0:
            raise ArithmeticError("eigenvalue multiplicity is negative")
        out.append(a)
    if sum(out) != chi.degree():
        raise ArithmeticError("multiplicities do not sum to the degree")
    return out


def _poly_mul_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def chern_exponents_at(G: FiniteGroup, C: Subgroup,
                       irreducibles: Optional[list[ClassFunction]] = None
                       ) -> ChernReport:
    """Degrees (in the H^2 generator u of the order-p subgroup C) where
    restricted total Chern classes of irreducibles have nonzero
    coefficients, and their gcd m."""
    p = C.order
    if not is_prime(p):
        raise ValueError("C must have prime order")
    g = C.members[1]
    if irreducibles is None:
        irreducibles = irreducible_characters(G)
    exponents: set[int] = set()
    for chi in irreducibles:
        mult = _eigenvalue_multiplicities(chi, g, p)
        total = [1]
        for j in range(1, p):
            for _ in range(mult[j]):
                total = _poly_mul_mod_p(total, [1, j], p)
        exponents.update(d for d, c in enumerate(total) if c and d > 0)
    m = None
    if exponents:
        m = 0
        for d in exponents:
            m = gcd(m, d)
    return ChernReport(C, exponents, m)


@dataclass
class PcReport:
    pc: int
    per_class: list[ChernReport]
    alternative_lcm_2m: int  # LCM{2m} form recorded alongside 2*LCM{m}


def pc_report(G: FiniteGroup, p: int) -> PcReport:
    # divisibility first, so that is_prime only sees divisors of |G|
    if not (p > 1 and G.order % p == 0 and is_prime(p)):
        raise ValueError(f"p must be a prime dividing the group order, "
                         f"not {p}")
    irreducibles = irreducible_characters(G)
    reports = [chern_exponents_at(G, C, irreducibles)
               for C in order_p_subgroup_classes(G, p)]
    ms = [r.m for r in reports if r.m]
    lcm_m = 1
    for m in ms:
        lcm_m = lcm_m * m // gcd(lcm_m, m)
    alt = 1
    for m in ms:
        alt = alt * (2 * m) // gcd(alt, 2 * m)
    return PcReport(2 * lcm_m, reports, alt if ms else 2)


def pc(G: FiniteGroup, p: int) -> int:
    return pc_report(G, p).pc
