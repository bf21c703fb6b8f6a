"""Degreewise fixed subspaces of graded polynomial (x) exterior algebras
over F_p under finite matrix-group actions, with Dickson-invariant and
order-48 <= GL_2(5) checks.

``GradedRing`` is the shared core of every graded ring over F_p here
(``GradedAlgebra`` below and ``RingModel`` in ``cohomology_ring_models``):
monomial bases per degree, linear arithmetic, substitution of generator
images, and common fixed subspaces of ring endomorphisms given by their
generator images.

Elements are dictionaries mapping monomials (polynomial exponent tuple,
exterior bit tuple) to scalars mod p.  Fixed subspaces are kernels of the
stacked (g - 1) action matrices on the per-degree monomial basis;
subalgebra dimensions come from an independent degree-by-degree closure,
so the two sides of every "generated by" claim are separate computations.
Where p does not divide the group order, the Molien series gives the
fixed dimensions without a kernel (``molien_dims``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import comb, lcm
from typing import Optional, Sequence

from .char_chern import Cyclotomic
from .exact_linalg import (Echelon, ResourceLimitError, _kernel_from_augmented,
                           _mat_det, _mat_mul, _mat_pow, _prime_factors,
                           matrix_group_closure)
from .groups import _primitive_polynomial

Monomial = tuple  # (poly exponent tuple, exterior bit tuple)
Element = dict    # Monomial -> scalar mod p


class GradedRing:
    """A graded F_p-algebra with a monomial basis in each degree.

    Elements are dicts {monomial: nonzero scalar mod p}.  A subclass
    supplies ``monomial_degree``, ``_monomials(d)`` (the degree-d
    monomials, any order), ``one``, ``mul``, ``word(m)``: the generator
    keys whose product, left to right, is the monomial m,
    ``word_prefix(m)``: (m without the last letter of its word, that
    letter), None for the unit, and ``top_generator_degree``."""

    def __init__(self, p: int):
        self.p = p
        self._basis_cache: dict[int, list] = {}
        self._index_cache: dict[int, dict] = {}
        self._prefix_cache: dict[int, list] = {}

    def basis(self, d: int) -> list:
        if d not in self._basis_cache:
            out = sorted(self._monomials(d))
            self._basis_cache[d] = out
            self._index_cache[d] = {m: i for i, m in enumerate(out)}
        return self._basis_cache[d]

    def index_of(self, m, d: Optional[int] = None) -> int:
        """Position of m in basis(d), d its degree; ArithmeticError when a
        product left the normal-form basis."""
        if d is None:
            d = self.monomial_degree(m)
        self.basis(d)
        try:
            return self._index_cache[d][m]
        except KeyError:
            raise ArithmeticError(_outside_basis(m, d)) from None

    def prefixes(self, d: int) -> list[tuple]:
        """(e, i, g) for each monomial of basis(d), d >= 1, in order: its
        word prefix is basis(e)[i] and the last letter of its word is the
        generator key g.  Built once per degree."""
        table = self._prefix_cache.get(d)
        if table is None:
            table = []
            for m in self.basis(d):
                rest, g = self.word_prefix(m)
                e = self.monomial_degree(rest)
                table.append((e, self.index_of(rest, e), g))
            self._prefix_cache[d] = table
        return table

    def dim(self, d: int) -> int:
        return len(self.basis(d))

    component_dim = dim

    def add(self, u: Element, v: Element) -> Element:
        out = dict(u)
        for m, c in v.items():
            nc = (out.get(m, 0) + c) % self.p
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
        return out

    def scale(self, u: Element, c: int) -> Element:
        c %= self.p
        if not c:
            return {}
        return {m: (c * v) % self.p for m, v in u.items()}

    def power(self, u: Element, n: int) -> Element:
        acc = self.one()
        for _ in range(n):
            acc = self.mul(acc, u)
        return acc

    def element_degree(self, u: Element) -> Optional[int]:
        """Degree of a homogeneous element (None for 0); raises otherwise."""
        degs = {self.monomial_degree(m) for m in u}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return degs.pop()

    def evaluate(self, u: Element, images, target: "GradedRing") -> Element:
        """Image of u under the ring map into target that sends generator
        key g to images[g]: each monomial's word is multiplied out factor
        by factor, starting from target.one()."""
        out: Element = {}
        p = target.p
        for m, c in u.items():
            term = target.one()
            for g in self.word(m):
                term = target.mul(term, images[g])
            for mm, v in term.items():
                nc = (out.get(mm, 0) + c * v) % p
                if nc:
                    out[mm] = nc
                else:
                    out.pop(mm, None)
        return out


def _outside_basis(m, d: int) -> str:
    return f"product {m} is not a monomial of the degree-{d} basis"


def fixed_subspace(ring: GradedRing, blocks: Sequence[Sequence[Element]],
                   d: int) -> list[Element]:
    """Basis of the degree-d subspace fixed by every map (all of it if
    there is none), each given by its block of images: block[j] is the
    image of basis(d)[j].  The basis is the kernel of the stacked (g - 1)
    (_fixed_echelon), and each vector is checked fixed (require_fixed)."""
    basis = ring.basis(d)
    n_rows = len(basis) * max(1, len(blocks))
    ech = _fixed_echelon(ring, blocks, d, n_rows)
    fixed = [{basis[j]: v for j, v in vec.items()}
             for vec in _kernel_from_augmented(ech, n_rows)]
    require_fixed(ring, blocks, d, fixed)
    return fixed


def _fixed_echelon(ring: GradedRing, blocks: Sequence[Sequence[Element]],
                   d: int, n_rows: int) -> Echelon:
    """_augmented_echelon of the stacked (g - 1), block k on rows k*n ..
    k*n + n-1 (n = dim(d)), column j's bookkeeping 1 at n_rows + j, each
    column written block by block in the echelon's own form: over F_3 its
    bit planes (P, M), else its packed fields, w bits each.  An image
    outside basis(d) raises ArithmeticError."""
    basis, index, p = ring.basis(d), ring._index_cache[d], ring.p
    n, ech = len(basis), Echelon(p)
    w = 1 if p == 3 else ech._pk.w  # bits per coordinate
    P = [1 << (n_rows + j) * w for j in range(n)]  # fields, or F_3's P
    M = [0] * n  # F_3's plane M
    try:  # the entries of g - 1, reduced mod p
        for k, block in enumerate(blocks):
            row = k * n * w
            for j, (m, img) in enumerate(zip(basis, block)):
                x = P[j]
                if p != 3:
                    for mm, c in img.items():
                        x |= (c - (mm == m)) % p << row + index[mm] * w
                    if m not in img:
                        x |= p - 1 << row + j * w
                    P[j] = x
                    continue
                y = M[j]
                for mm, c in img.items():
                    c = (c - (mm == m)) % 3
                    if c == 1:
                        x |= 1 << row + index[mm]
                    elif c:
                        y |= 1 << row + index[mm]
                if m not in img:
                    y |= 1 << row + j
                P[j], M[j] = x, y
    except KeyError as exc:
        raise ArithmeticError(_outside_basis(exc.args[0], d)) from None
    for x, y in zip(P, M):
        if p == 3:
            lo = ((x | y) & -(x | y)).bit_length() - 1
            ech._add3(lo, x >> lo, y >> lo)
        else:
            lo = ((x & -x).bit_length() - 1) // w
            ech._addp(lo, x >> lo * w)
    return ech


def require_fixed(ring: GradedRing, blocks: Sequence[Sequence[Element]],
                  d: int, vectors: Sequence[Element]) -> None:
    """ArithmeticError unless the vectors are independent and every map
    fixes every vector: g(v), summed from the map's images of basis(d)
    (blocks as in fixed_subspace), equals v.  The sum reads the images,
    not the matrix whose kernel the vectors are, so it also checks how
    that matrix was written.  Independence is read off the least basis
    index of each vector, which must strictly increase, as it does across
    _kernel_from_augmented's echelon rows."""
    p = ring.p
    index = ring._index_cache[d]
    for v in vectors:
        for k, block in enumerate(blocks):
            image: Element = {}
            for m, c in v.items():
                for mm, x in block[index[m]].items():
                    image[mm] = (image.get(mm, 0) + c * x) % p
            if {mm: x for mm, x in image.items() if x} != v:
                raise ArithmeticError(
                    f"a reported degree-{d} fixed vector is moved by map {k}")
    leads = [min(map(index.__getitem__, v), default=-1) for v in vectors]
    if any(a >= b for a, b in zip([-1] + leads, leads)):
        raise ArithmeticError(
            f"the reported degree-{d} fixed vectors are not independent")


def fixed_sweep(ring: GradedRing, maps: Sequence, max_degree: int):
    """Yield (d, blocks) for d = 0..max_degree.  Each map is a ring
    endomorphism given by its table of generator images (indexed by
    generator key), and blocks[k][j] is the image of basis(d)[j] under
    maps[k]: the image of the word prefix times the image of the last
    letter (GradedRing.prefixes), one product per monomial and map.  A
    degree's images are kept while a later degree up to max_degree reads
    them; a degree reads only degrees at most g below it, g the largest
    generator degree, so which degrees read it is known g degrees ahead."""
    mul = ring.mul
    top = ring.top_generator_degree()
    held: dict[int, list] = {}  # degree -> its blocks
    last: dict[int, int] = {}  # degree -> the last degree that reads it
    seen = 0  # the prefix degrees of degrees 1..seen are in last
    for d in range(max_degree + 1):
        for e in range(seen + 1, min(d + top, max_degree) + 1):
            for pe in {pe for pe, _, _ in ring.prefixes(e)}:
                last[pe] = e
        seen = max(seen, min(d + top, max_degree))
        if d == 0:
            blocks = [[ring.one()] for _ in maps]
        else:
            table = ring.prefixes(d)
            blocks = [[mul(held[e][k][i], T[g]) for e, i, g in table]
                      for k, T in enumerate(maps)]
        yield d, blocks
        held[d] = blocks
        for e in [e for e in held if last.get(e, -1) <= d]:
            del held[e]


def fixed_subspaces(ring: GradedRing, maps: Sequence, max_degree: int):
    """Bases of the subspace fixed by every map (generator-image tables,
    as in fixed_sweep) in degrees 0..max_degree, one at a time, from one
    sweep."""
    for d, blocks in fixed_sweep(ring, maps, max_degree):
        yield fixed_subspace(ring, blocks, d)


def fixed_dims(ring: GradedRing, maps: Sequence,
               max_degree: int) -> list[int]:
    return [len(b) for b in fixed_subspaces(ring, maps, max_degree)]


class GradedAlgebra(GradedRing):
    """F_p[x_1..x_r] (x) Lambda[w_1..w_s] with assigned generator degrees.

    Generator keys are 0..r-1 for x_1..x_r and r..r+s-1 for w_1..w_s."""

    def __init__(self, p: int, poly_degrees: Sequence[int],
                 ext_degrees: Sequence[int] = ()):
        if any(d <= 0 for d in itertools.chain(poly_degrees, ext_degrees)):
            raise ValueError("generator degrees must be positive")
        super().__init__(p)
        self.poly_degrees = tuple(poly_degrees)
        self.ext_degrees = tuple(ext_degrees)

    # -- monomials ----------------------------------------------------------

    def monomial_degree(self, m: Monomial) -> int:
        e, b = m
        return (sum(x * d for x, d in zip(e, self.poly_degrees))
                + sum(x * d for x, d in zip(b, self.ext_degrees)))

    def _monomials(self, d: int) -> list[Monomial]:
        # the exterior subsets of degree <= d, each with d minus its degree,
        # grown one generator at a time: a prefix above d stays above d
        subsets = [((), d)]
        for e in self.ext_degrees:
            subsets = [(bits + (x,), rem - x * e) for bits, rem in subsets
                       for x in (0, 1) if rem >= x * e]
        return [(exps, bits) for bits, rem in subsets
                for exps in self._poly_exponents(rem, len(self.poly_degrees))]

    def _poly_exponents(self, d: int, k: int):
        if k == 0:
            if d == 0:
                yield ()
            return
        deg = self.poly_degrees[len(self.poly_degrees) - k]
        if k == 1:  # the last exponent is determined
            if d % deg == 0:
                yield (d // deg,)
            return
        for e in range(d // deg + 1):
            for rest in self._poly_exponents(d - e * deg, k - 1):
                yield (e,) + rest

    def word(self, m: Monomial) -> list[int]:
        # the exterior letters come first, in increasing order (sign +1),
        # so each costs one product by a single term; x_i are central
        e, b = m
        r = len(e)
        return ([r + j for j, bit in enumerate(b) if bit]
                + [i for i, x in enumerate(e) for _ in range(x)])

    def word_prefix(self, m: Monomial):
        e, b = m
        for i in reversed(range(len(e))):
            if e[i]:
                return (e[:i] + (e[i] - 1,) + e[i + 1:], b), i
        for j in reversed(range(len(b))):
            if b[j]:
                return (e, b[:j] + (0,) + b[j + 1:]), len(e) + j
        return None

    def top_generator_degree(self) -> int:
        return max(self.poly_degrees + self.ext_degrees, default=1)

    # -- elements -----------------------------------------------------------

    def one(self) -> Element:
        return {((0,) * len(self.poly_degrees),
                 (0,) * len(self.ext_degrees)): 1}

    def variable(self, i: int) -> Element:
        e = [0] * len(self.poly_degrees)
        e[i] = 1
        return {(tuple(e), (0,) * len(self.ext_degrees)): 1}

    def ext_variable(self, i: int) -> Element:
        b = [0] * len(self.ext_degrees)
        b[i] = 1
        return {((0,) * len(self.poly_degrees), tuple(b)): 1}

    def mul(self, u: Element, v: Element) -> Element:
        out: dict[Monomial, int] = {}
        p = self.p
        add = _EXPONENT_ADD.get(len(self.poly_degrees), _add_exponents)
        terms = [(e2, b2, any(b2), c2) for (e2, b2), c2 in v.items()]
        for (e1, b1), c1 in u.items():
            ext1 = any(b1)
            for e2, b2, ext2, c2 in terms:
                if ext1 and ext2:
                    if any(x and y for x, y in zip(b1, b2)):
                        continue  # repeated exterior factor
                    # sign: inversions moving b2's factors past b1's later ones
                    sign = 1
                    for j, y in enumerate(b2):
                        if y and sum(b1[j + 1:]) % 2:
                            sign = -sign
                    b = _add_exponents(b1, b2)
                    c = sign * c1 * c2
                else:  # at most one factor has exterior bits: no sign
                    b = b1 if ext1 else b2
                    c = c1 * c2
                m = (add(e1, e2), b)
                nc = (out.get(m, 0) + c) % p
                if nc:
                    out[m] = nc
                else:
                    out.pop(m, None)
        return out


def _add_exponents(e1: tuple, e2: tuple) -> tuple:
    return tuple(map(int.__add__, e1, e2))


# exponent sums written out for two and three polynomial variables: the
# Dickson and order-48 algebras, the restriction targets and the `fixed`
# jobs of the invariants benchmark; other arities take _add_exponents
_EXPONENT_ADD = {
    2: lambda e1, e2: (e1[0] + e2[0], e1[1] + e2[1]),
    3: lambda e1, e2: (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2]),
}


def basis_counts(algebra: GradedAlgebra, max_degree: int) -> tuple[int, int]:
    """(largest dim(d), sum of dim(d)) over d = 0..max_degree, counted
    without listing a basis.  With k polynomial generators of one degree
    delta, an exterior monomial of degree e contributes C(n + k - 1, k - 1)
    to dim(e + n*delta) and C(N + k, k) to the sum, N the largest such n;
    the largest component is one of the highest degrees e + N*delta.
    ValueError when the polynomial degrees differ."""
    if len(set(algebra.poly_degrees)) > 1:
        raise ValueError("polynomial generators must share one degree")
    ext = {0: 1}  # exterior monomials by degree, up to max_degree
    for e in algebra.ext_degrees:
        for s, c in list(ext.items()):
            if s + e <= max_degree:
                ext[s + e] = ext.get(s + e, 0) + c
    k = len(algebra.poly_degrees)
    if k == 0:
        return max(ext.values()), sum(ext.values())
    delta = algebra.poly_degrees[0]

    def dim(d):
        return sum(c * comb((d - e) // delta + k - 1, k - 1)
                   for e, c in ext.items() if e <= d and (d - e) % delta == 0)

    tops = {e + (max_degree - e) // delta * delta for e in ext}
    return (max(map(dim, tops)),
            sum(c * comb((max_degree - e) // delta + k, k)
                for e, c in ext.items()))


# ---------------------------------------------------------------------------
# Matrix actions
# ---------------------------------------------------------------------------


class MatrixAction:
    """Generator matrices acting linearly on the span of the polynomial
    generators (which must share a common degree); each exterior generator
    is multiplied by det(g)^twist.  maps: the generator images of each
    matrix, the tables fixed_sweep takes."""

    def __init__(self, algebra: GradedAlgebra, matrices,
                 ext_twists: Optional[Sequence[int]] = None):
        self.algebra = algebra
        p = algebra.p
        k = len(algebra.poly_degrees)
        if len(set(algebra.poly_degrees)) > 1:
            raise ValueError("polynomial generators must share one degree")
        self.matrices = [tuple(tuple(x % p for x in row) for row in M)
                         for M in matrices]
        for M in self.matrices:
            if len(M) != k or any(len(row) != k for row in M):
                raise ValueError("matrix size must match generator count")
            if _mat_det(M, p) == 0:
                raise ValueError("generator matrix not invertible")
        if ext_twists is not None and \
                len(ext_twists) != len(algebra.ext_degrees):
            raise ValueError("one determinant twist per exterior generator")
        self.ext_twists = tuple(ext_twists) if ext_twists is not None \
            else (1,) * len(algebra.ext_degrees)
        self._images = {M: self._generator_images(M) for M in self.matrices}
        self.maps = [self._images[M] for M in self.matrices]

    @cached_property
    def group(self) -> list:
        return matrix_group_closure(self.matrices, self.algebra.p,
                                    len(self.algebra.poly_degrees), 100_000)

    def group_order(self) -> int:
        return len(self.group)

    def _generator_images(self, M) -> list[Element]:
        """Images of the generators under M (x_i -> sum_j M[j][i] x_j,
        w_j -> det(M)^twist_j w_j), indexed by generator key."""
        A = self.algebra
        p = A.p
        det = _mat_det(M, p)
        k = len(A.poly_degrees)
        images = [{(tuple(1 if t == j else 0 for t in range(k)),
                    (0,) * len(A.ext_degrees)): M[j][i] % p
                   for j in range(k) if M[j][i] % p}
                  for i in range(k)]
        images += [A.scale(A.ext_variable(j), pow(det, t, p))
                   for j, t in enumerate(self.ext_twists)]
        return images

    def apply_matrix(self, M, u: Element) -> Element:
        """Image of u under one matrix, any matrix of the right size; the
        generator images of the action's own matrices are built once."""
        images = self._images.get(tuple(map(tuple, M)))
        if images is None:
            images = self._generator_images(M)
        return self.algebra.evaluate(u, images, self.algebra)


# ---------------------------------------------------------------------------
# Invariant dimensions from the Molien series
# ---------------------------------------------------------------------------

# molien_dims sums count vectors of length N, N the lcm of the element
# orders, and reduces them in Z[zeta_N] with the N-th cyclotomic
# polynomial; it finds the eigenvalues in F_(p^f) from the first primitive
# polynomial of degree f, which factors p^f - 1 by trial division and
# multiplies f x f matrices.  It takes N <= MAX_MOLIEN_N, f <= 12 and
# p^(f-1) <= 2^40.  At the `invariants fixed` limits (max_degree 152,
# two degree-1 generators) N = 960 takes about 3 s, on one core of a Xeon
# with Python 3.11; f = 12 at p = 7 and f = 3 at p near 2^20 each take
# under a second.
MAX_MOLIEN_N = 1000


def molien_dims(action: MatrixAction, max_degree: int) -> list[int]:
    """Dimension of the invariants in each degree 0..max_degree, read off
    the Molien series (D. J. Benson, Polynomial Invariants of Finite
    Groups, LMS LN 190, 2.5): the group average of
    prod_j (1 + t^(e_j) det^(twist_j)) / prod_i (1 - lambda_i t^delta).
    ValueError unless p is prime to |G|.  Then every element is
    diagonalisable with eigenvalues in mu_N, N the lcm of the element
    orders, and the eigenvalues of g^j are the j-th powers of g's.  So
    the powers of one element per characteristic polynomial not yet met
    are walked, and that element's roots are found among the powers
    zeta^e of a primitive N-th root of unity zeta of F_(p^f), f the order
    of p mod N; zeta^e lifts to zeta_N^e (the Brauer lift).  Each
    coefficient is summed as counts of exponents mod N and must be |G|
    times an integer in Z[zeta_N] (Cyclotomic.divide_exact), else
    ArithmeticError.  ResourceLimitError above the limits of
    MAX_MOLIEN_N."""
    A, p, group = action.algebra, action.algebra.p, action.group
    if len(group) % p == 0:
        raise ValueError(f"p = {p} divides the group order {len(group)}: "
                         "the action is modular")
    one, k = group[0], len(A.poly_degrees)  # the closure lists 1 first
    ident = tuple(comb(k, i) * (-1) ** (k - i) % p for i in range(k + 1))
    poly_of = {g: _charpoly(g, p) for g in group[1:]}
    poly_of[one] = ident
    polys: dict[tuple, list] = {}  # char. polynomial -> [an element, count]
    for g, c in poly_of.items():
        polys.setdefault(c, [g, 0])[1] += 1
    walks, seen = [], {ident}
    for c, (g, _) in polys.items():
        if c not in seen:  # the polynomials of g, g^2, .., g^order = 1
            walk, h = [c], _mat_mul(g, g, p)
            while h != one:
                walk.append(poly_of[h])
                h = _mat_mul(h, g, p)
            walk.append(ident)
            seen.update(walk)
            walks.append(walk)
    N = lcm(*map(len, walks))  # 1 for the trivial group
    f = next(f for f in range(1, N + 1) if pow(p, f, N) == 1 % N)
    if N > MAX_MOLIEN_N or f > 12 or p ** (f - 1) > 1 << 40:
        raise ResourceLimitError(
            f"the Molien series needs the {N}-th roots of unity in the "
            f"field of order {p}^{f}, above the limits N <= {MAX_MOLIEN_N}, "
            "f <= 12 and p^(f-1) <= 2^40")
    zeta = _mat_pow(_primitive_polynomial(p, f), (p ** f - 1) // N, p)
    powers = [(1,) + (0,) * (f - 1)]  # zeta^e as F_p-coordinates
    for _ in range(N - 1):
        powers.append(tuple(sum(map(int.__mul__, row, powers[-1])) % p
                            for row in zeta))
    exps = {ident: (0,) * k}  # char. polynomial -> its root exponents
    for walk in walks:  # g's roots are m-th roots of unity, m its order
        step = N // len(walk)
        a = [step * e for e in _root_exponents(walk[0], powers[::step], p)]
        for j, c in enumerate(walk, 1):
            exps.setdefault(c, tuple(sorted(j * e % N for e in a)))
    classes: dict[tuple, int] = {}  # root exponents -> elements
    for c, (_, count) in polys.items():
        classes[exps[c]] = classes.get(exps[c], 0) + count
    ext = {(0, 0): 1}  # (degree, twist mod N) -> exterior subsets
    for e, t in zip(A.ext_degrees, action.ext_twists):
        for (s, tw), n in list(ext.items()):
            if s + e <= max_degree:
                key = (s + e, (tw + t) % N)
                ext[key] = ext.get(key, 0) + n
    delta = A.poly_degrees[0] if A.poly_degrees else 1
    n_max = max_degree // delta
    # bytes per packed count: a count is at most |G| times the monomials
    # of degree <= max_degree
    size = (len(group) * comb(n_max + k, n_max)
            << len(A.ext_degrees)).bit_length() // 8 + 1
    series = {tw: _h_counts(classes, tw, n_max, N, size) for _, tw in ext}
    dims = []
    for d in range(max_degree + 1):
        packed = sum(n * series[tw][(d - s) // delta]
                     for (s, tw), n in ext.items()
                     if s <= d and (d - s) % delta == 0)
        raw = packed.to_bytes(N * size, "little")
        counts = [int.from_bytes(raw[i:i + size], "little")
                  for i in range(0, N * size, size)]
        dims.append(Cyclotomic(N, counts).divide_exact(len(group)))
    return dims


def _charpoly(M, p: int) -> tuple:
    """det(xI - M) mod p, low degree first: M is brought to upper
    Hessenberg form H by similarity, and then c_(m+1) = (x - H[m][m]) c_m
    - sum_i H[m-i][m] H[m][m-1] .. H[m-i+1][m-i] c_(m-i) (H. Cohen, A
    Course in Computational Algebraic Number Theory, 2.2.9)."""
    k = len(M)
    H = [list(row) for row in M]
    for m in range(1, k - 1):  # clear column m - 1 below row m
        i = next((i for i in range(m, k) if H[i][m - 1] % p), None)
        if i is None:
            continue
        if i != m:
            H[i], H[m] = H[m], H[i]
            for row in H:
                row[i], row[m] = row[m], row[i]
        inv = pow(H[m][m - 1], -1, p)
        for i in range(m + 1, k):
            u = H[i][m - 1] * inv % p
            if u:  # row i -= u row m, then column m += u column i
                H[i] = [(a - u * b) % p for a, b in zip(H[i], H[m])]
                for row in H:
                    row[m] = (row[m] + u * row[i]) % p
    polys = [[1]]
    for m in range(k):
        c = [0] + polys[m]
        for i, x in enumerate(polys[m]):
            c[i] -= H[m][m] * x
        t = 1
        for i in range(1, m + 1):
            t = t * H[m - i + 1][m - i] % p
            u = t * H[m - i][m]
            for j, x in enumerate(polys[m - i]):
                c[j] -= u * x
        polys.append([x % p for x in c])
    return tuple(polys[k])


def _root_exponents(c: tuple, powers: list, p: int) -> tuple:
    """The exponents e, with multiplicity, of the roots zeta^e of the monic
    c (low degree first), powers[e] = zeta^e: the multiplicity is the
    first j whose Hasse derivative sum_i C(i, j) c_i x^(i-j) does not
    vanish there.  ArithmeticError unless they are deg c roots."""
    k, N = len(c) - 1, len(powers)
    out: list[int] = []
    for e in range(N):
        if len(out) == k:
            break
        j = 0
        while j < k and not any(
                sum(comb(i, j) * c[i] * powers[(i - j) * e % N][t]
                    for i in range(j, k + 1)) % p
                for t in range(len(powers[0]))):
            j += 1
        out += [e] * j
    if len(out) != k:
        raise ArithmeticError(f"{c} does not split over the {N}-th roots "
                              "of unity")
    return tuple(out)


def _h_counts(classes: dict, tau: int, n_max: int, N: int,
              size: int) -> list[int]:
    """For n = 0..n_max, the sum over the exponent tuples a of classes,
    with their weights w, of w z^(tau |a|) h_n(z^a), h_n the complete
    homogeneous polynomial, as counts over Z/N packed into one integer,
    size bytes a count, the count of z^r first from the lowest byte up.
    The exponents are taken first to last, and tuples with the same
    exponents left are summed: taking c maps a sum V to z^(tau c) U,
    U_n = z^c U_(n-1) + V_n, where z^c rotates the packed counts by c
    slots."""
    width = 8 * size
    mask = (1 << width * N) - 1

    def rotate(x: int, c: int) -> int:
        return (x << width * c) & mask | x >> width * (N - c)

    k = len(next(iter(classes)))
    if not k:
        return [classes[()]] + [0] * n_max
    level: dict[tuple, list] = {}
    for a, w in classes.items():  # the first exponent: w z^(a_0 (n + tau))
        out = level.setdefault(a[1:], [0] * (n_max + 1))
        for n in range(n_max + 1):
            out[n] += w << width * (a[0] * (n + tau) % N)
    for _ in range(k - 1):
        sums: dict[tuple, list] = {}
        for a, series in level.items():
            out = sums.setdefault(a[1:], [0] * (n_max + 1))
            u, shift = 0, tau * a[0] % N
            for n, v in enumerate(series):
                u = rotate(u, a[0]) + v
                out[n] += rotate(u, shift)
        level = sums
    return level[()]


# ---------------------------------------------------------------------------
# Subalgebra dimensions by degreewise closure
# ---------------------------------------------------------------------------


def subalgebra_basis(algebra: GradedRing, gens: Sequence[Element],
                     max_degree: int) -> dict[int, list[Element]]:
    """Spanning elements per degree 0..max_degree of the unital subalgebra
    generated by the given homogeneous elements of any GradedRing."""
    by_degree: dict[int, list[tuple]] = {}
    for g in gens:
        d = algebra.element_degree(g)
        if d is None:
            continue
        by_degree.setdefault(d, []).append(g)
    spans: dict[int, Echelon] = {d: Echelon(p=algebra.p)
                                 for d in range(max_degree + 1)}
    elems: dict[int, list[Element]] = {d: [] for d in range(max_degree + 1)}
    one = algebra.one()
    spans[0].add({algebra.index_of(m): c for m, c in one.items()})
    elems[0].append(one)
    for d in range(1, max_degree + 1):
        for gd, gl in by_degree.items():
            if gd > d:
                continue
            for g in gl:
                for base in elems[d - gd]:
                    prod = algebra.mul(base, g)
                    vec = {algebra.index_of(m): c for m, c in prod.items()}
                    if vec and spans[d].add(dict(vec)):
                        elems[d].append(prod)
    return elems


def subalgebra_dims(algebra: GradedRing, gens: Sequence[Element],
                    max_degree: int) -> list[int]:
    """Dimension per degree 0..max_degree of the unital subalgebra
    generated by the given homogeneous elements."""
    elems = subalgebra_basis(algebra, gens, max_degree)
    return [len(elems[d]) for d in range(max_degree + 1)]


def in_span(algebra: GradedRing, pool: Sequence[Element],
            target: Element) -> bool:
    """Linear membership of a homogeneous element of a GradedRing in the
    span of pool."""
    span = Echelon(p=algebra.p)
    for e in pool:
        span.add({algebra.index_of(m): c for m, c in e.items()})
    return not span.reduce({algebra.index_of(m): c for m, c in target.items()})


# ---------------------------------------------------------------------------
# Dickson invariants
# ---------------------------------------------------------------------------


@dataclass
class DicksonPair:
    a: Element  # degree p+1
    b: Element  # degree p(p-1)


def dickson_pair(p: int) -> DicksonPair:
    """a = x^p x' - x'^p x and b = sum x^{(p-1)(p-i)} x'^{(p-1)i}."""
    a = {((p, 1), ()): 1, ((1, p), ()): p - 1}
    b = {(((p - i) * (p - 1), i * (p - 1)), ()): 1 for i in range(p + 1)}
    return DicksonPair(a, b)


def sl2_generators(p: int):
    return [((1, 1), (0, 1)), ((0, 1), (-1 % p, 0))]


def gl2_generators(p: int):
    r = _primitive_root(p)
    return sl2_generators(p) + [((r, 0), (0, 1))]


def _primitive_root(p: int) -> int:
    primes = _prime_factors(p - 1)
    for r in range(2, p):
        if all(pow(r, (p - 1) // q, p) != 1 for q in primes):
            return r
    raise ValueError("no primitive root found")


@dataclass
class DicksonReport:
    p: int
    max_degree: int
    sl2_fixed_dims: list[int]
    sl2_subalgebra_dims: list[int]
    gl2_fixed_dims: list[int]
    gl2_subalgebra_dims: list[int]
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = (self.sl2_fixed_dims == self.sl2_subalgebra_dims
                       and self.gl2_fixed_dims == self.gl2_subalgebra_dims)


def dickson_check(p: int, max_degree: int,
                  pair: Optional[DicksonPair] = None) -> DicksonReport:
    """Fixed-subspace dims vs the span of products of the free generators:
    {a, b} for SL_2(p), {a^(p-1), b} for GL_2(p), every degree <= max_degree.
    The generators are checked invariant first."""
    if p not in (3, 5, 7):
        raise ValueError("p must be 3, 5, or 7")
    if max_degree > (60 if p == 7 else 30):
        raise ValueError("max_degree too large for the configured budget")
    A = GradedAlgebra(p, [1, 1])
    pair = pair or dickson_pair(p)
    gl2 = MatrixAction(A, gl2_generators(p))
    sl2 = gl2.matrices[:2]  # gl2_generators begins with sl2_generators
    if MatrixAction(A, sl2).group_order() != p * (p * p - 1):
        raise ArithmeticError("SL_2 generators give the wrong group order")
    if gl2.group_order() != (p * p - 1) * (p * p - p):
        raise ArithmeticError("GL_2 generators give the wrong group order")
    if any(gl2.apply_matrix(M, g) != g
           for M in sl2 for g in (pair.a, pair.b)):
        raise ArithmeticError("generator is not SL_2-invariant")
    a_pow = A.power(pair.a, p - 1)
    if any(gl2.apply_matrix(M, g) != g
           for M in gl2.matrices for g in (a_pow, pair.b)):
        raise ArithmeticError("generator is not GL_2-invariant")
    # one sweep over GL_2's maps: SL_2's invariants are those of the first two
    sl2_fixed, gl2_fixed = [], []
    for d, blocks in fixed_sweep(A, gl2.maps, max_degree):
        sl2_fixed.append(len(fixed_subspace(A, blocks[:2], d)))
        gl2_fixed.append(len(fixed_subspace(A, blocks, d)))
    return DicksonReport(
        p, max_degree,
        sl2_fixed, subalgebra_dims(A, [pair.a, pair.b], max_degree),
        gl2_fixed, subalgebra_dims(A, [a_pow, pair.b], max_degree),
    )


# ---------------------------------------------------------------------------
# The order-48 subgroup of GL_2(5)
# ---------------------------------------------------------------------------

HELD5_MATRICES = [((2, 0), (0, 3)),
                  ((2, 0), (0, 2)),
                  ((0, 1), (-1, 0)),
                  ((1, 1), (2, -2))]

# The published presentation prints the relation as gamma^2 = 3(beta^2 +
# gamma^3); only gamma^2 = 3(beta^2 + alpha^3) is degree-consistent
# (48 = 48), and that is the form the derivation produces.  Both are
# recorded in the report.
HELD5_RELATION_PRINTED = "gamma^2 = 3*(beta^2 + gamma^3)"
HELD5_RELATION_USED = "gamma^2 = 3*(beta^2 + alpha^3)"


def _presented_ring_dims(max_degree: int) -> list[int]:
    """Dims of F_5[alpha(16), beta(24), gamma(24)]/(gamma^2 = ...) (x)
    Lambda[chi(15)]: monomials alpha^i beta^j gamma^k chi^e, k <= 1."""
    dims = [0] * (max_degree + 1)
    for e in (0, 1):
        for k in (0, 1):
            base = 15 * e + 24 * k
            i = 0
            while base + 16 * i <= max_degree:
                j = 0
                while base + 16 * i + 24 * j <= max_degree:
                    dims[base + 16 * i + 24 * j] += 1
                    j += 1
                i += 1
    return dims


@dataclass
class Held5Report:
    group_order: int
    max_degree: int
    fixed: list[int]
    presented: list[int]
    relation_printed: str
    relation_used: str
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = (self.group_order == 48
                       and self.fixed == self.presented)


def held_5_part_check(max_degree: int = 120) -> Held5Report:
    """Invariants of F_5[delta, delta'] (x) Lambda[epsilon] (cohomological
    degrees 2, 2, 3; epsilon twisted by the determinant) under the order-48
    subgroup of GL_2(5): their dimensions from the Molien series (5 does
    not divide 48), compared degreewise with the presented ring."""
    if max_degree > 120:
        raise ValueError("max_degree capped at 120")
    A = GradedAlgebra(5, [2, 2], [3])
    act = MatrixAction(A, HELD5_MATRICES, ext_twists=[1])
    return Held5Report(
        act.group_order(), max_degree,
        molien_dims(act, max_degree),
        _presented_ring_dims(max_degree),
        HELD5_RELATION_PRINTED, HELD5_RELATION_USED,
    )
