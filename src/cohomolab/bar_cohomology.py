"""Normalized bar-complex (co)homology of finite groups.

Cochains are finitely supported maps from tuples of non-identity group
elements to Z or F_p, stored by cell index.  Products (cup, cup-1),
Bocksteins, transfer and matric Massey products (the triple product is
the 1 x 1 case) all live at the cochain level.  Each coboundary map
delta_n is eliminated once per (group, n, ring), and that one echelon
(CoboundarySolver) gives the cocycles, the class representatives and
certified primitives.  Dimension and integral computations go through a
certified free resolution, with the literal bar boundary kept alongside
as an independent route for cross-checking on small groups.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from typing import Optional, Sequence

from .exact_linalg import (Echelon, ResourceLimitError, SparseMatrix,
                           _augmented_echelon, _kernel_from_augmented,
                           _prime_factors, _solve_augmented)
from .groups import FiniteGroup, Subgroup
from .resolution import resolution_for

# ---------------------------------------------------------------------------
# Cochains
# ---------------------------------------------------------------------------


class Cochain:
    """Degree-n cochain on the normalized bar complex of a finite group.

    `cells` maps the cell_index of an n-tuple of non-identity element
    indices, the row and column index of coboundary_matrix and
    CoboundarySolver, to a nonzero scalar; anything absent is 0.  Only the
    constructor takes tuple keys, which it checks (tuples containing the
    identity are outside the domain: normalization); `data` reads back.
    """

    __slots__ = ("group", "degree", "p", "cells")

    def __init__(self, group: FiniteGroup, degree: int,
                 data: Optional[dict] = None, p: Optional[int] = None):
        cells: dict[int, int] = {}
        for key, v in (data or {}).items():
            key = tuple(key)
            if len(key) != degree:
                raise ValueError("key length does not match degree")
            if any(not (1 <= g < group.order) for g in key):
                raise ValueError("cochain keys must avoid the identity")
            cells[cell_index(group, key)] = v
        self._set(group, degree, cells, p)

    def _set(self, group: FiniteGroup, degree: int, cells: dict,
             p: Optional[int], reduced: bool = False) -> None:
        self.group, self.degree, self.p = group, degree, p
        if p is None:
            self.cells = {k: v for k, v in cells.items() if v}
        else:
            self.cells = cells if reduced else {
                k: r for k, v in cells.items() if (r := v % p)}

    @classmethod
    def _trusted(cls, group: FiniteGroup, degree: int, cells: dict,
                 p: Optional[int], reduced: bool = False) -> "Cochain":
        """A cochain on cell indices that the caller built from valid
        cells: values are reduced mod p and zeros dropped, unless over F_p
        the caller wrote them reduced and nonzero."""
        self = cls.__new__(cls)
        self._set(group, degree, cells, p, reduced)
        return self

    @property
    def data(self) -> dict[tuple, int]:
        """A copy of the cochain keyed by n-tuples of element indices."""
        m, n = self.group.order - 1, self.degree
        return {tuple(j // m ** (n - 1 - i) % m + 1 for i in range(n)): v
                for j, v in self.cells.items()}

    # -- algebra --------------------------------------------------------------

    def _compat(self, other: "Cochain") -> None:
        if self.group is not other.group and self.group.mul != other.group.mul:
            raise ValueError("cochains live on different groups")
        if self.p != other.p:
            raise ValueError("coefficient mismatch")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._compat(other)
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        out, p = dict(self.cells), self.p
        get = out.get
        for k, v in other.cells.items():
            if p is None:
                out[k] = get(k, 0) + v
            elif r := (get(k, 0) + v) % p:  # reduced as written
                out[k] = r
            else:  # v != 0 mod p, so k was in out
                del out[k]
        return Cochain._trusted(self.group, self.degree, out, p, True)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + other.scale(-1)

    def scale(self, c: int) -> "Cochain":
        p, cells = self.p, self.cells.items()
        out = {k: c * v for k, v in cells} if p is None else {
            k: r for k, v in cells if (r := c * v % p)}
        return Cochain._trusted(self.group, self.degree, out, p, True)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Cochain) and self.degree == other.degree
                and self.p == other.p and self.cells == other.cells)

    def __hash__(self):
        return hash((self.degree, self.p, frozenset(self.cells.items())))

    def is_zero(self) -> bool:
        return not self.cells

    def __call__(self, key: Sequence[int]) -> int:
        key = tuple(key)
        if len(key) != self.degree or not all(0 < g < self.group.order
                                              for g in key):
            return 0  # outside the domain, the identity included
        return self.cells.get(cell_index(self.group, key), 0)

    def reduce_mod(self, p: int) -> "Cochain":
        if self.p is not None:
            raise ValueError("already modular")
        return Cochain._trusted(self.group, self.degree, self.cells, p)

    def lift_to_z(self) -> "Cochain":
        """Integer lift with values in 0..p-1."""
        if self.p is None:
            return self
        return Cochain._trusted(self.group, self.degree, self.cells, None)

    def __repr__(self):
        return (f"Cochain(deg={self.degree}, "
                f"{'Z' if self.p is None else 'F%d' % self.p}, "
                f"support={len(self.cells)})")


def zero_cochain(G: FiniteGroup, degree: int, p: Optional[int] = None) -> Cochain:
    return Cochain(G, degree, {}, p)


def constant_one(G: FiniteGroup, p: Optional[int] = None) -> Cochain:
    return Cochain(G, 0, {(): 1}, p)


def random_cochain(G: FiniteGroup, degree: int, p: int,
                   rng: random.Random) -> Cochain:
    m = G.order - 1
    cells = {}
    for _ in range(rng.randrange(1, 2 * m + 2)):
        j = 0
        for _ in range(degree):
            j = j * m + rng.randrange(1, m + 1) - 1
        cells[j] = rng.randrange(p)
    return Cochain._trusted(G, degree, cells, p)


# ---------------------------------------------------------------------------
# Coboundary, bar cells and coboundary matrices
# ---------------------------------------------------------------------------


# Terms written by delta of n-cochains on k cells, k * (2m + n(m - 1)) for
# m = |G| - 1: tests and benchmark at most 18,944 (C3 x C3, n = 3); massey
# on C128 8.2M (2.1 s, 234 MB), on C256 66M (22 s, 1.7 GB; Python 3.11).
MAX_COBOUNDARY_TERMS = 1 << 23


def _check_terms(G: FiniteGroup, n: int, cells: int) -> None:
    m = G.order - 1
    terms = cells * (2 * m + n * (m - 1))
    if terms > MAX_COBOUNDARY_TERMS:
        raise ResourceLimitError(
            f"the coboundary of {cells} {n}-cells of {G.name} writes "
            f"{terms} terms, above the limit {MAX_COBOUNDARY_TERMS}")


def coboundary(c: Cochain) -> Cochain:
    """delta c, cell by cell: with w = m^(n-i), m = |G| - 1, the entry t of
    the n-cell j = (hi*m + t - 1)*w + lo splits as a*b into the (n+1)-cell
    (hi*m*m + (a-1)*m + b-1)*w + lo.  ResourceLimitError above
    MAX_COBOUNDARY_TERMS."""
    G = c.group
    n = c.degree
    _check_terms(G, n, len(c.cells))
    m = G.order - 1
    size = m ** n
    splits: list[list[int]] = [[] for _ in range(m + 1)]  # t: (a-1)*m + b-1
    for a, row in enumerate(G.mul[1:], 1):
        for b in range(1, m + 1):
            if row[b]:
                splits[row[b]].append((a - 1) * m + b - 1)
    out: dict[int, int] = {}
    get = out.get
    sgn_last = -1 if (n + 1) % 2 else 1
    for j, v in c.cells.items():
        for k in range(j, j + m * size, size):  # front faces: prepend g
            out[k] = get(k, 0) + v
        w = size
        for i in range(1, n + 1):  # merged faces: entry i split as a*b
            w //= m
            s = -v if i % 2 else v
            hi, lo = divmod(j, w)
            hi, t = divmod(hi, m)
            base = hi * m * m * w + lo
            for mid in splits[t + 1]:
                k = base + mid * w
                out[k] = get(k, 0) + s
        s = sgn_last * v
        for k in range(j * m, j * m + m):  # back faces: append g
            out[k] = get(k, 0) + s
    return Cochain._trusted(G, n + 1, out, c.p)


def n_cells(G: FiniteGroup, n: int) -> int:
    return (G.order - 1) ** n


def cell_index(G: FiniteGroup, key: tuple) -> int:
    m = G.order - 1
    idx = 0
    for g in key:
        idx = idx * m + (g - 1)
    return idx


def _faces(G: FiniteGroup, n: int) -> tuple[int, int, list, list]:
    """(m, m^n, splits, positions) of delta_n after _check_terms: splits[t]
    lists the middle terms (a-1)*m + b-1 of t = a*b, b = a^-1 t != 1, and
    position i = 1..n is (w, w*m, (-1)^i) with w = m^(n-i)."""
    m = G.order - 1
    _check_terms(G, n, m ** n)
    mul, inv = G.mul, G.inv
    splits: list[list[int]] = [[] for _ in range(m + 1)]
    for a in range(1, m + 1):
        row = mul[inv[a]]
        for t in range(1, m + 1):
            if row[t]:
                splits[t].append((a - 1) * m + row[t] - 1)
    return m, m ** n, splits, [(m ** (n - i), m ** (n - i + 1),
                                -1 if i % 2 else 1) for i in range(1, n + 1)]


def coboundary_matrix(G: FiniteGroup, n: int, p: Optional[int] = None) -> SparseMatrix:
    """Matrix of delta: C^n -> C^(n+1); column j is the coboundary of the
    indicator cochain of the n-cell j, in coboundary's order of terms.
    Splitting the entry t at position i of cell j = (hi*m + t - 1)*w + lo
    as a*b gives the (n+1)-cell (hi*m*m + (a-1)*m + b-1)*w + lo (_faces).
    ResourceLimitError above MAX_COBOUNDARY_TERMS."""
    m, size, splits, positions = _faces(G, n)
    last = -1 if (n + 1) % 2 else 1
    cols: dict[int, dict[int, int]] = {}
    for j, key in enumerate(product(range(1, m + 1), repeat=n)):
        col = dict.fromkeys(range(j, j + m * size, size), 1)  # front faces
        get = col.get
        for (w, wm, s), t in zip(positions, key):
            base = j // wm * wm * m + j % w
            for mid in splits[t]:
                k = base + mid * w
                col[k] = get(k, 0) + s
        for k in range(j * m, j * m + m):  # back faces
            col[k] = get(k, 0) + last
        if p is None:
            col = {k: v for k, v in col.items() if v}
        else:
            col = {k: r for k, v in col.items() if (r := v % p)}
        if col:
            cols[j] = col
    M = SparseMatrix(m * size, size, p=p)
    M.cols = cols
    return M


def _plane_echelon(G: FiniteGroup, n: int) -> Echelon:
    """_augmented_echelon(coboundary_matrix(G, n, 3)), each column of
    [delta_n ; I] written as bit planes (P, M), as _planes writes it, of
    face patterns shifted into place: front faces and the bookkeeping
    coordinate m^(n+1) by j, back faces 2^m - 1 by j*m, and at position
    i the sum of 2^(mid*w) over splits[t] by the cell's base."""
    m, size, splits, positions = _faces(G, n)
    front = sum(1 << s * size for s in range(m)) | 1 << m * size
    back = (0, (1 << m) - 1) if (n + 1) % 2 else ((1 << m) - 1, 0)
    pats = [[(0, X) if s < 0 else (X, 0) for X in
             (sum(1 << mid * w for mid in mids) for mids in splits)]
            for w, _, s in positions]
    ech = Echelon(3)
    for j, key in enumerate(product(range(1, m + 1), repeat=n)):
        faces = [(pat[t], j // wm * wm * m + j % w)
                 for (w, wm, _), pat, t in zip(positions, pats, key)]
        faces.append((back, j * m))
        P, M = front << j, 0
        for (R, S), b in faces:
            R, S = R << b, S << b
            x = (P | S) ^ (M | R)  # V + (R, S) in six operations
            P, M = (M | S) ^ x, (P | R) ^ x
        x = P | M
        lo = (x & -x).bit_length() - 1
        ech._add3(lo, P >> lo, M >> lo)
    return ech


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------


def cup(u: Cochain, v: Cochain) -> Cochain:
    u._compat(v)
    shift = (u.group.order - 1) ** v.degree  # cell i, then cell j: i*shift + j
    us, vs, p = u.cells.items(), v.cells.items(), u.p
    out = {i * shift + j: a * b for i, a in us for j, b in vs} if p is None \
        else {i * shift + j: r for i, a in us for j, b in vs
              if (r := a * b % p)}
    return Cochain._trusted(u.group, u.degree + v.degree, out, p, True)


def cup1(u: Cochain, v: Cochain) -> Cochain:
    """Cup-1 product: degree |u|+|v|-1, satisfying exactly
      delta(u cup1 v) = -delta(u) cup1 v - (-1)^|u| u cup1 delta(v)
                        + u v - (-1)^{|u||v|} v u
    and the Hirsch formula
      (u v) cup1 w = (-1)^|u| u (v cup1 w) + (-1)^{|v||w|} (u cup1 w) v.
    The index/sign formula below is an implementation detail pinned down by
    those two identities (see the test suite); an exact linear solve shows
    the sign table is the unique one (up to the global flip fixed by the
    +uv term) for which any coboundary formula of this shape can hold.
    """
    u._compat(v)
    G = u.group
    mul = G.mul
    pdeg, qdeg = u.degree, v.degree
    if pdeg == 0 or qdeg == 0:
        return zero_cochain(G, max(pdeg + qdeg - 1, 0), u.p)
    m = G.order - 1
    # group v's support by the product of its cell's entries
    by_product: dict[int, list[tuple[int, int]]] = {}
    for j, b in v.cells.items():
        prod, x = 0, j
        for _ in range(qdeg):  # from the last entry: g_i * (g_(i+1) ...)
            x, t = divmod(x, m)
            prod = mul[t + 1][prod]
        by_product.setdefault(prod, []).append((j, b))
    shift = m ** qdeg
    weights = [(m ** (pdeg - 1 - i), _cup1_sign(pdeg, qdeg, i))
               for i in range(pdeg)]
    out: dict[int, int] = {}
    get = out.get
    for i_u, a in u.cells.items():
        for w, s in weights:
            hi, lo = divmod(i_u, w)
            hi, t = divmod(hi, m)
            pairs = by_product.get(t + 1)
            if pairs:
                s *= a
                hi *= shift
                for j, b in pairs:
                    k = (hi + j) * w + lo
                    out[k] = get(k, 0) + s * b
    return Cochain._trusted(G, pdeg + qdeg - 1, out, u.p)


def _cup1_sign(pdeg: int, qdeg: int, i: int) -> int:
    # pinned by the coboundary and Hirsch identities (see cup1 docstring)
    return -1 if (qdeg * (pdeg + 1) + i * (qdeg + 1) + 1) % 2 else 1


# ---------------------------------------------------------------------------
# Class machinery: canonical representatives modulo coboundaries
# ---------------------------------------------------------------------------


# One entry per (group digest, degree n, ring) used in the process: the
# shape of delta_n and the echelon of the columns of [delta_n ; I], at
# most n_cols rows of n_rows + n_cols coordinates.  It is not bounded: a
# CLI process runs one job, which makes a few entries (the massey
# scenario six, criterion 5 nine).  A long-lived caller may clear it.
_SOLVERS: dict[tuple, "CoboundarySolver"] = {}


class CoboundarySolver:
    """One elimination of delta_n: C^n -> C^(n+1) for (G, n, ring), the
    echelon of the columns of [delta_n ; I] (exact_linalg's augmented
    echelon, over F_3 from bit-plane columns: _plane_echelon), whose cell
    coordinates are a Cochain's cell indices.  Its kernel rows are the
    n-cocycles (cocycle_basis), the cell coordinates of a residue are the
    canonical representative of a class modulo coboundaries (reduce), and
    the bookkeeping coordinates of a coboundary's residue give a primitive
    (find_primitive).  They come after every cell coordinate, so every
    pivot and multiplier on cells is that of a plain echelon of delta_n's
    columns, and so are the cell residues."""

    def __init__(self, G: FiniteGroup, n: int, p: Optional[int]):
        self.G, self.n, self.p = G, n, p
        self.shape = (n_cells(G, n + 1), n_cells(G, n))
        self.ech = _plane_echelon(G, n) if p == 3 else \
            _augmented_echelon(coboundary_matrix(G, n, p))

    def reduce(self, c: Cochain) -> Cochain:
        n_rows = self.shape[0]
        res = self.ech.reduce(c.cells)
        return Cochain._trusted(self.G, c.degree,
                                {k: v for k, v in res.items() if k < n_rows},
                                self.p)


def _solver(G: FiniteGroup, n: int, p: Optional[int]) -> CoboundarySolver:
    key = (G.digest(), n, p)
    if key not in _SOLVERS:
        _SOLVERS[key] = CoboundarySolver(G, n, p)
    return _SOLVERS[key]


def is_cocycle(c: Cochain) -> bool:
    return coboundary(c).is_zero()


def is_coboundary(c: Cochain) -> bool:
    """Whether c's residue modulo the coboundaries has no cell coordinate:
    one sweep that ends at the residue's least coordinate."""
    if c.degree == 0:
        return c.is_zero()
    sol = _solver(c.group, c.degree - 1, c.p)
    return not sol.ech.reduce(c.cells, sol.shape[0])


def class_equal(u: Cochain, v: Cochain) -> bool:
    u._compat(v)
    if u.degree != v.degree:
        raise ValueError("degree mismatch")
    return is_coboundary(u - v)


def find_primitive(c: Cochain) -> Optional[Cochain]:
    """Some cochain a with delta(a) = c, or None.  delta(a) = c is checked
    before a is returned (ArithmeticError otherwise)."""
    if c.degree == 0:
        return None
    G, n = c.group, c.degree - 1
    sol = _solver(G, n, c.p)
    x = _solve_augmented(sol.ech, sol.shape[0], c.cells)
    if x is None:
        return None
    a = Cochain._trusted(G, n, x, c.p)
    if coboundary(a) != c:
        raise ArithmeticError("primitive certificate failed: delta(a) != c")
    return a


def cocycle_basis(G: FiniteGroup, n: int, p: int) -> list[Cochain]:
    """Basis of the degree-n cocycles over F_p."""
    if n == 0:
        return [constant_one(G, p)]
    sol = _solver(G, n, p)
    return [Cochain._trusted(G, n, vec, p)
            for vec in _kernel_from_augmented(sol.ech, sol.shape[0])]


def _independent_classes(cands: list[Cochain], G: FiniteGroup, n: int,
                         p: Optional[int]) -> list[Cochain]:
    """The degree-n candidates whose classes are independent of the
    classes of the candidates before them, in order: one sweep each
    through a copy of the echelon of [delta_(n-1) ; I], and a candidate
    whose residue has a cell coordinate is kept and added to the copy."""
    if n == 0:
        span = Echelon(p=p)
        return [c for c in cands if span.add(c.cells)]
    sol = _solver(G, n - 1, p)
    span, n_rows = sol.ech.copy(), sol.shape[0]
    kept = []
    for c in cands:
        if span.reduce(c.cells, n_rows):
            span.add(c.cells)
            kept.append(c)
    return kept


def class_basis(G: FiniteGroup, n: int, p: int) -> list[Cochain]:
    """Cocycle representatives of a basis of H^n(G;F_p)."""
    return _independent_classes(cocycle_basis(G, n, p), G, n, p)


@dataclass
class CohomologyClass:
    representative: Cochain

    def __post_init__(self):
        if not is_cocycle(self.representative):
            raise ValueError("representative is not a cocycle")

    @property
    def degree(self) -> int:
        return self.representative.degree


# ---------------------------------------------------------------------------
# Bockstein and Massey products
# ---------------------------------------------------------------------------


def bockstein(u: Cochain, kind: str = "beta") -> Cochain:
    """delta_p(u) = (1/p) delta(lift of u) over Z; beta = mod-p reduction."""
    if u.p is None:
        raise ValueError("Bockstein needs F_p coefficients")
    if not is_cocycle(u):
        raise ValueError("Bockstein input must be a cocycle")
    p = u.p
    cells = {}
    for k, v in coboundary(u.lift_to_z()).cells.items():
        if v % p != 0:
            raise ArithmeticError("coboundary of the lift not divisible by p")
        cells[k] = v // p
    delta_p = Cochain._trusted(u.group, u.degree + 1, cells, None)
    if kind == "delta_p":
        return delta_p
    if kind == "beta":
        return delta_p.reduce_mod(p)
    raise ValueError("kind must be 'beta' or 'delta_p'")


@dataclass
class MasseyResult:
    representative: CohomologyClass
    indeterminacy: list[Cochain] = field(default_factory=list)

    def is_zero_modulo_indeterminacy(self) -> bool:
        rep = self.representative.representative
        return self.equals_cochain(zero_cochain(rep.group, rep.degree, rep.p))

    def equals_cochain(self, other: Cochain) -> bool:
        diff = self.representative.representative - other
        kept = _independent_classes(self.indeterminacy + [diff], diff.group,
                                    diff.degree, diff.p)
        return not kept or kept[-1] is not diff


def massey(u: Cochain, v: Cochain, w: Cochain) -> MasseyResult:
    """Triple Massey product <[u],[v],[w]> with indeterminacy basis: the
    1 x 1 matric product <(u), (v), (w)>."""
    return matrix_massey([u], [[v]], [w])


def matrix_massey(U: list[Cochain], V: list[list[Cochain]],
                  W: list[Cochain]) -> MasseyResult:
    """<U, V, W> for a row U (1 x s), matrix V (s x t), column W (t x 1):
    J. P. May's matric Massey product (J. Algebra 12, 1969).  With
    delta(A_j) = sum_i u_i v_ij and delta(B_i) = sum_j v_ij w_j, the
    representative is sum_i (-1)^|u_i| u_i B_i - sum_j A_j w_j, and the
    indeterminacy is spanned by the u_i H + H w_j."""
    s, t = len(U), len(W)
    if len(V) != s or any(len(row) != t for row in V):
        raise ValueError("shape mismatch")
    for c in U + W + [x for row in V for x in row]:
        if not is_cocycle(c):
            raise ValueError("Massey inputs must be cocycles")
    A = [_primitive_of_sum([cup(U[i], V[i][j]) for i in range(s)])
         for j in range(t)]
    B = [_primitive_of_sum([cup(V[i][j], W[j]) for j in range(t)])
         for i in range(s)]
    terms = [cup(u, b).scale(-1 if u.degree % 2 else 1)
             for u, b in zip(U, B)]
    terms += [cup(a, w).scale(-1) for a, w in zip(A, W)]
    rep = sum(terms[1:], terms[0])
    G, n, p = rep.group, rep.degree, rep.p

    def classes(d: int) -> list[Cochain]:
        return class_basis(G, d, p) if d >= 0 else []

    cands = [cup(u, z) for u in U for z in classes(n - u.degree)]
    cands += [cup(z, w) for w in W for z in classes(n - w.degree)]
    return MasseyResult(CohomologyClass(rep),
                        _independent_classes(cands, G, n, p))


def _primitive_of_sum(terms: list[Cochain]) -> Cochain:
    prim = find_primitive(sum(terms[1:], terms[0]))
    if prim is None:
        raise ValueError("Massey product undefined: a product of adjacent "
                         "entries is not a coboundary")
    return prim


# ---------------------------------------------------------------------------
# Restriction and transfer
# ---------------------------------------------------------------------------


def restrict(c: Cochain, H: Subgroup) -> Cochain:
    """Restriction to a subgroup: precomposition, on the subgroup's own
    element numbering."""
    Hg = H.as_group()
    m, mh = c.group.order - 1, Hg.order - 1
    idx = H.index_of
    cells = {}
    for j, v in c.cells.items():
        k, w = 0, 1
        for _ in range(c.degree):  # from the last entry
            j, t = divmod(j, m)
            h = idx.get(t + 1)
            if h is None:
                break
            k += (h - 1) * w
            w *= mh
        else:
            cells[k] = v
    return Cochain._trusted(Hg, c.degree, cells, c.p)


def transfer(c: Cochain, H: Subgroup) -> Cochain:
    """Corestriction (transfer) of a cochain on H up to the parent group,
    via a fixed left transversal.  Reading a cell from its last entry, g
    moves the coset of the transversal element t_r to the coset of
    g*t_r = t_j*h, and a cell whose walk meets h = 1 contributes nothing
    (normalization).  The walks of the cells of length L + 1 extend those
    of length L by an entry in front: walk i*k + r, from t_r, is k times
    the index in H of the cell it spells plus the j it ends at, or -1."""
    G = H.parent
    Hg = H.as_group()
    if c.group.mul != Hg.mul:
        raise ValueError("cochain does not live on the given subgroup")
    mul, inv = G.mul, G.inv
    trans, idx = H.transversal, H.index_of
    k = len(trans)
    coset_of = {mul[t][h]: j for j, t in enumerate(trans) for h in H.members}
    n = c.degree
    m = G.order - 1
    if n == 0:
        return Cochain._trusted(G, 0, {0: k * c.cells.get(0, 0)}, c.p)
    limit = (m ** n) * k
    if limit > 4_000_000:
        raise ResourceLimitError(f"transfer would evaluate {limit} terms")
    walks, w = list(range(k)), k  # w = k * (|H| - 1)^L
    for _ in range(n):
        longer: list[int] = []
        for g in range(1, m + 1):  # g moves walk x from t_r to x + moves[r]
            moves = []
            for r, t in enumerate(trans):
                j = coset_of[mul[g][t]]
                h = idx[mul[inv[trans[j]]][mul[g][t]]]
                moves.append(j - r + (h - 1) * w if h else None)
            longer += [-1 if x < 0 or (d := moves[x % k]) is None else x + d
                       for x in walks]
        walks, w = longer, w * (Hg.order - 1)
    get = c.cells.get  # a walk -1 reads cell -1, which is never set
    vals = [get(x // k, 0) for x in walks]
    return Cochain._trusted(G, n, dict(enumerate(
        map(sum, zip(*[iter(vals)] * k)))), c.p)


# ---------------------------------------------------------------------------
# Dimensions and integral cohomology (resolution engine)
# ---------------------------------------------------------------------------


def cohomology_dims_mod_p(G: FiniteGroup, p: int, max_degree: int,
                          cache_dir: Optional[str] = None) -> list[int]:
    """[dim H^n(G;F_p) for n = 0..max_degree].  Field coefficients make
    cohomology and homology dimensions equal degreewise.
    ResourceLimitError past the resolution's work bound."""
    res = resolution_for(G, p, cache_dir)
    return res.homology_dims_mod_p(p, max_degree)


def integral_cohomology(G: FiniteGroup, n: int,
                        cache_dir: Optional[str] = None) -> tuple[int, tuple[int, ...]]:
    """H^n(G;Z) for n >= 1 as (rank, torsion divisors): rank is 0 for a
    finite group and the torsion equals that of H_(n-1)(G;Z), whose p-part
    comes from the F_p resolution lifted to Z/p^k G, one prime p dividing
    |G| at a time.  A nonzero free rank is a failed certificate.
    ResourceLimitError past the resolution's work bound."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return (0, ())
    parts = []
    for p in _prime_factors(G.order):
        res = resolution_for(G, p, cache_dir, integral=True)
        rank, torsion = res.integral_homology(n - 1)
        if rank != 0:
            raise ArithmeticError("nonzero homology rank for a finite group")
        parts.append(torsion)
    return (0, _invariant_factors(parts))


def _invariant_factors(parts: list[tuple[int, ...]]) -> tuple[int, ...]:
    """The invariant factors (each dividing the next) of the direct sum of
    p-groups, each given by its ascending p-power divisors: the i-th
    largest factor is the product of the i-th largest divisors."""
    width = max(map(len, parts), default=0)
    factors = [1] * width
    for part in parts:
        for i, d in enumerate(part, width - len(part)):
            factors[i] *= d
    return tuple(factors)
