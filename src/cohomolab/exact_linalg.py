"""Sparse exact linear algebra over Z and prime fields F_p.

Ranks, kernels, Smith normal form and exact linear solves on sparse
matrices with arbitrary-precision integer arithmetic.  No floating point
anywhere.  All operations are pure functions of immutable inputs and are
deterministic (fixed reduction order of the row basis).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import Iterable, Optional, Sequence, TextIO


class ResourceLimitError(RuntimeError):
    """A computation exceeded its configured feasibility limit."""


class SparseMatrix:
    """Immutable sparse matrix over Z (p=None), F_p (p prime) or Z/m
    (p = m, a modulus >= 2; the lifted resolutions use m = p^k).

    Entries are stored column-major as {col: {row: value}} with no zero
    values kept.  Values mod p are normalized to 0..p-1.
    """

    __slots__ = ("n_rows", "n_cols", "p", "cols")

    def __init__(self, n_rows: int, n_cols: int,
                 entries: Iterable[tuple[int, int, int]] = (), p: Optional[int] = None):
        if n_rows < 0 or n_cols < 0:
            raise ValueError("negative dimensions")
        if p is not None and p < 2:
            raise ValueError("modulus must be >= 2")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.p = p
        cols: dict[int, dict[int, int]] = {}
        for i, j, v in entries:
            if not (0 <= i < n_rows and 0 <= j < n_cols):
                raise ValueError(f"index ({i},{j}) out of range")
            if p is not None:
                v %= p
            if v == 0:
                continue
            col = cols.setdefault(j, {})
            if i in col:
                raise ValueError(f"duplicate entry at ({i},{j})")
            col[i] = v
        self.cols = cols

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_dense(cls, rows: list[list[int]], p: Optional[int] = None) -> "SparseMatrix":
        n_rows = len(rows)
        n_cols = len(rows[0]) if rows else 0
        ent = [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
        return cls(n_rows, n_cols, ent, p)

    @classmethod
    def identity(cls, n: int, p: Optional[int] = None) -> "SparseMatrix":
        return cls(n, n, [(i, i, 1) for i in range(n)], p)

    # -- basic queries --------------------------------------------------------

    def nnz(self) -> int:
        return sum(len(c) for c in self.cols.values())

    def entries(self) -> list[tuple[int, int, int]]:
        out = []
        for j in sorted(self.cols):
            col = self.cols[j]
            for i in sorted(col):
                out.append((i, j, col[i]))
        return out

    # -- text dump ("coordinate" format) --------------------------------------

    def dump(self, fh: TextIO) -> None:
        """Write the coordinate text to the open file fh, one column at a
        time, so a dump never holds more than one column's lines.  The
        header names the ring: Z, F<p> for a prime p, else Z/<m>."""
        p = self.p
        domain = "Z" if p is None else f"F{p}" if is_prime(p) else f"Z/{p}"
        fh.write(f"{self.n_rows} {self.n_cols} {self.nnz()} {domain}\n")
        for j in sorted(self.cols):
            col = self.cols[j]
            fh.write("".join([f"{i} {j} {col[i]}\n" for i in sorted(col)]))

    @classmethod
    def load(cls, text: str) -> "SparseMatrix":
        """Read dump's text: the entry tokens in one pass, each entry
        checked by the constructor."""
        head, _, body = text.lstrip().partition("\n")
        head = head.split()
        if len(head) != 4:
            raise ValueError("bad coordinate header")
        n_rows, n_cols, nnz = int(head[0]), int(head[1]), int(head[2])
        dom = head[3]
        p = None if dom == "Z" else int(dom[2 if dom[:2] == "Z/" else 1:])
        values = list(map(int, body.split()))
        if len(values) != 3 * nnz:
            raise ValueError("nnz mismatch in coordinate dump")
        it = iter(values)
        return cls(n_rows, n_cols, zip(it, it, it), p)


# ---------------------------------------------------------------------------
# Echelon engine: a growing basis of sparse vectors with pivot = least
# nonzero coordinate.  Streaming columns into this basis is the rank/solve
# workhorse for the very wide boundary matrices.
# ---------------------------------------------------------------------------


class _Packing:
    """F_p vectors packed into one int, k bytes per coordinate, for p != 3
    (F_3 rows are bit planes, see _planes).

    Field j of a packed vector (bits 8k*j .. 8k*j + 8k - 1) holds, in
    0..p-1, the coordinate at the vector's base index plus j.  A step
    Y = V + c*R with c in 1..p-1 leaves every field y at most p*p - p, so
    fields never carry into each other, and one Barrett reduction
    Y - p*(((Y*m) >> s) & mask) brings them all back to 0..p-1: it takes
    floor(y*m / 2**s) = floor(y / p) in every field, exactly, because
    (m*p - 2**s)*(p*p - p) < 2**s, and y*m < 2**(8k) keeps each product
    inside its own field.  k is the least power of two allowing that.
    """

    __slots__ = ("p", "k", "w", "low", "window", "s", "m", "unit", "inverse")

    def __init__(self, p: int):
        top = p * p - p  # largest field of V + c*R
        s = ((p - 1) * top).bit_length()  # as m*p - 2**s <= p - 1
        m = -(-(1 << s) // p)
        k = 1 << (-(-(top * m).bit_length() // 8) - 1).bit_length()
        if not ((m * p - (1 << s)) * top < 1 << s and top * m < 1 << 8 * k):
            raise ArithmeticError(f"no exact packed reduction mod {p}")
        self.p, self.k, self.w, self.s, self.m = p, k, 8 * k, s, m
        self.low = (1 << 8 * k) - 1  # field 0
        self.window = (1 << 64 * k) - 1  # fields 0..7
        self.unit = ((1 << 8 * k - s) - 1).to_bytes(k, "little")  # of mask
        self.inverse = _Inverses(p)

    def pack(self, vec: dict[int, int]) -> tuple[int, int]:
        """(base, V): vec mod p packed from base, with field 0 of V nonzero,
        or V = 0 when vec is zero mod p."""
        if not vec:
            return 0, 0
        p, w = self.p, self.w
        lo = min(vec)
        if len(vec) <= _FEW:  # a few shifts beat building a whole buffer
            V = 0
            for i, v in vec.items():
                V |= v % p << (i - lo) * w
        else:
            k = self.k
            data = bytearray((max(vec) - lo + 1) * k)
            if p <= 256:
                for i, v in vec.items():
                    data[(i - lo) * k] = v % p
            else:
                for i, v in vec.items():
                    j = (i - lo) * k
                    data[j:j + k] = (v % p).to_bytes(k, "little")
            V = int.from_bytes(data, "little")
        if V and not V & self.low:
            t = ((V & -V).bit_length() - 1) // w
            V >>= t * w
            lo += t
        return lo, V

    def fields(self, V: int) -> Iterable[int]:
        """The fields of V, lowest first."""
        k = self.k
        data = V.to_bytes(-(-V.bit_length() // self.w) * k, "little")
        if self.p <= 256:
            return data[::k]
        return [int.from_bytes(data[i:i + k], "little")
                for i in range(0, len(data), k)]


class _Inverses(dict):
    """Inverses mod p, computed on first use."""

    def __init__(self, p: int):
        super().__init__()
        self.p = p

    def __missing__(self, a: int) -> int:
        inv = self[a] = pow(a, -1, self.p)
        return inv


_FEW = 16
_PACKINGS: dict[int, _Packing] = {}


def _packing(p: int) -> _Packing:
    pk = _PACKINGS.get(p)
    if pk is None:
        pk = _PACKINGS[p] = _Packing(p)
    return pk


# F_3 coordinates 0, 1, 2 as the bytes of a binary numeral for each plane,
# and the digits 0, 1, 2 as the coordinates
_ONES = bytes.maketrans(b"\0\1\2", b"010")
_TWOS = bytes.maketrans(b"\0\1\2", b"001")
_DIGITS = bytes.maketrans(b"012", b"\0\1\2")
_WINDOW = (1 << 64) - 1


def _planes(vec: dict[int, int]) -> tuple[int, int, int]:
    """(base, P, M): vec mod 3 as two bit planes from base, bit j of P (of
    M) set where the coordinate base + j is 1 (is 2), and bit 0 set in one
    of them; P = M = 0 when vec is zero mod 3.  A few entries are shifted
    in one by one, and more fill a byte per coordinate that is read as two
    binary numerals."""
    if not vec:
        return 0, 0, 0
    lo = min(vec)
    P = M = 0
    if len(vec) <= _FEW:
        for i, v in vec.items():
            v %= 3
            if v == 1:
                P |= 1 << i - lo
            elif v:
                M |= 1 << i - lo
    else:
        data = bytearray(max(vec) - lo + 1)
        for i, v in vec.items():
            data[i - lo] = v % 3
        data.reverse()  # the highest coordinate is the first digit
        P, M = int(data.translate(_ONES), 2), int(data.translate(_TWOS), 2)
    x = P | M
    if x and not x & 1:
        t = (x & -x).bit_length() - 1
        P, M, lo = P >> t, M >> t, lo + t
    return lo, P, M


class Echelon:
    """Echelon basis of a subspace (F_p) or sublattice (Z) of Z^N.

    Vectors are sparse dicts {index: value} with pivot at their least
    nonzero coordinate; by construction every basis vector has zeros at all
    earlier pivots, so membership testing by successive pivot division is
    exact, over Z as well.  All updates are unimodular, so the spanned
    lattice is preserved exactly.

    Over Z, basis maps each pivot to its row as a sparse dict, with a
    positive pivot value.  Only an incoming row is size-reduced against the
    rows already stored; rows stored earlier are never re-reduced when a
    later row arrives.  Re-reducing them made the entries grow, not shrink,
    and residues do not need it: floor reduction at each pivot gives the
    same residue for any echelon basis of the lattice, since the pivot
    positions and values are invariants of the lattice.  Over F_p it
    maps each pivot to (packed row, inverse of the pivot value), the row
    packed from its pivot (see _Packing), and over F_3 to the row's two
    bit planes (P, M) from its pivot (see _planes); row(piv) unpacks one.
    Rows are never normalised: a row keeps the pivot value it arrived
    with, so the stored rows, residues and kernel rows are the same in
    every layout.
    """

    __slots__ = ("p", "basis", "_pivots", "_pk", "_mask", "_mask_bits")

    def __init__(self, p: Optional[int] = None):
        self.p = p
        self.basis: dict = {}  # pivot index -> row
        self._pivots: list[int] = []  # over Z: the pivots, increasing
        self._pk = None if p is None or p == 3 else _packing(p)
        # over F_p, p != 3: the low 8k - s bits of every field in the first
        # _mask_bits bits, which cover every Y swept so far
        self._mask = self._mask_bits = 0

    def reduce(self, vec: dict[int, int],
               stop: Optional[int] = None) -> dict[int, int]:
        """Canonical residue of vec modulo the spanned lattice (without
        inserting): coordinates at pivot positions are fully eliminated over
        F_p and floor-reduced over Z, sweeping in increasing position.  The
        residue is zero exactly when vec lies in the span.  With stop, only
        the residue's coordinates below stop are asked for: the result is
        empty when they are all zero, and else holds the least of them
        alone, where an F_p sweep ends (a row changes coordinates from its
        own pivot on, so the residue is final below the sweep)."""
        if self.p == 3:
            if stop is not None:
                lo, P, M = self._sweep3(*_planes(vec))
                if (P or M) and lo < stop:
                    return {lo: 1 if P & 1 else 2}
                return {}
            res: dict[int, int] = {}
            self._sweep3(*_planes(vec), res)
            return res
        pk = self._pk
        if pk is not None:
            if stop is not None:
                lo, V = self._sweep(*pk.pack(vec))
                return {lo: V & pk.low} if V and lo < stop else {}
            res: dict[int, int] = {}
            self._sweep(*pk.pack(vec), res)
            return res
        vec = {k: v for k, v in vec.items() if v}
        self._reduce_z(vec, -1)
        if stop is not None:
            lo = min((k for k in vec if k < stop), default=None)
            return {} if lo is None else {lo: vec[lo]}
        return vec

    def copy(self) -> "Echelon":
        """An echelon of the same span that is added to independently."""
        other = Echelon(self.p)
        if self.p is None:  # Z rows are dicts that add changes in place
            other.basis = {piv: dict(row) for piv, row in self.basis.items()}
        else:
            other.basis = dict(self.basis)
        other._pivots = list(self._pivots)
        other._mask, other._mask_bits = self._mask, self._mask_bits
        return other

    def _reduce_z(self, vec: dict[int, int], lo: int) -> None:
        """Floor-reduce vec in place at every pivot position above lo, in
        increasing position (a row only changes coordinates from its own
        pivot on)."""
        basis, pivots = self.basis, self._pivots
        for piv in pivots[bisect_right(pivots, lo):]:
            b = vec.get(piv)
            if b:
                row = basis[piv]
                q = b // row[piv]  # floor: vec[piv] ends in [0, row[piv])
                if q:
                    _axpy(vec, row, -q)
                    if not vec:
                        return

    def add(self, vec: dict[int, int]) -> bool:
        """Insert vec into the spanned lattice.  Returns True if rank grew."""
        if self.p == 3:
            lo, P, M = _planes(vec)  # not *_planes(vec): that call is slower
            return self._add3(lo, P, M)
        pk = self._pk
        if pk is not None:
            lo, V = pk.pack(vec)
            basis = self.basis
            if lo in basis:
                lo, V = self._sweep(lo, V)
            if not V:
                return False
            basis[lo] = (V, pk.inverse[V & pk.low])
            return True
        vec = {k: v for k, v in vec.items() if v}
        while vec:
            piv = min(vec)
            row = self.basis.get(piv)
            if row is None:
                self._store(piv, vec)
                return True
            a = row[piv]
            b = vec[piv]
            if b % a == 0:
                _axpy(vec, row, -(b // a))
            elif a % b == 0:
                self._store(piv, vec)
                q = a // b
                _axpy(row, vec, -q)
                vec = row
            else:
                g, x, y = _xgcd(a, b)
                new_row = _combine(row, vec, x, y)
                new_vec = _combine(row, vec, -(b // g), a // g)
                self._store(piv, new_row)
                vec = new_vec
        return False

    def _add3(self, lo: int, P: int, M: int) -> bool:
        """add over F_3 of a vector as _planes writes it."""
        if lo in self.basis:
            lo, P, M = self._sweep3(lo, P, M)
        if not (P or M):
            return False
        self.basis[lo] = (P, M)
        return True

    def _sweep(self, lo: int, V: int,
               res: Optional[dict[int, int]] = None) -> tuple[int, int]:
        """Sweep the packed vector V (base lo) against the basis over F_p,
        in increasing position: a field with a row R is eliminated,
        V - (V_0 / R_0)*R mod p.  The first field without a row ends the
        sweep, returning (base, V), unless res is given: then the field
        moves into res and the sweep goes on.  Returns (lo, 0) when nothing
        is left."""
        pk, basis = self._pk, self.basis
        p, w, low, window, m, s = pk.p, pk.w, pk.low, pk.window, pk.m, pk.s
        mask, width = self._mask, self._mask_bits
        while V:
            row = basis.get(lo)
            if row is None:
                if res is None:
                    return lo, V
                res[lo] = b = V & low
                V -= b
            else:
                R, inv = row
                Y = V + (p - (V & low) * inv % p) * R
                if Y.bit_length() > width:  # widen the mask, at least 2x
                    n = max(-(-Y.bit_length() // w), 2 * width // w)
                    self._mask = mask = int.from_bytes(pk.unit * n, "little")
                    self._mask_bits = width = n * w
                V = Y - p * ((Y * m >> s) & mask)
                if V < 0 or V & low:  # so every step moves past its pivot
                    raise ArithmeticError(f"packed elimination mod {p} failed")
            if V:  # skip to the lowest nonzero field, most often a near one
                x = V & window or V
                t = ((x & -x).bit_length() - 1) // w
                V >>= t * w
                lo += t
        return lo, 0

    def _sweep3(self, lo: int, P: int, M: int,
                res: Optional[dict[int, int]] = None) -> tuple[int, int, int]:
        """_sweep over F_3 on the bit planes (P, M) of V.  At a row (R, S)
        with V_0 = R_0, V - R is V + (S, R), as negation swaps the planes;
        otherwise V - 2R is V + (R, S).  A sum of planes takes six
        operations (Kawahara, Aoki & Takagi, Pairing 2008).  Returns
        (lo, 0, 0) when nothing is left."""
        basis = self.basis
        while P or M:
            row = basis.get(lo)
            if row is None:
                if res is None:
                    return lo, P, M
                res[lo] = 1 if P & 1 else 2
                x = (P & _WINDOW | M & _WINDOW) >> 1 or (P | M) >> 1
                if not x:
                    break
                t = (x & -x).bit_length()  # past field 0, now in res
            else:
                R, S = row
                if (P & 1) == (R & 1):  # V_0 = R_0
                    R, S = S, R
                t = (P | S) ^ (M | R)
                P, M = (M | S) ^ t, (P | R) ^ t
                # the lowest nonzero field, most often a near one
                x = P & _WINDOW | M & _WINDOW or P | M
                if x & 1:  # so every step moves past its pivot
                    raise ArithmeticError("bit-plane elimination mod 3 failed")
                if not x:
                    break
                t = (x & -x).bit_length() - 1
            P, M, lo = P >> t, M >> t, lo + t
        return lo, 0, 0

    def row(self, piv: int) -> dict[int, int]:
        """The basis row with pivot piv, as a sparse dict."""
        if self.p == 3:  # read in hex, a binary numeral has a digit per bit
            P, M = self.basis[piv]
            data = f"{int(f'{P:b}', 16) + 2 * int(f'{M:b}', 16):x}".encode()
            data = data[::-1].translate(_DIGITS)  # coordinate j in byte j
            return {piv + j: v for j, v in enumerate(data) if v}
        if self._pk is None:
            return dict(self.basis[piv])
        return {piv + j: v for j, v in
                enumerate(self._pk.fields(self.basis[piv][0])) if v}

    def _store(self, piv: int, vec: dict[int, int]) -> None:
        """Install vec as the basis row with pivot piv over Z: a positive
        pivot value, and the coordinates at later pivots floor-reduced
        modulo their rows (size reduction of the incoming row only)."""
        if vec[piv] < 0:
            vec = {k: -v for k, v in vec.items()}
        self._reduce_z(vec, piv)
        if piv not in self.basis:
            insort(self._pivots, piv)
        self.basis[piv] = vec

    @property
    def rank(self) -> int:
        return len(self.basis)


def _axpy(vec: dict[int, int], row: dict[int, int], c: int) -> None:
    """vec += c * row over Z, in place, dropping zeros."""
    if c == 0:
        return
    for k, v in row.items():
        nv = vec.get(k, 0) + c * v
        if nv:
            vec[k] = nv
        else:
            vec.pop(k, None)


def _combine(u: dict[int, int], v: dict[int, int], a: int, b: int) -> dict[int, int]:
    out: dict[int, int] = {}
    if a:
        for k, x in u.items():
            out[k] = a * x
    if b:
        for k, x in v.items():
            nv = out.get(k, 0) + b * x
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
    return out


def composes_to_zero(A: SparseMatrix, B: SparseMatrix,
                     cols: Iterable[int]) -> bool:
    """Whether A * B vanishes on the given columns of B, modulo B's
    modulus B.p if set (p^k for a lifted resolution)."""
    for j in cols:
        acc: dict[int, int] = {}
        for k, v in B.cols.get(j, {}).items():
            _axpy(acc, A.cols.get(k, {}), v)
        if any(x % B.p for x in acc.values()) if B.p else acc:
            return False
    return True


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithReport:
    elementary_divisors: tuple[int, ...]
    rank: int

    def __post_init__(self):
        divs = self.elementary_divisors
        for a, b in zip(divs, divs[1:]):
            if b % a != 0:
                raise ValueError("divisor chain violated")
        if len(divs) != self.rank:
            raise ValueError("rank must equal number of divisors")

    @property
    def torsion(self) -> tuple[int, ...]:
        """Divisors > 1 (the cokernel torsion is the direct sum of Z/d)."""
        return tuple(d for d in self.elementary_divisors if d > 1)


def rank_mod_p(M: SparseMatrix) -> int:
    """Rank of M as an F_p linear map (streaming column reduction)."""
    if M.p is None:
        raise ValueError("rank_mod_p requires a matrix over F_p")
    ech = Echelon(p=M.p)
    for j in sorted(M.cols):
        ech.add(M.cols[j])
    return ech.rank


def _augmented_echelon(M: SparseMatrix) -> Echelon:
    """Echelon of the columns of [M ; I]: row coordinates 0..n_rows-1,
    then one bookkeeping coordinate per column."""
    n = M.n_rows
    ech = Echelon(p=M.p)
    for j in range(M.n_cols):
        vec = dict(M.cols.get(j, ()))
        vec[n + j] = 1
        ech.add(vec)
    return ech


def _kernel_from_augmented(ech: Echelon,
                           n_rows: int) -> list[dict[int, int]]:
    """The kernel rows of the augmented echelon of a matrix M with n_rows
    rows (pivot at a bookkeeping coordinate), as sparse vectors
    {column of M: value}."""
    return [{k - n_rows: v for k, v in ech.row(piv).items()}
            for piv in sorted(ech.basis) if piv >= n_rows]


def kernel_mod_p(M: SparseMatrix, echelon: bool = False):
    """Basis of the right kernel of M over F_p, as sparse vectors
    {column: value}.  An echelon basis: the least coordinates of the rows
    strictly increase (each row's is its pivot in the augmented echelon),
    which the minimal resolution's J*K pruning relies on.  With echelon,
    (basis, the augmented echelon of M), which _solve_augmented solves
    M x = b against with no second elimination."""
    if M.p is None:
        raise ValueError("kernel_mod_p requires a matrix over F_p")
    ech = _augmented_echelon(M)
    basis = _kernel_from_augmented(ech, M.n_rows)
    return (basis, ech) if echelon else basis


def kernel_z(M: SparseMatrix) -> list[dict[int, int]]:
    """Basis of the integer right-kernel lattice of M (complete over Z), as
    sparse vectors {column: value}."""
    if M.p is not None:
        raise ValueError("kernel_z requires a matrix over Z")
    return _kernel_from_augmented(_augmented_echelon(M), M.n_rows)


def _solve_augmented(ech: Echelon, n_rows: int,
                     target: dict[int, int]) -> Optional[dict[int, int]]:
    """Some sparse x with Mx = target, or None, from the augmented echelon
    of M: target's residue has no row coordinate exactly when target is in
    the image, and then its bookkeeping coordinates hold -x."""
    res = ech.reduce(target)
    if any(k < n_rows for k in res):
        return None
    p = ech.p
    return {k - n_rows: (-v) % p if p is not None else -v
            for k, v in res.items()}


def solve(M: SparseMatrix, b: list[int]) -> Optional[list[int]]:
    """Some x with Mx = b, or None.  Exact over Z (no rational relaxation)."""
    if len(b) != M.n_rows:
        raise ValueError("dimension mismatch")
    sol = _solve_augmented(_augmented_echelon(M), M.n_rows,
                           {i: v for i, v in enumerate(b) if v})
    if sol is None:
        return None
    x = [0] * M.n_cols
    for j, v in sol.items():
        x[j] = v
    return x


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def smith_normal_form(M: SparseMatrix) -> SmithReport:
    """Elementary divisors of an integer matrix.

    Euclid's algorithm on sparse dict rows: the pivot is a +-1 entry when
    there is one, else one of least absolute value, and _euclid_step
    moves it to ever smaller remainders until it is alone in its row and
    its column.
    """
    if M.p is not None:
        raise ValueError("smith_normal_form requires a matrix over Z")
    rows: dict[int, dict[int, int]] = {}
    for j, col in M.cols.items():
        for i, v in col.items():
            rows.setdefault(i, {})[j] = v
    diagonal: list[int] = []
    while rows:
        pivot = _smith_pivot(rows)
        while pivot:
            pi, pj = pivot
            pivot = _euclid_step(rows, pi, pj)
        diagonal.append(abs(rows.pop(pi)[pj]))
    divisors = _divisor_chain(diagonal)
    return SmithReport(tuple(divisors), len(divisors))


def _smith_pivot(rows: dict[int, dict[int, int]]) -> tuple[int, int]:
    """A +-1 entry of the nonempty rows if there is one, else one of
    least absolute value."""
    least = 0
    for i, row in rows.items():
        for j, v in row.items():
            if v == 1 or v == -1:
                return i, j
            if not least or abs(v) < least:
                pivot, least = (i, j), abs(v)
    return pivot


def _euclid_step(rows: dict[int, dict[int, int]], pi: int,
                 pj: int) -> Optional[tuple[int, int]]:
    """Reduce the other entries of column pj by row operations, then of
    row pi by column operations (which, the column clear, change only row
    pi), to floor remainders modulo the pivot rows[pi][pj].  Returns the
    first nonzero one, the next pivot, or None when none is left."""
    row = rows[pi]
    a = row[pj]
    for r in [r for r, other in rows.items() if pj in other and r != pi]:
        other = rows[r]
        _axpy(other, row, -(other[pj] // a))
        if pj in other:
            return r, pj
        if not other:
            del rows[r]
    for j in [j for j in row if j != pj]:
        b = row.pop(j) % a
        if b:
            row[j] = b
            return pi, j
    return None


def _divisor_chain(diagonal: list[int]) -> list[int]:
    """The positive diagonal of a diagonal matrix as a divisor chain with
    the same cokernel: one left-to-right pass of (gcd, lcm) swaps leaves
    each entry dividing every later one."""
    rest = [d for d in diagonal if d != 1]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            g = gcd(rest[i], rest[j])
            rest[i], rest[j] = g, rest[i] // g * rest[j]
    return [1] * (len(diagonal) - len(rest)) + rest


# ---------------------------------------------------------------------------
# Chain complexes over Z: elimination of unit pairs before SNF
# ---------------------------------------------------------------------------


def reduce_chain_complex(dims: Sequence[int],
                         boundary: list[dict[int, int]]) -> list[SparseMatrix]:
    """Shrink a chain complex over Z to one with the same homology.

    Cells are numbered 0, 1, ... in order of degree, dims[n] of them in
    degree n, and boundary[c] is {face: coefficient} with faces one
    degree lower.  The dicts are consumed.  Returns out[n], the n-th
    boundary map of the remainder as a SparseMatrix (out[0] has no rows),
    its cells in their input order.

    Certified where it is produced: raises ArithmeticError unless
    out[n-1] * out[n] = 0 for every n and the remaining cells have the
    Euler characteristic of the input.
    """
    if sum(dims) != len(boundary):
        raise ValueError("dims do not count the cells")
    _eliminate_unit_pairs(boundary)
    out = []
    index: dict[int, int] = {}
    start = 0
    for n, size in enumerate(dims):
        cells = [c for c in range(start, start + size)
                 if boundary[c] is not None]
        entries = [(index[a], j, v) for j, c in enumerate(cells)
                   for a, v in boundary[c].items()]
        out.append(SparseMatrix(len(index), len(cells), entries))
        index = {c: j for j, c in enumerate(cells)}
        start += size
    for lower, upper in zip(out[1:], out[2:]):
        if not composes_to_zero(lower, upper, upper.cols):
            raise ArithmeticError("reduced chain complex has a nonzero d o d")
    chi = sum((-1) ** n * size for n, size in enumerate(dims))
    if sum((-1) ** n * d.n_cols for n, d in enumerate(out)) != chi:
        raise ArithmeticError(
            "reduced chain complex lost the Euler characteristic")
    return out


# Costs from here up share the last bucket, which keeps the bucket list
# short when fill-in makes a row or column long.
_MAX_COST = 255


def _eliminate_unit_pairs(boundary: list[Optional[dict[int, int]]]) -> None:
    """Eliminate pairs (b, a) with <d b, a> = u = +-1, in place, until no
    unit entry is left; a deleted cell's boundary becomes None.

    Each elimination is a chain homotopy equivalence (Kaczynski, Mrozek &
    Slusarek, Comput. Math. Appl. 35, 1998): every other coface c of a
    gets d c -= <d c, a> u d b, then b leaves the complex and the
    boundaries of its cofaces, and a leaves with its own boundary.  Pairs
    are taken cheapest first by the Markowitz cost (|d b| - 1)(|cob a| - 1),
    from FIFO buckets on that cost (a heap spends its time in pops, and
    LIFO buckets thrash).  An entry is queued as the int b << shift | a
    when its cost may have dropped -- the entries of the changed columns
    and of the cofaces of b -- and checked against its current value and
    cost when popped.  Each cell's cofaces are the keys of an
    insertion-ordered dict, so a removal is O(1) and they are visited in
    the order they were added.
    """
    cob: list = [{} for _ in boundary]
    for c, col in enumerate(boundary):
        for a in col:
            cob[a][c] = None
    shift = len(boundary).bit_length()
    mask = (1 << shift) - 1
    buckets: list[deque] = []
    low, cap = 0, _MAX_COST

    def push(c: int, col: dict[int, int], faces: Iterable[int]) -> None:
        nonlocal low
        size = len(col) - 1
        for a in faces:
            v = col.get(a)
            if v == 1 or v == -1:
                cost = size * (len(cob[a]) - 1)
                if cost > cap:
                    cost = cap
                while cost >= len(buckets):
                    buckets.append(deque())
                buckets[cost].append(c << shift | a)
                if cost < low:
                    low = cost

    for c, col in enumerate(boundary):
        push(c, col, col)
    while low < len(buckets):
        queue = buckets[low]
        if not queue:
            low += 1
            continue
        key = queue.popleft()
        b, a = key >> shift, key & mask
        col = boundary[b]
        if col is None:
            continue
        u = col.get(a)
        if u != 1 and u != -1:
            continue
        if low < cap and (len(col) - 1) * (len(cob[a]) - 1) > low:
            push(b, col, (a,))
            continue
        for c in cob[a]:
            if c == b:
                continue
            other = boundary[c]
            size = len(other)
            q = other.pop(a) * u
            for f, v in col.items():
                if f == a:
                    continue
                x = other.get(f, 0) - q * v
                if x:
                    if f not in other:
                        cob[f][c] = None
                    other[f] = x
                else:
                    del other[f]
                    del cob[f][c]
            push(c, other, other if len(other) < size else col)
        for f in col:
            if f != a:
                del cob[f][b]
        for e in cob[b]:
            top = boundary[e]
            del top[b]
            push(e, top, top)
        for f in boundary[a]:
            del cob[f][a]
        boundary[a] = boundary[b] = cob[a] = cob[b] = None


# ---------------------------------------------------------------------------
# Small exact helpers: primality and dense square matrices mod p
# ---------------------------------------------------------------------------


# The least strong pseudoprime to every base up to 37 (Sorenson & Webster,
# Math. Comp. 86, 2017): below it those twelve bases decide primality.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MILLER_RABIN_LIMIT = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < _MILLER_RABIN_LIMIT
    (about 3.2e23); ValueError for larger n rather than a probable
    answer."""
    if n >= _MILLER_RABIN_LIMIT:
        raise ValueError(f"{n} is beyond the exact primality range")
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    primes, q = [], 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:  # the one prime factor above the square root
        primes.append(n)
    return primes


def _mat_mul(A, B, p):
    k = len(A)
    return tuple(tuple(sum(A[i][t] * B[t][j] for t in range(k)) % p
                       for j in range(k)) for i in range(k))


def _mat_pow(M, e: int, p: int):
    """M^e mod p by repeated squaring, e >= 0."""
    R = tuple(tuple(int(i == j) for j in range(len(M))) for i in range(len(M)))
    while e:
        if e & 1:
            R = _mat_mul(R, M, p)
        M = _mat_mul(M, M, p)
        e >>= 1
    return R


def matrix_group_closure(mats, p, k: int, cap: int) -> list:
    """The group generated by the k x k matrices mats mod p (trivial if
    none): the identity, then each new product A*M in depth-first order.
    ValueError once it has more than cap elements."""
    ident = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    gens = [tuple(zip(*[[x % p for x in row] for row in M])) for M in mats]
    group, stack = {ident: None}, [ident]  # a dict keeps insertion order
    while stack:
        A = stack.pop()
        for cols in gens:  # the columns of M
            B = tuple(tuple(sum(map(mul, row, col)) % p for col in cols)
                      for row in A)
            if B not in group:
                group[B] = None
                stack.append(B)
                if len(group) > cap:
                    raise ValueError(f"matrix group order above {cap}")
    return list(group)


def _mat_det(A, p):
    """Determinant mod a prime p by Gaussian elimination, k^3 steps for a
    k x k matrix (1 for the empty matrix)."""
    rows = [[x % p for x in row] for row in A]
    det = 1
    for c, row in enumerate(rows):
        r = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if r is None:
            return 0
        if r != c:
            rows[c], rows[r], det = rows[r], row, -det
        pivot = rows[c]
        det = det * pivot[c] % p
        inv = pow(pivot[c], -1, p)
        for below in rows[c + 1:]:
            f = below[c] * inv % p
            if f:
                below[c:] = [(x - f * y) % p
                             for x, y in zip(below[c:], pivot[c:])]
    return det
