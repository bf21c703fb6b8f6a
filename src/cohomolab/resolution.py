"""Free resolutions of Z over the integral group ring of a finite group.

Built degree by degree: the integer kernel of each differential is covered
by module generators (greedy, over the lattice spanned by all group
translates of the chosen generators), so the image of the next
differential equals the kernel exactly — exactness holds by construction,
which certifies every homology group read off the induced complex.

Each d_n is a ZG-module map, stored as all group translates of its
generator columns: column j*|G| + g is the g-translate of column j*|G|
(G. Ellis, "Computing group resolutions", J. Symb. Comput. 38, 2004).  So
d_(n-1) o d_n = 0 on the generator columns implies it on every column,
given that both differentials are equivariant and the group table is
associative (``FiniteGroup`` runs Light's test).  A differential built
here is equivariant by construction; one read from the cache is checked
for equivariance before a new degree is built on top of it.

The induced complex F (x)_ZG Z has one Z per module generator, so its
boundary matrices stay tiny even when the group has order 81.
"""

from __future__ import annotations

import os
from typing import Optional

from .exact_linalg import (Echelon, SparseMatrix, kernel_mod_p, kernel_z,
                           rank_mod_p, smith_normal_form)
from .groups import FiniteGroup


class FreeResolution:
    """... -> F_2 -> F_1 -> F_0 = ZG -> Z -> 0, F_n free of rank ranks[n]."""

    def __init__(self, G: FiniteGroup, p: Optional[int] = None,
                 cache_dir: Optional[str] = None):
        self.G = G
        self.p = p  # None: resolution over ZG; prime: over F_pG
        self.ranks: list[int] = [1]
        self.diffs: list[SparseMatrix] = []  # integer matrix of d_n, n >= 1
        self._last_loaded = False  # diffs[-1] came from the cache unchecked
        self.cache_dir = cache_dir if cache_dir is not None else os.environ.get(
            "COHOMOLAB_CACHE")

    # -- construction ---------------------------------------------------------

    def _translate(self, vec: dict[int, int], g: int) -> dict[int, int]:
        """Left action of g on a vector in (ZG)^b, coordinates i*|G| + h."""
        mul = self.G.mul
        o = self.G.order
        return {(k - k % o) + mul[g][k % o]: v for k, v in vec.items()}

    def _cache_path(self, n: int) -> Optional[str]:
        if not self.cache_dir:
            return None
        ring = "Z" if self.p is None else f"F{self.p}"
        return os.path.join(self.cache_dir,
                            f"res_{self.G.digest()}_d{n}_{ring}.txt")

    def extend_to(self, n: int) -> None:
        """Ensure differentials d_1 .. d_n are available."""
        while len(self.diffs) < n:
            self._extend()

    def _extend(self) -> None:
        G = self.G
        o = G.order
        n = len(self.diffs) + 1  # building d_n
        path = self._cache_path(n)
        if path and os.path.exists(path):
            with open(path) as fh:
                A = SparseMatrix.load(fh.read())
            self.diffs.append(A)
            self.ranks.append(A.n_cols // o)
            self._last_loaded = True
            return
        if self._last_loaded:
            self._assert_equivariant(n - 1)
        if n == 1:
            # kernel of the augmentation: spanned by g - e
            kernel = [{g: 1, 0: -1 if self.p is None else self.p - 1}
                      for g in range(1, o)]
        else:
            A_prev = self.diffs[-1]
            kern = kernel_z(A_prev) if self.p is None else kernel_mod_p(A_prev)
            kernel = [{i: v for i, v in enumerate(vec) if v} for vec in kern]
        # greedy cover of the kernel by module generators over the group ring;
        # each generator is taken as the reduced residue, which keeps integer
        # entries small (the spanned lattice is G-invariant, so spans agree)
        span = Echelon(p=self.p)
        gens: list[dict[int, int]] = []
        for vec in kernel:
            res = span.reduce(dict(vec))
            if res:
                gens.append(res)
                for g in range(o):
                    span.add(self._translate(res, g))
        if not gens and kernel:
            raise ArithmeticError("kernel cover failed")
        # certify: every kernel vector lies in the spanned lattice (and the
        # span is inside the kernel by G-invariance), so im d_n = ker d_{n-1}
        for vec in kernel:
            if span.reduce(dict(vec)):
                raise ArithmeticError("kernel cover incomplete")
        n_rows = self.ranks[-1] * o
        entries = []
        for j, vec in enumerate(gens):
            for g in range(o):
                col = j * o + g
                for i, v in self._translate(vec, g).items():
                    entries.append((i, col, v))
        A = SparseMatrix(n_rows, len(gens) * o, entries, p=self.p)
        if self.diffs:
            _assert_composes_to_zero(self.diffs[-1], A, o)
        self.diffs.append(A)
        self.ranks.append(len(gens))
        self._last_loaded = False
        if path:
            os.makedirs(self.cache_dir, exist_ok=True)
            tmp = path + ".tmp"
            with open(tmp, "w") as fh:
                fh.write(A.dump())
            os.replace(tmp, path)

    def _assert_equivariant(self, n: int) -> None:
        """d_n is a ZG-module map: every column is the translate of its
        generator column."""
        A = self.diffs[n - 1]
        o = self.G.order
        cols = A.cols
        if A.n_cols % o or any(
                cols.get(j + g, {}) != self._translate(cols.get(j, {}), g)
                for j in range(0, A.n_cols, o) for g in range(1, o)):
            raise ArithmeticError(f"differential d_{n} is not G-equivariant")

    # -- induced complex ------------------------------------------------------

    def induced_matrix(self, n: int) -> SparseMatrix:
        """Boundary b_{n-1} x b_n of F (x)_ZG Z (augment both sides)."""
        self.extend_to(n)
        A = self.diffs[n - 1]
        o = self.G.order
        b_n = self.ranks[n]
        b_prev = self.ranks[n - 1]
        dense = [[0] * b_n for _ in range(b_prev)]
        for j in range(b_n):
            col = A.cols.get(j * o, {})  # generator column (g = identity)
            for i, v in col.items():
                dense[i // o][j] += v
        return SparseMatrix.from_dense(dense, p=self.p)

    def homology_dims_mod_p(self, p: int, max_degree: int) -> list[int]:
        """dim_{F_p} H_n(G; F_p) for n = 0..max_degree."""
        if self.p is not None and p != self.p:
            raise ValueError("coefficient prime differs from resolution prime")
        self.extend_to(max_degree + 1)
        ranks_p = [0]  # rank of D_0 = 0
        for n in range(1, max_degree + 2):
            D = self.induced_matrix(n)
            Dp = SparseMatrix(D.n_rows, D.n_cols, D.entries(), p=p)
            ranks_p.append(rank_mod_p(Dp))
        return [self.ranks[n] - ranks_p[n] - ranks_p[n + 1]
                for n in range(max_degree + 1)]

    def integral_homology(self, n: int) -> tuple[int, tuple[int, ...]]:
        """H_n(G; Z) as (free rank, torsion divisors), n >= 1."""
        if self.p is not None:
            raise ValueError("integral homology needs a resolution over ZG")
        if n < 1:
            raise ValueError("need n >= 1")
        self.extend_to(n + 1)
        rep_n = smith_normal_form(self.induced_matrix(n))
        rep_next = smith_normal_form(self.induced_matrix(n + 1))
        rank = self.ranks[n] - rep_n.rank - rep_next.rank
        return rank, rep_next.torsion


def _assert_composes_to_zero(A_prev: SparseMatrix, A: SparseMatrix,
                             o: int) -> None:
    """A_prev o A = 0 on the generator columns j*o of A, which implies it on
    every column when both maps are equivariant (see the module docstring)."""
    p = A.p
    for j in range(0, A.n_cols, o):
        col = A.cols.get(j, {})
        acc: dict[int, int] = {}
        for k, v in col.items():
            for i, w in A_prev.cols.get(k, {}).items():
                nv = acc.get(i, 0) + v * w
                if p is not None:
                    nv %= p
                if nv:
                    acc[i] = nv
                else:
                    acc.pop(i, None)
        if acc:
            raise ArithmeticError("resolution differentials do not compose to zero")


_RESOLUTIONS: dict[tuple[str, Optional[int], Optional[str]],
                   FreeResolution] = {}


def resolution_for(G: FiniteGroup, p: Optional[int] = None,
                   cache_dir: Optional[str] = None) -> FreeResolution:
    res = FreeResolution(G, p, cache_dir)
    return _RESOLUTIONS.setdefault((G.digest(), p, res.cache_dir), res)
