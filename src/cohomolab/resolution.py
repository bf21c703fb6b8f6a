"""Free resolutions of Z over the integral group ring of a finite group,
and of F_p over F_pG.

Built degree by degree: the kernel of d_(n-1) is covered by module
generators, and d_n sends the j-th basis element of F_n to the j-th
generator.  Which cover is used depends on the ring:

* Minimal, over F_p when |G| is a power of p.  Then F_pG is local, its
  radical is the augmentation ideal J = sum_s (s - 1) F_pG over the
  generators s of G, and so J*K = span{(s - 1)*k} for K = ker d_(n-1) and
  k running over a vector basis of K.  The generators are the reduced
  residues of the kernel vectors modulo J*K plus the earlier picks, a
  basis of K / J*K; by Nakayama they generate K, and rank_n equals
  dim H^n(G; F_p) (D. J. Green, *Groebner Bases and the Computation of
  Group Cohomology*, LNM 1828, 2003).  Exactness is certified by rank
  additivity, rank d_n = dim ker d_(n-1): rank d_n is read off the next
  degree's kernel echelon, or from one rank_mod_p for the top
  differential.  Minimality is certified by the induced differential
  d_n (x) F_p vanishing.
* Greedy, over Z and for groups that are not p-groups, where F_pG is not
  local.  A kernel vector outside the span of the translates of the
  generators so far becomes a generator (its reduced residue, which keeps
  integer entries small), and every kernel vector is then checked to lie
  in that span, so im d_n = ker d_(n-1).  Over Z rank additivity would
  not show that the image is saturated.

Each d_n is a ZG-module map, held as all group translates of its
generator columns: column j*|G| + g is the g-translate of column j*|G|
(G. Ellis, "Computing group resolutions", J. Symb. Comput. 38, 2004).  So
d_(n-1) o d_n = 0 on the generator columns implies it on every column,
given that the group table is associative (``FiniteGroup`` runs Light's
test).  The disk cache stores only the rank_n generator columns, and a
differential read from it is expanded by the same translation, so it is
equivariant by construction.  Any failed check raises ArithmeticError.

The induced complex F (x)_ZG Z has one Z per module generator, so its
boundary matrices stay tiny even when the group has order 81.
"""

from __future__ import annotations

import os
from typing import Optional

from .exact_linalg import (Echelon, SparseMatrix, composes_to_zero,
                           is_prime, kernel_mod_p, kernel_z, rank_mod_p,
                           smith_normal_form)
from .groups import FiniteGroup

# Version of the cache file layout, part of every file name.  Version 2
# holds the generator columns of d_n only; version 1 held every column.
CACHE_FORMAT = 2


class FreeResolution:
    """... -> F_2 -> F_1 -> F_0 = ZG -> Z -> 0, F_n free of rank ranks[n]."""

    def __init__(self, G: FiniteGroup, p: Optional[int] = None,
                 cache_dir: Optional[str] = None):
        if p is not None and not is_prime(p):
            raise ValueError(f"the coefficient field needs a prime, not {p}")
        self.G = G
        self.p = p  # None: resolution over ZG; prime: over F_pG
        self.ranks: list[int] = [1]
        self.diffs: list[SparseMatrix] = []  # integer matrix of d_n, n >= 1
        # the minimal cover needs F_pG local, that is |G| a power of p
        self.minimal = p is not None and _is_power_of(G.order, p)
        # n -> dim ker d_(n-1), the rank that d_n must have, while that is
        # unchecked: on the minimal path each d_n built, and d_1 whether
        # built or read from the cache (the augmentation's kernel has
        # dimension |G| - 1)
        self._unchecked: dict[int, int] = (
            {1: G.order - 1} if self.minimal else {})
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
        return os.path.join(
            self.cache_dir,
            f"res_v{CACHE_FORMAT}_{self.G.digest()}_d{n}_{ring}.txt")

    def extend_to(self, n: int) -> None:
        """Ensure differentials d_1 .. d_n are available."""
        while len(self.diffs) < n:
            self._extend()
        top = len(self.diffs)
        if top in self._unchecked:  # no next degree's kernel to read from
            self._certify_exact(top, rank_mod_p(self.diffs[-1]))

    def _extend(self) -> None:
        o = self.G.order
        n = len(self.diffs) + 1  # building d_n
        n_rows = self.ranks[-1] * o
        path = self._cache_path(n)
        if path and os.path.exists(path):
            with open(path) as fh:
                M = SparseMatrix.load(fh.read())
            if M.n_rows != n_rows or M.p != self.p:
                raise ArithmeticError(f"cached d_{n} does not fit F_{n - 1}")
            gens = [M.column(j) for j in range(M.n_cols)]
            self.diffs.append(self._module_map(gens, n_rows))
            self.ranks.append(len(gens))
            return
        if n == 1:
            # kernel of the augmentation: spanned by g - e
            kernel = [{g: 1, 0: -1 if self.p is None else self.p - 1}
                      for g in range(1, o)]
        else:
            A_prev = self.diffs[-1]
            kernel = kernel_z(A_prev) if self.p is None else kernel_mod_p(A_prev)
            if n - 1 in self._unchecked:  # rank d_(n-1) from its kernel
                self._certify_exact(n - 1, A_prev.n_cols - len(kernel))
        if self.minimal:
            gens = self._minimal_cover(kernel)
        else:
            gens = self._greedy_cover(kernel)
        A = self._module_map(gens, n_rows)
        # on the generator columns, which suffices by equivariance (see
        # the module docstring)
        if self.diffs and not composes_to_zero(self.diffs[-1], A,
                                               range(0, A.n_cols, o)):
            raise ArithmeticError(
                "resolution differentials do not compose to zero")
        if self.minimal:
            if self._induced(A).cols:
                raise ArithmeticError(
                    f"induced differential d_{n} does not vanish mod "
                    f"{self.p}: the cover of ker d_{n - 1} is not minimal")
            self._unchecked[n] = len(kernel)
        self.diffs.append(A)
        self.ranks.append(len(gens))
        if path:
            M = SparseMatrix(n_rows, len(gens),
                             [(i, j, v) for j, vec in enumerate(gens)
                              for i, v in vec.items()], p=self.p)
            os.makedirs(self.cache_dir, exist_ok=True)
            tmp = path + ".tmp"
            with open(tmp, "w") as fh:
                M.dump(fh)
            os.replace(tmp, path)

    def _certify_exact(self, n: int, rank: int) -> None:
        """Rank additivity: with d_(n-1) o d_n = 0, im d_n = ker d_(n-1)
        exactly when rank d_n = dim ker d_(n-1).  The pending entry is
        dropped only once the check passes, so a resolution kept in the
        memo after a failure fails again on the next call."""
        want = self._unchecked[n]
        if rank != want:
            raise ArithmeticError(
                f"resolution not exact at F_{n - 1}: rank d_{n} = {rank}, "
                f"dim ker d_{n - 1} = {want}")
        del self._unchecked[n]

    def _minimal_cover(self, kernel: list[dict[int, int]]) -> list[dict[int, int]]:
        """A basis of K / J*K, K spanned by kernel: the residues of the
        kernel vectors modulo J*K and the earlier picks."""
        span = Echelon(p=self.p)
        for s in self.G.generators:
            for vec in kernel:  # (s - 1) * vec
                t = self._translate(vec, s)
                for k, v in vec.items():
                    t[k] = t.get(k, 0) - v
                span.add(t)
        gens: list[dict[int, int]] = []
        need = len(kernel) - span.rank  # dim K / J*K: kernel is a basis
        for vec in kernel:
            if len(gens) == need:
                break
            res = span.reduce(vec)
            if res:
                gens.append(res)
                span.add(res)
        return gens

    def _greedy_cover(self, kernel: list[dict[int, int]]) -> list[dict[int, int]]:
        """Generators whose translates span every kernel vector; each is
        taken as the reduced residue, which keeps integer entries small (the
        spanned lattice is G-invariant, so spans agree)."""
        span = Echelon(p=self.p)
        gens: list[dict[int, int]] = []
        for vec in kernel:
            res = span.reduce(vec)
            if res:
                gens.append(res)
                for g in range(self.G.order):
                    span.add(self._translate(res, g))
        if not gens and kernel:
            raise ArithmeticError("kernel cover failed")
        # certify: every kernel vector lies in the spanned lattice (and the
        # span is inside the kernel by G-invariance), so im d_n = ker d_{n-1}
        for vec in kernel:
            if span.reduce(vec):
                raise ArithmeticError("kernel cover incomplete")
        return gens

    def _module_map(self, gens: list[dict[int, int]],
                    n_rows: int) -> SparseMatrix:
        """The matrix of the module map sending basis element j to gens[j]:
        column j*|G| + g is the g-translate of gens[j].  The generators are
        already reduced (mod p) with rows below n_rows, and translation
        keeps each entry inside its row block."""
        o = self.G.order
        A = SparseMatrix(n_rows, len(gens) * o, p=self.p)
        A.cols = {j * o + g: self._translate(vec, g)
                  for j, vec in enumerate(gens) if vec for g in range(o)}
        return A

    # -- induced complex ------------------------------------------------------

    def _induced(self, A: SparseMatrix) -> SparseMatrix:
        """A (x)_ZG Z: the generator columns, each row block summed."""
        o = self.G.order
        b_n = A.n_cols // o
        dense = [[0] * b_n for _ in range(A.n_rows // o)]
        for j in range(b_n):
            for i, v in A.cols.get(j * o, {}).items():
                dense[i // o][j] += v
        return SparseMatrix.from_dense(dense, p=self.p)

    def induced_matrix(self, n: int) -> SparseMatrix:
        """Boundary b_{n-1} x b_n of F (x)_ZG Z (augment both sides)."""
        self.extend_to(n)
        return self._induced(self.diffs[n - 1])

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


def _is_power_of(order: int, p: int) -> bool:
    while order % p == 0:
        order //= p
    return order == 1


# Not bounded: a CLI process runs one job, which makes an entry for each
# of its groups and rings (README "Design notes").
_RESOLUTIONS: dict[tuple[str, Optional[int], Optional[str]],
                   FreeResolution] = {}


def resolution_for(G: FiniteGroup, p: Optional[int] = None,
                   cache_dir: Optional[str] = None) -> FreeResolution:
    res = FreeResolution(G, p, cache_dir)
    return _RESOLUTIONS.setdefault((G.digest(), p, res.cache_dir), res)
