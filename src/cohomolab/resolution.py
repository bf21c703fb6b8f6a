"""Free resolutions of F_p over F_pG, and their lifts to Z/p^k G.

A direct product G = F x H (a group with recorded factors, see
build_product) is resolved as the tensor product of the resolutions of F
and of H, each by its own route: the generator e_i (x) e'_j of
F_a (x) F'_b goes to d(e_i) (x) e'_j + (-1)^a e_i (x) d(e'_j), which is a
free resolution of G, minimal when the factors' are (K. S. Brown,
*Cohomology of Groups*, V.1).  No kernel is computed for G.  Each d_n is
certified on G itself: d_(n-1) o d_n = 0 on the generator columns (the
augmentation for d_1), d_n (x) F_p = 0 on the minimal path, and rank
additivity, rank d_n = |G|*rank_(n-1) - rank d_(n-1) (|G| - 1 for d_1),
from one rank_mod_p of d_n's module matrix.  An integral product lifts
its factors to its own Z/p^k, and the tensor product of the lifts is a
lift of the tensor product.  A product's cache files carry a route tag,
so the two routes never read each other's.

Every other group is built degree by degree: the kernel of d_(n-1) is
covered by module generators, and d_n sends the j-th basis element of F_n
to the j-th generator.  Which cover is used depends on the group:

* Minimal, when |G| is a power of p.  Then F_pG is local, its
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
  d_n (x) F_p vanishing, for every d_n built or read from the cache.
  J*K is built one generator at a time, in an order where each generator
  normalizes the subgroup of those before it wherever a greedy search
  finds one (_normal_series).  Such a generator s_j needs (s_j - 1)*k
  only for k running over a basis of K modulo the earlier stages, read
  off the kernel's echelon rows with one dict lookup each.
* Greedy, for groups that are not p-groups, where F_pG is not local.  A
  kernel vector outside the span of the translates of the generators so
  far becomes a generator (its reduced residue), and every kernel vector
  is then checked to lie in that span, so im d_n = ker d_(n-1).

Integral homology is read p-locally, one prime p dividing |G| at a time,
from the F_p resolution lifted to Z/p^k G with k = v_p(|G|) + 1.  Each
new generator column c of d_n is lifted one p-adic digit at a time as it
is built (d_0 is the augmentation), from its balanced representatives:
for j = 1 .. k-1, d_(n-1)*c = p^j*y mod p^k, and c += p^j*e for a
solution e of d_(n-1)*e = -y mod p, found against the augmented echelon
that gave the kernel of d_(n-1), so no matrix is eliminated twice.  A
solution exists because y is a cycle mod p and the F_p resolution is
exact.  The lift is a resolution of Z/p^k
over Z/p^k G, and continuing the digits for ever gives one over the
p-adic integers whose reduction it is; so the Smith form of its induced
matrices shows the p-local elementary divisors, those of valuation k or
more read as zero.  |G| annihilates H_n(G; Z) for n >= 1 (K. S. Brown,
*Cohomology of Groups*, III.10.2), so no true divisor has valuation k.
The lift is certified where it is built: its columns reduce mod p to the
F_p columns, and d_(n-1) o d_n = 0 mod p^k on them.

Each d_n is a module map, held as its rank_n generator columns, the
matrix the disk cache stores: a module map is determined by where the
basis elements go (G. Ellis, "Computing group resolutions", J. Symb.
Comput. 38, 2004).  The matrix of the module map, whose column
j*|G| + g is the g-translate of generator column j, is built on demand
and not kept: for the kernel of d_(n-1), the lift and d_(n-1) o d_n = 0
when d_n is built, and for the rank of the top differential.  Every
column of it is a translate, so d_n is equivariant by construction, and
d_(n-1) o d_n = 0 on the generator columns implies it on every column,
given that the group table is associative (``FiniteGroup`` runs Light's
test).  The induced differentials and the minimality check read the
generator columns alone, so a differential read from the cache is
expanded only when a degree is built on top of it or its rank is still
unchecked.  Any failed check raises ArithmeticError.

The induced complex F (x)_G Z/p^k has one Z/p^k per module generator, so
its boundary matrices stay tiny even when the group has order 81.

The work is bounded where it is done: _expand refuses a module matrix of
more than MAX_MODULE_TERMS entries before a kernel, lift or rank_mod_p
reads it, d_1's cover is refused past |G|*(|G| - 1) entries, and
extend_to refuses degree n when (n + 1)*|G|, the least dimension of
F_0 .. F_n, passes MAX_RESOLUTION_SPAN.  Each raises ResourceLimitError
before the step starts; the degrees built before it stay kept and cached.
"""

from __future__ import annotations

import os
from typing import Optional

from .exact_linalg import (Echelon, ResourceLimitError, SparseMatrix,
                           _solve_augmented, composes_to_zero, is_prime,
                           kernel_mod_p, rank_mod_p, smith_normal_form)
from .groups import FiniteGroup, build_product, closure_members

# Version of the cache file layout, part of every file name.  Version 3
# names files by the key of the group's generator columns
# (FiniteGroup.digest), version 2 by a hash of its whole table; both hold
# the generator columns of d_n only, version 1 held every column.
CACHE_FORMAT = 3

# The work bound (module docstring), one in-process run each on a 2-core
# Xeon, Python 3.11.  A kernel or rank_mod_p takes 0.4 to 13 us an entry:
# P(3,3)'s d_9 rank, 22k entries, 9 ms; P(3,5)'s d_2 kernel, 4.5k, 59 ms;
# C3^4's d_7 rank, 65k, 0.10 s; P(3,5)'s d_12 kernel, 932k, 4.1 s, before
# its d_13 (1.28M) is refused 27 s and 111 MB into the run.  d_1's cover
# takes 1.6 s on C1001 at p = 7 (1.0M), 1.6 s on C2187 (4.8M), 8.9 s and
# 153 MB on C4095 (16.8M).  The benchmark reads 15k at most, the tests 188k.
MAX_MODULE_TERMS = 1 << 20
# A degree takes at least 25 us and 0.5 KB (C2): 2^15 degrees, 0.8 s.
MAX_RESOLUTION_SPAN = 1 << 16


class FreeResolution:
    """... -> F_1 -> F_0 = RG -> R -> 0 over R = Z/p^k, F_n free of rank
    ranks[n]: k = 1, R = F_p, unless integral, where k = v_p(|G|) + 1, or
    the k given."""

    def __init__(self, G: FiniteGroup, p: int,
                 cache_dir: Optional[str] = None, integral: bool = False,
                 k: Optional[int] = None):
        if p is None or not is_prime(p):
            raise ValueError(f"the coefficient field needs a prime, not {p}")
        self.G = G
        self.p = p
        # |G| annihilates H_n(G; Z) for n >= 1, so p^k with k = v_p(|G|) + 1
        # tells a true divisor from zero; a product passes its own k to
        # the resolutions of its factors
        v = _valuation(G.order, p)
        self.k = k if k is not None else v + 1 if integral else 1
        self.modulus = p ** self.k
        self.ranks: list[int] = [1]
        # d_n for n >= 1: the rank_(n-1)*|G| x rank_n generator columns
        # over Z/p^k, and the same reduced mod p (the same matrices when
        # k = 1)
        self.diffs: list[SparseMatrix] = []
        self._fp: list[SparseMatrix] = []
        # the minimal cover needs F_pG local, that is |G| a power of p
        self.minimal = p ** v == G.order
        # n -> dim ker d_(n-1), the rank that d_n must have, while that is
        # unchecked: on the minimal path each d_n built, and d_1 whether
        # built or read from the cache (the augmentation's kernel has
        # dimension |G| - 1)
        self._unchecked: dict[int, int] = (
            {1: G.order - 1} if self.minimal else {})
        # the generator order of the minimal cover, built on first use
        self._series: Optional[list[tuple[int, bool]]] = None
        # a product's route: the resolutions of its first factor and of
        # the product of the rest, built on first use; and n -> rank d_n
        # mod p, once computed and, where pending, certified
        self.route = "tensor" if G.factors else "cover"
        self._pair: Optional[tuple[FreeResolution, FreeResolution]] = None
        self._rank: dict[int, int] = {}
        self.cache_dir = cache_dir if cache_dir is not None else os.environ.get(
            "COHOMOLAB_CACHE")

    # -- construction ---------------------------------------------------------

    def _translate(self, vec: dict[int, int], g: int) -> dict[int, int]:
        """Left action of g on a vector in (RG)^b, coordinates i*|G| + h."""
        row, o = self.G.mul[g], self.G.order
        return {k - (h := k % o) + row[h]: v for k, v in vec.items()}

    def _cache_path(self, n: int) -> Optional[str]:
        if not self.cache_dir:
            return None
        ring = f"F{self.p}" if self.k == 1 else f"Z{self.p}^{self.k}"
        # the route tag keeps the two routes' files of one table apart
        tag = "_tensor" if self.route == "tensor" else ""
        return os.path.join(
            self.cache_dir,
            f"res_v{CACHE_FORMAT}_{self.G.digest()}{tag}_d{n}_{ring}.txt")

    def extend_to(self, n: int) -> None:
        """Ensure differentials d_1 .. d_n are available and certified."""
        span = (n + 1) * self.G.order
        if span > MAX_RESOLUTION_SPAN:
            raise ResourceLimitError(
                f"a resolution of {self.G.name} through degree {n} spans at "
                f"least {span} basis elements, above the limit "
                f"{MAX_RESOLUTION_SPAN}")
        while len(self.diffs) < n:
            self._extend()
        # the top has no next degree's kernel to read its rank from
        if n == len(self.diffs) and n in self._unchecked:
            self._checked_rank(n, self._fp[n - 1])

    def _extend(self) -> None:
        n = len(self.diffs) + 1  # building d_n
        o = self.G.order
        n_rows = self.ranks[-1] * o
        path = self._cache_path(n)
        if path and os.path.exists(path):
            with open(path) as fh:
                M = SparseMatrix.load(fh.read())
            if M.n_rows != n_rows or M.p != self.modulus:
                raise ArithmeticError(f"cached d_{n} does not fit F_{n - 1}")
            Mp = self._mod_p(M)
            self._certify_minimal(n, Mp)
            self._keep(M, Mp)
            return
        if n == 1:  # the augmentation
            A = SparseMatrix(1, o, [(0, g, 1) for g in range(o)],
                             p=self.modulus)
        else:
            A = self.module_matrix(n - 1)
        if self.route == "tensor":
            M, Mp = self._tensor(n)
        else:
            M, Mp, kernel = self._cover(n, A)
        if self.k > 1 and self._mod_p(M).cols != Mp.cols:
            raise ArithmeticError(
                f"lifted d_{n} does not reduce to d_{n} mod {self.p}")
        # on the generator columns, which suffices by equivariance (see
        # the module docstring), modulo p^k
        if not composes_to_zero(A, M, range(M.n_cols)):
            raise ArithmeticError(
                "resolution differentials do not compose to zero")
        self._certify_minimal(n, Mp)
        if self.route == "tensor":  # rank additivity, one rank per degree
            self._unchecked[n] = o - 1 if n == 1 else (
                n_rows - self._checked_rank(n - 1, self._fp[n - 2]))
            self._checked_rank(n, Mp)
        elif self.minimal:
            self._unchecked[n] = len(kernel)
        self._keep(M, Mp)
        if path:
            os.makedirs(self.cache_dir, exist_ok=True)
            tmp = path + ".tmp"
            with open(tmp, "w") as fh:
                M.dump(fh)
            os.replace(tmp, path)

    def _cover(self, n: int, A: SparseMatrix) -> tuple[
            SparseMatrix, SparseMatrix, list[dict[int, int]]]:
        """d_n over Z/p^k and mod p, covering ker d_(n-1) (A: its module
        matrix over Z/p^k), and a basis of that kernel."""
        o = self.G.order
        # a basis of the kernel whose rows have distinct least coordinates
        # (see _minimal_cover), when the kernel's own rows do not
        basis = None
        if n == 1:  # ker of the augmentation: spanned by g - e
            _check_terms("d_1's cover", self.G, o * (o - 1))
            kernel = [{g: 1, 0: self.p - 1} for g in range(1, o)]
            basis = [{g: 1, o - 1: self.p - 1} for g in range(o - 1)]

            def solve(b: dict[int, int]) -> dict[int, int]:
                return {0: b[0]} if b else {}
        else:
            Ap = A if self.k == 1 else self._expand(self._fp[n - 2], n - 1)
            kernel, ech = kernel_mod_p(Ap, echelon=True)
            if n - 1 in self._unchecked:  # rank d_(n-1) from its kernel
                self._certify_exact(n - 1, Ap.n_cols - len(kernel))

            def solve(b: dict[int, int]) -> Optional[dict[int, int]]:
                return _solve_augmented(ech, Ap.n_rows, b)
        if self.minimal:
            gens = self._minimal_cover(kernel, basis)
        else:
            gens = self._greedy_cover(kernel)
        # the covers return nonzero columns, reduced mod p, with rows below
        # A.n_cols
        M = Mp = SparseMatrix(A.n_cols, len(gens), p=self.p)
        Mp.cols = dict(enumerate(gens))
        if self.k > 1:
            M = self._lift(n, A, Mp, solve)
        return M, Mp, kernel

    def _tensor(self, n: int) -> tuple[SparseMatrix, SparseMatrix]:
        """d_n over Z/p^k and mod p of G = F x H, F the first factor and H
        the product of the rest, from their resolutions, which read and
        write no cache.  F_n (x) F'_0 .. F_0 (x) F'_n are numbered in the
        order of a, then i, then j for the generator e_i (x) e'_j of
        F_a (x) F'_(n-a), and its column is d(e_i) (x) e'_j +
        (-1)^a e_i (x) d(e'_j); the element (f, h) is f*|H| + h, the
        numbering of build_product."""
        if self._pair is None:
            first, *rest = self.G.factors
            H = rest[0] if len(rest) == 1 else build_product(rest)
            self._pair = (resolution_for(first, self.p, "", k=self.k),
                          resolution_for(H, self.p, "", k=self.k))
        for res in self._pair:
            res.extend_to(n)
        F, H = self._pair
        Mp = _tensor_columns(n, F, H, F._fp, H._fp, self.p)
        if self.k == 1:
            return Mp, Mp
        return _tensor_columns(n, F, H, F.diffs, H.diffs, self.modulus), Mp

    def _checked_rank(self, n: int, Mp: SparseMatrix) -> int:
        """rank d_n mod p (Mp: its generator columns), certified by rank
        additivity while that is pending."""
        if n not in self._rank:
            rank = rank_mod_p(self._expand(Mp, n))
            if n in self._unchecked:
                self._certify_exact(n, rank)
            self._rank[n] = rank
        return self._rank[n]

    def _keep(self, M: SparseMatrix, Mp: SparseMatrix) -> None:
        """Append d_n over Z/p^k and mod p."""
        self.diffs.append(M)
        self._fp.append(Mp)
        self.ranks.append(M.n_cols)

    def _lift(self, n: int, A: SparseMatrix, M: SparseMatrix,
              solve) -> SparseMatrix:
        """The F_p generator columns M of d_n lifted to Z/p^k, one p-adic
        digit at a time: A is the lifted module matrix of d_(n-1), and
        solve(b) some x with d_(n-1)*x = b mod p, or None.  Each column
        starts from its balanced representatives, |v| < p/2 for odd p,
        which are often an integral relation already (g - e, the norm
        element), so that no digit fills it in.  y = A*c is kept over Z,
        one dense row list per column, and updated by each digit's
        p^j*A*e."""
        p, q, cols = self.p, self.modulus, A.cols
        L = SparseMatrix(M.n_rows, M.n_cols, p=q)
        for j, col in M.cols.items():
            c = {i: v - p if 2 * v > p else v for i, v in col.items()}
            e, pj = c, 1
            y = [0] * A.n_rows
            for _ in range(1, self.k):
                for m, v in e.items():  # y += pj * A*e
                    v *= pj
                    for i, x in cols.get(m, {}).items():
                        y[i] += v * x
                pj *= p  # y = A*c = 0 mod pj
                e = solve({i: -(v // pj) % p for i, v in enumerate(y)
                           if (v // pj) % p})
                if e is None:
                    raise ArithmeticError(
                        f"d_{n} does not lift to Z/{q}: a digit has no "
                        "solution")
                for i, v in e.items():
                    c[i] = (c.get(i, 0) + pj * v) % q
            L.cols[j] = {i: v % q for i, v in c.items() if v % q}
        return L

    def _mod_p(self, A: SparseMatrix) -> SparseMatrix:
        """A over Z/p^k reduced mod p (A itself when k = 1)."""
        if A.p == self.p:
            return A
        p = self.p
        R = SparseMatrix(A.n_rows, A.n_cols, p=p)
        for j, col in A.cols.items():
            red = {i: v % p for i, v in col.items() if v % p}
            if red:
                R.cols[j] = red
        return R

    def _certify_minimal(self, n: int, Mp: SparseMatrix) -> None:
        """On the minimal path, d_n (x) F_p vanishes (Mp: d_n mod p)."""
        if self.minimal and self._induced(Mp).cols:
            raise ArithmeticError(
                f"induced differential d_{n} does not vanish mod {self.p}: "
                f"d_{n} is not a minimal cover of ker d_{n - 1}")

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

    def _minimal_cover(self, kernel: list[dict[int, int]],
                       basis: Optional[list[dict[int, int]]] = None
                       ) -> list[dict[int, int]]:
        """A basis of K / J*K, K spanned by kernel: the residues of the
        kernel vectors modulo J*K and the earlier picks.  Residues are
        canonical modulo a span, so J*K may be built from any basis of K
        (basis, when given; else kernel) and the picks stay the same.

        J*K is built along the generator order of _normal_series: stage j
        adds (s_j - 1)*k to I = sum_(i<j) (s_i - 1)*K.  When s_j normalizes
        H = <s_1 .. s_(j-1)>, I = J_H*K and (s_j - 1)*I lies in I, so k need
        only run over a basis of K modulo I.  If the basis rows have
        distinct least coordinates (kernel_mod_p's rows do, and d_1's
        e_g - e_(|G|-1) do), the pivots of I are among them, and the rows
        whose least coordinate is not a pivot of I are such a basis."""
        if self._series is None:
            self._series = _normal_series(self.G)
        basis = kernel if basis is None else basis
        leads = [min(vec) for vec in basis]
        echelon = len(set(leads)) == len(leads)
        span = Echelon(p=self.p)
        for s, normal in self._series:
            rows = basis
            if normal and echelon:
                rows = [vec for vec, lead in zip(basis, leads)
                        if lead not in span.basis]
            for vec in rows:  # (s - 1) * vec
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
        taken as the reduced residue (the span is G-invariant, so spans
        agree)."""
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
        # certify: every kernel vector lies in the span (and the span is
        # inside the kernel by G-invariance), so im d_n = ker d_{n-1}
        for vec in kernel:
            if span.reduce(vec):
                raise ArithmeticError("kernel cover incomplete")
        return gens

    def module_matrix(self, n: int) -> SparseMatrix:
        """The matrix of the module map d_n over Z/p^k."""
        return self._expand(self.diffs[n - 1], n)

    def _expand(self, M: SparseMatrix, n: int) -> SparseMatrix:
        """The module map d_n with generator columns M: column j*|G| + g
        is the g-translate of generator column j.  Translation keeps each
        entry inside its row block, and keeps the count of entries."""
        o = self.G.order
        _check_terms(f"d_{n}'s module matrix", self.G, M.nnz() * o)
        A = SparseMatrix(M.n_rows, M.n_cols * o, p=M.p)
        A.cols = {j * o + g: self._translate(vec, g)
                  for j, vec in M.cols.items() for g in range(o)}
        return A

    # -- induced complex ------------------------------------------------------

    def _induced(self, M: SparseMatrix) -> SparseMatrix:
        """d_n (x)_G Z/p^k from its generator columns M: each row block
        summed."""
        o, q = self.G.order, M.p
        D = SparseMatrix(M.n_rows // o, M.n_cols, p=q)
        for j, col in M.cols.items():
            acc: dict[int, int] = {}
            for i, v in col.items():
                acc[i // o] = acc.get(i // o, 0) + v
            acc = {i: v % q for i, v in acc.items() if v % q}
            if acc:
                D.cols[j] = acc
        return D

    def induced_matrix(self, n: int) -> SparseMatrix:
        """Boundary b_{n-1} x b_n of F (x)_G Z/p^k (augment both sides)."""
        self.extend_to(n)
        return self._induced(self.diffs[n - 1])

    def homology_dims_mod_p(self, p: int, max_degree: int) -> list[int]:
        """dim_{F_p} H_n(G; F_p) for n = 0..max_degree."""
        if p != self.p:
            raise ValueError("coefficient prime differs from resolution prime")
        self.extend_to(max_degree + 1)
        if self.minimal:
            # every d_n (x) F_p, built or loaded, was checked to vanish
            return self.ranks[:max_degree + 1]
        ranks_p = [0]  # rank of D_0 = 0
        for n in range(1, max_degree + 2):
            ranks_p.append(rank_mod_p(self._mod_p(self.induced_matrix(n))))
        return [self.ranks[n] - ranks_p[n] - ranks_p[n + 1]
                for n in range(max_degree + 1)]

    def integral_homology(self, n: int) -> tuple[int, tuple[int, ...]]:
        """The p-part of H_n(G; Z), n >= 1, as (free rank, torsion
        divisors p^a, ascending), from the Smith forms of the induced
        matrices over Z/p^k.  A divisor that is 0 mod p^k counts as zero
        (see the module docstring)."""
        if self.k == 1:
            raise ValueError("integral homology needs a lifted resolution")
        if n < 1:
            raise ValueError("need n >= 1")
        self.extend_to(n + 1)
        rank_n, _ = self._divisors(n)
        rank_next, torsion = self._divisors(n + 1)
        return self.ranks[n] - rank_n - rank_next, torsion

    def _divisors(self, n: int) -> tuple[int, tuple[int, ...]]:
        """(rank, divisors other than 1) of the induced b_n over Z/p^k.
        The Smith form over Z of its representatives reduces to one over
        Z/p^k, where a divisor d is p^(v_p(d)) times a unit."""
        D = self.induced_matrix(n)
        rep = smith_normal_form(SparseMatrix(D.n_rows, D.n_cols, D.entries()))
        p = self.p
        divisors = [p ** _valuation(d, p) for d in rep.elementary_divisors]
        kept = [d for d in divisors if d < self.modulus]
        return len(kept), tuple(d for d in kept if d > 1)


def _tensor_columns(n: int, F: FreeResolution, H: FreeResolution,
                    f_diffs: list[SparseMatrix], h_diffs: list[SparseMatrix],
                    q: int) -> SparseMatrix:
    """The generator columns of d_n of F (x) H over Z/q, from the
    generator columns of the factors' differentials (see _tensor)."""
    fr, hr, fo, ho = F.ranks, H.ranks, F.G.order, H.G.order
    o = fo * ho

    def offsets(m: int) -> list[int]:  # first generator of each F_a (x) F'_(m-a)
        off = [0]
        for a in range(m + 1):
            off.append(off[-1] + fr[a] * hr[m - a])
        return off

    to, at = offsets(n - 1), offsets(n)
    M = SparseMatrix(to[-1] * o, at[-1], p=q)
    for a in range(n + 1):
        b = n - a
        sign = q - 1 if a % 2 else 1  # (-1)^a
        for i in range(fr[a]):
            left = f_diffs[a - 1].cols.get(i, {}) if a else {}
            for j in range(hr[b]):
                col = {}
                if a:  # d(e_i) (x) e'_j, in F_(a-1) (x) F'_b
                    base = to[a - 1] + j
                    for row, v in left.items():
                        r, f = divmod(row, fo)
                        col[(base + r * hr[b]) * o + f * ho] = v
                if b:  # (-1)^a e_i (x) d(e'_j), in F_a (x) F'_(b-1)
                    base = to[a] + i * hr[b - 1]
                    for row, v in h_diffs[b - 1].cols.get(j, {}).items():
                        s, h = divmod(row, ho)
                        col[(base + s) * o + h] = v * sign % q
                M.cols[at[a] + i * hr[b] + j] = col
    return M


def _normal_series(G: FiniteGroup) -> list[tuple[int, bool]]:
    """An order of generators of G, each with whether it normalizes the
    subgroup H that the generators before it generate.  A generator
    already in H is left out: s - 1 lies in J_H, so (s - 1)*K lies in
    J_H*K.  Each generator taken then enlarges H, so an order has at most
    log_p |G| entries.  From each start the next generator is the first
    outside H that normalizes H, else the first outside H; the order with
    the most normalizing generators wins, the earliest start on a tie."""
    best: tuple[int, list[tuple[int, bool]]] = (-1, [])
    for first in dict.fromkeys(s for s in G.generators if s != 0):
        series, prefix, members = [], [], frozenset({0})
        s: Optional[int] = first
        while s is not None:
            series.append((s, _normalizes(G, s, prefix, members)))
            prefix.append(s)
            members = closure_members(G, prefix)
            outside = [t for t in G.generators if t not in members]
            s = next((t for t in outside
                      if _normalizes(G, t, prefix, members)),
                     outside[0] if outside else None)
        score = sum(normal for _, normal in series)
        if score > best[0]:
            best = (score, series)
    return best[1]


def _normalizes(G: FiniteGroup, s: int, prefix: list[int],
                members: frozenset[int]) -> bool:
    """s H s^-1 = H for H = <prefix>, whose elements are members."""
    mul, t = G.mul, G.inv[s]
    return all(mul[mul[s][h]][t] in members for h in prefix)


def _check_terms(what: str, G: FiniteGroup, terms: int) -> None:
    if terms > MAX_MODULE_TERMS:
        raise ResourceLimitError(
            f"{what} over {G.name} has {terms} entries, above the limit "
            f"{MAX_MODULE_TERMS}")


def _valuation(n: int, p: int) -> int:
    """The exponent of p in n >= 1."""
    v = 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


# Not bounded: a CLI process runs one job, which makes an entry for each
# of its groups and rings, and for the factors of a product (README
# "Design notes").
_RESOLUTIONS: dict[tuple[str, int, Optional[str], int, str],
                   FreeResolution] = {}


def resolution_for(G: FiniteGroup, p: int, cache_dir: Optional[str] = None,
                   integral: bool = False,
                   k: Optional[int] = None) -> FreeResolution:
    res = FreeResolution(G, p, cache_dir, integral, k)
    return _RESOLUTIONS.setdefault(
        (G.digest(), p, res.cache_dir, res.k, res.route), res)
