"""Right-angled Coxeter groups from full simplicial complexes and finite
quotients of their Davis complexes.

A finite simplicial complex K on vertices 0..l-1 determines a graph
product on l generators whose commuting graph is the 1-skeleton of K;
when every vertex group is C_2 this is a right-angled Coxeter group and
the simplices of K (plus the empty set) are exactly the spherical
subsets.  A proper coloring of the 1-skeleton with k colors defines a
homomorphism onto (C_2)^k whose kernel is torsion-free of index 2^k;
the quotient Q of the Davis complex by that kernel is the order complex
of the finite poset of pairs (spherical subset S, coset of the image of
the special subgroup on S), ordered by coset containment.  Q is
certified on that poset without listing its simplices: the vertex-count
law, connectivity, and an Euler characteristic read off the chain
counts of the poset, checked against two independent group Euler
characteristics.  Q is the barycentric subdivision of a cube complex
with one |S|-cube per pair (M. W. Davis, The Geometry and Topology of
Coxeter Groups, 2008), and the homology of the quotient is computed on
those cubes, about 33 times fewer cells than simplices on the Bestvina
quotients.  Q itself is built from the flags of the complex only when
asked for: it is the test oracle and carries the links of criterion 12.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

from .exact_linalg import (ResourceLimitError, reduce_chain_complex,
                           smith_normal_form)

Simplex = tuple  # sorted tuple of vertex indices


# ---------------------------------------------------------------------------
# Simplicial complexes
# ---------------------------------------------------------------------------


class SimplicialComplex:
    """A finite abstract simplicial complex, stored face-closed.

    Simplices are sorted vertex tuples.  vertex_dims, when present,
    records for each vertex the dimension of the original face it
    subdivides (set by barycentric_subdivision and used for the
    dimension coloring).
    """

    def __init__(self, n_vertices: int, facets: Sequence[Sequence[int]],
                 vertex_dims: Optional[Sequence[int]] = None):
        if n_vertices < 0:
            raise ValueError("negative vertex count")
        self.n_vertices = n_vertices
        simplices: set[Simplex] = set()
        for f in facets:
            f = tuple(sorted(f))
            if len(set(f)) != len(f):
                raise ValueError(f"facet {f} repeats a vertex")
            if f and not (0 <= f[0] and f[-1] < n_vertices):
                raise ValueError(f"facet {f} out of range")
            for r in range(1, len(f) + 1):
                simplices.update(itertools.combinations(f, r))
        self.simplices = frozenset(simplices)
        self.by_dim: dict[int, list[Simplex]] = {}
        for s in sorted(simplices):
            self.by_dim.setdefault(len(s) - 1, []).append(s)
        for sims in self.by_dim.values():
            sims.sort()
        self.dimension = max(self.by_dim, default=-1)
        self.vertex_dims = tuple(vertex_dims) if vertex_dims is not None \
            else None
        if self.vertex_dims is not None and \
                len(self.vertex_dims) != n_vertices:
            raise ValueError("vertex_dims length mismatch")
        self._full: Optional[bool] = None

    def f_vector(self) -> list[int]:
        return [len(self.by_dim.get(d, ())) for d in
                range(self.dimension + 1)]

    def facets(self) -> list[Simplex]:
        """Maximal simplices (every non-maximal one is a codimension-one
        face of some simplex)."""
        non_maximal = set()
        for s in self.simplices:
            if len(s) > 1:
                for i in range(len(s)):
                    non_maximal.add(s[:i] + s[i + 1:])
        return sorted(s for s in self.simplices if s not in non_maximal)

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n_vertices)]
        for (u, v) in self.by_dim.get(1, ()):
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def is_full(self) -> bool:
        """Whether every clique of the 1-skeleton spans a simplex
        (checked on maximal cliques, Bron-Kerbosch with pivoting; the
        empty clique, maximal only in the empty complex, spans the empty
        simplex)."""
        if self._full is None:
            adj = self.adjacency()
            self._full = True
            for clique in _maximal_cliques(adj):
                if clique and tuple(sorted(clique)) not in self.simplices:
                    self._full = False
                    break
        return self._full


def _alternating_sum(f: Sequence[int]) -> int:
    """The Euler characteristic sum over m of (-1)^m f[m]."""
    return sum((-1) ** m * n for m, n in enumerate(f))


def _maximal_cliques(adj: list[set[int]]):
    n = len(adj)

    def bron(R: set, P: set, X: set):
        if not P and not X:
            yield R
            return
        pivot = max(P | X, key=lambda u: len(adj[u] & P))
        for v in list(P - adj[pivot]):
            yield from bron(R | {v}, P & adj[v], X & adj[v])
            P.discard(v)
            X.add(v)

    yield from bron(set(), set(range(n)), set())


# Bounds on an input complex, checked before anything is allocated: the
# vertex count sizes the adjacency table of is_full, and a facet on d
# vertices makes SimplicialComplex list its 2^d - 1 faces.
MAX_VERTICES = 1 << 16
MAX_FACET_SIZE = 16

# Bounds on a Davis quotient, counted from the f-vector before its elements
# are listed: the |spherical| * 2^k pairs (S, x) that _coset_elements walks,
# and the steps of _chain_counts, one per element (S, y) and (T, b) below
# or equal to it, 2^(k-|S|) * 3^|S| for each S.  Bestvina n = 256 needs
# 319,600 pairs and 806,600 steps (davis_quotient 0.7 s); the full simplex
# on 9 vertices 262,144 and 1,953,125 (0.64 s); on 10 vertices 2^20 and
# 9,765,625 (about 3 s and 40 MB).  Python 3.11, one core of a Xeon.
MAX_QUOTIENT_PAIRS = 1 << 19
MAX_QUOTIENT_STEPS = 1 << 21

# The (face, simplex) pairs of orbifold_chi, sum of f_i * (2^(i+1) - 1):
# 3^n - 2^n on the n-vertex simplex, 1.59M at n = 13 (0.69 s).  No lower
# than the step bound, as a quotient has more steps than pairs.
MAX_CHI_PAIRS = MAX_QUOTIENT_STEPS


def complex_from_dict(data: dict) -> SimplicialComplex:
    """{"vertices": l, "facets": [[v, ...], ...]}; ValueError on any other
    shape, ResourceLimitError beyond MAX_VERTICES or MAX_FACET_SIZE."""
    if not isinstance(data, dict):
        raise ValueError(
            f"a complex must be an object, not {type(data).__name__}")
    n, facets = data["vertices"], data["facets"]
    # type(), not isinstance(): JSON true must not pass for 1
    if type(n) is not int:
        raise ValueError("complex field 'vertices' must be an integer")
    if not (isinstance(facets, list) and all(
            isinstance(f, list) and all(type(v) is int for v in f)
            for f in facets)):
        raise ValueError("complex field 'facets' must be a list of lists "
                         "of integers")
    if n > MAX_VERTICES:
        raise ResourceLimitError(
            f"{n} vertices are above the limit {MAX_VERTICES}")
    size = max(map(len, facets), default=0)
    if size > MAX_FACET_SIZE:
        raise ResourceLimitError(
            f"a facet of {size} vertices is above the limit {MAX_FACET_SIZE}")
    return SimplicialComplex(n, facets)


def barycentric_subdivision(K: SimplicialComplex) -> SimplicialComplex:
    """Vertices are the simplices of K; simplices are the chains under
    strict inclusion.  The result is always full, and carries the
    dimension of each original face in vertex_dims."""
    verts = sorted(K.simplices, key=lambda s: (len(s), s))
    index = {s: i for i, s in enumerate(verts)}
    facets = []
    for F in K.facets():
        for perm in itertools.permutations(F):
            chain = [index[tuple(sorted(perm[:i]))]
                     for i in range(1, len(F) + 1)]
            facets.append(chain)
    out = SimplicialComplex(len(verts), facets,
                            vertex_dims=[len(s) - 1 for s in verts])
    if not out.is_full():
        raise ArithmeticError("subdivision is not full (construction bug)")
    return out


def link(K: SimplicialComplex, simplex: Sequence[int]) -> SimplicialComplex:
    """The link of a simplex, with its vertices relabelled to 0..m-1 in
    increasing original order."""
    s = tuple(sorted(simplex))
    if s not in K.simplices:
        raise ValueError(f"simplex {s} is not in the complex")
    ss = set(s)
    members = [t for t in K.simplices
               if not ss & set(t) and tuple(sorted(s + t)) in K.simplices]
    verts = sorted({v for t in members for v in t})
    relabel = {v: i for i, v in enumerate(verts)}
    return SimplicialComplex(len(verts),
                             [[relabel[v] for v in t] for t in members])


# ---------------------------------------------------------------------------
# Homology (unit-pair reduction, then SNF)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomologyGroup:
    rank: int
    torsion: tuple[int, ...]  # invariant factors > 1, each dividing the next


def _chain_complex(K: SimplicialComplex) -> list[dict[int, int]]:
    """Boundary columns of the simplicial chain complex, the simplices
    numbered in order of dimension and faces signed (-1)^i in
    lexicographic vertex order, except that the first vertex (cell 0) is
    left out of every boundary.  That complex is C(K, v) plus a free summand
    on v, so its homology is H(K; Z) for nonempty K, and the edges at v
    start as zero-cost pairs."""
    boundary: list[dict[int, int]] = []
    index: dict[Simplex, int] = {}
    for n in range(K.dimension + 1):
        faces, index = index, {}
        for s in K.by_dim[n]:
            index[s] = len(boundary)
            col = {}
            for i in range(len(s) if n else 0):
                face = faces[s[:i] + s[i + 1:]]
                if face:
                    col[face] = -1 if i & 1 else 1
            boundary.append(col)
    return boundary


def chain_homology(dims: Sequence[int],
                   boundary: list[dict[int, int]]) -> list[HomologyGroup]:
    """[H_n(C; Z) for n = 0..len(dims)-1] of the chain complex with dims[n]
    cells in degree n and boundary columns as in reduce_chain_complex: the
    complex is shrunk by eliminating unit pairs (which certifies the
    remainder), then the Smith normal form of what remains gives the
    ranks and torsion."""
    d = reduce_chain_complex(dims, boundary)
    snf = [smith_normal_form(m) for m in d[1:]]
    ranks = [0] + [r.rank for r in snf] + [0]
    top = len(dims) - 1
    return [HomologyGroup(d[n].n_cols - ranks[n] - ranks[n + 1],
                          snf[n].torsion if n < top else ())
            for n in range(len(dims))]


def homology(K: SimplicialComplex) -> list[HomologyGroup]:
    """[H_n(K; Z) for n = 0..dim] from the simplicial chain complex."""
    if K.dimension < 0:
        return []
    return chain_homology(K.f_vector(), _chain_complex(K))


def universal_coefficients(h: Sequence[HomologyGroup],
                           n: int) -> HomologyGroup:
    """H^n(K; Z) from h = homology(K): the free part of H_n plus the
    torsion of H_(n-1)."""
    rank = h[n].rank if 0 <= n < len(h) else 0
    torsion = h[n - 1].torsion if 1 <= n <= len(h) else ()
    return HomologyGroup(rank, torsion)


def cohomology_degree(K: SimplicialComplex, n: int) -> HomologyGroup:
    """H^n(K; Z) by universal coefficients."""
    return universal_coefficients(homology(K), n)


# ---------------------------------------------------------------------------
# Moore complexes
# ---------------------------------------------------------------------------


def _wrapped_disc(n: int, q: int) -> SimplicialComplex:
    """A disc with n*q boundary edges -- a central fan plus one internal
    ring -- with the boundary identified onto a q-vertex circle by the
    n-fold wrap.  Raises if the identification repeats a face."""
    m = n * q
    ring = lambda i: 1 + (i % m)
    circ = lambda i: 1 + m + (i % q)
    facets = []
    for i in range(m):
        facets.append((0, ring(i), ring(i + 1)))
        facets.append((ring(i), ring(i + 1), circ(i + 1)))
        facets.append((ring(i), circ(i), circ(i + 1)))
    for f in facets:
        if len(set(f)) != 3:
            raise ValueError("identification collapses a face")
    if len(set(map(lambda f: tuple(sorted(f)), facets))) != len(facets):
        raise ValueError("identification repeats a face")
    return SimplicialComplex(m + q + 1, facets)


def moore_complex(n: int) -> SimplicialComplex:
    """A simplicial 2-complex with homology (Z, Z/n, 0): a disc wrapped
    n times onto a circle.  Self-certifying: the homology is recomputed
    and checked before returning; a degenerate triangulation retries
    with one extra subdivision of the circle."""
    if n < 2:
        raise ValueError("n must be at least 2")
    for q in (3, 4):
        try:
            K = _wrapped_disc(n, q)
        except ValueError:
            continue
        if homology(K) == [HomologyGroup(1, ()),
                           HomologyGroup(0, (n,)),
                           HomologyGroup(0, ())]:
            return K
    raise ArithmeticError(f"could not certify a Moore complex for n={n}")


# ---------------------------------------------------------------------------
# Graph products and Euler characteristics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphProduct:
    """A graph product of finite cyclic vertex groups with commuting
    graph the 1-skeleton of a full complex.  The spherical subsets are
    the simplices of the complex plus the empty set."""
    orders: tuple[int, ...]
    complex: SimplicialComplex

    def __post_init__(self):
        if len(self.orders) != self.complex.n_vertices:
            raise ValueError("one vertex group per vertex")
        if any(o < 2 for o in self.orders):
            raise ValueError("vertex groups must be nontrivial and finite")
        if not self.complex.is_full():
            raise ValueError("the complex must be full")

    @property
    def is_racg(self) -> bool:
        return all(o == 2 for o in self.orders)

    def spherical_subsets(self) -> list[Simplex]:
        return [()] + sorted(self.complex.simplices, key=lambda s: (len(s), s))


def racg_from_complex(K: SimplicialComplex) -> GraphProduct:
    """The right-angled Coxeter group whose nerve of spherical subsets
    is K (requires K full: subdivide first otherwise)."""
    if not K.is_full():
        raise ValueError("complex is not full; subdivide first")
    return GraphProduct((2,) * K.n_vertices, K)


def chiswell_chi(K: SimplicialComplex) -> Fraction:
    """1 - (1/2) sum_i n_i/(-2)^i over the i-simplex counts n_i.  The
    same formula with all-positive denominators fails the forced values
    for finite groups (e.g. it gives -1/4 instead of 1/4 on an edge),
    so the alternating form is used; orbifold_chi is the independent
    cross-check."""
    if not K.is_full():
        raise ValueError("complex is not full")
    total = Fraction(0)
    for i, n_i in enumerate(K.f_vector()):
        total += Fraction(n_i, (-2) ** i)
    return 1 - Fraction(1, 2) * total


def orbifold_chi(K: SimplicialComplex) -> Fraction:
    """Ground-truth Euler characteristic of the graph product: the sum
    over chains S_0 < ... < S_n of spherical subsets (empty set
    included) of (-1)^n / 2^|S_0|, evaluated by downward recursion
    g(S) = 1 - sum over strict spherical supersets T of g(T), and summed
    as the integer sum of g(S) 2^(d-|S|) over 2^d, d = dim K + 1.
    ResourceLimitError above MAX_CHI_PAIRS."""
    pairs = sum(n * ((2 << i) - 1) for i, n in enumerate(K.f_vector()))
    if pairs > MAX_CHI_PAIRS:
        raise ResourceLimitError(
            f"the Euler characteristic sums over {pairs} (face, simplex) "
            f"pairs, above the limit {MAX_CHI_PAIRS}")
    if not K.is_full():
        raise ValueError("complex is not full")
    g: dict[Simplex, int] = {}
    supersum: dict[Simplex, int] = {}
    for s in sorted(K.simplices, key=len, reverse=True):
        g[s] = 1 - supersum.get(s, 0)
        for r in range(len(s)):
            for face in itertools.combinations(s, r):
                supersum[face] = supersum.get(face, 0) + g[s]
    g[()] = 1 - supersum.get((), 0)
    d = K.dimension + 1
    return Fraction(sum(gs << d - len(s) for s, gs in g.items()), 1 << d)


# ---------------------------------------------------------------------------
# Finite quotients of the Davis complex
# ---------------------------------------------------------------------------


def torsion_free_coloring(K: SimplicialComplex) -> list[int]:
    """A proper coloring of the 1-skeleton with colors 0..k-1; the
    induced map to (C_2)^k has torsion-free kernel because the colors on
    any simplex are distinct.  Barycentric subdivisions get the
    dimension coloring (comparable faces have different dimensions);
    anything else is colored greedily."""
    if K.vertex_dims is not None:
        return list(K.vertex_dims)
    adj = K.adjacency()
    colors: list[int] = [-1] * K.n_vertices
    for v in range(K.n_vertices):
        used = {colors[u] for u in adj[v] if colors[u] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


@dataclass(frozen=True)
class EulerReport:
    """The three routes to the Euler characteristic of the group; they
    must agree exactly."""
    n_i: tuple[int, ...]
    chi_chiswell: Fraction
    chi_orbifold: Fraction
    chi_quotient_over_index: Fraction
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "passed",
            self.chi_chiswell == self.chi_orbifold
            == self.chi_quotient_over_index)


@dataclass(frozen=True)
class DavisQuotient:
    """The quotient Q of the Davis complex by the coloring kernel: the
    order complex of the poset of pairs (spherical subset S, coset of the
    image of the special subgroup on S in (C_2)^k), ordered by coset
    containment.  Its f-vector is counted on the poset; Q itself and its
    vertex labels are built from the flags of K on first access only."""
    graph_product: GraphProduct
    coloring: tuple[int, ...]
    k: int
    elements: tuple[tuple[Simplex, int], ...]  # (S, coset bitmask)
    f_vector: tuple[int, ...]
    euler: EulerReport

    @cached_property
    def _order_complex(self) -> tuple[SimplicialComplex, tuple]:
        return _flag_quotient(self.graph_product.complex, self.coloring,
                              self.k)

    @property
    def complex(self) -> SimplicialComplex:
        return self._order_complex[0]


def _mask(s: Simplex, coloring: Sequence[int]) -> int:
    """The bits of the colors of s (distinct on a simplex)."""
    return sum(1 << coloring[v] for v in s)


def _flag_quotient(K: SimplicialComplex, coloring: Sequence[int],
                   k: int) -> tuple[SimplicialComplex, tuple]:
    """Q and its vertex labels, simplex by simplex: each ordering of a
    facet F of K (the empty set when K has none) gives the flag of its
    initial segments, and each x in [0, 2^k) the simplex of the cosets of
    x along that flag."""
    vid: dict[tuple[Simplex, int], int] = {}

    def vertex_id(s: Simplex, x: int) -> int:
        key = (s, x & ~_mask(s, coloring))
        if key not in vid:
            vid[key] = len(vid)
        return vid[key]

    qfacets = []
    for F in K.facets() or [()]:
        for perm in itertools.permutations(F):
            flags = [tuple(sorted(perm[:i])) for i in range(len(F) + 1)]
            for x in range(2 ** k):
                qfacets.append([vertex_id(s, x) for s in flags])
    return SimplicialComplex(len(vid), qfacets), tuple(vid)


def _coset_elements(masks: dict[Simplex, int],
                    k: int) -> list[tuple[Simplex, int]]:
    """The pairs (S, x & ~mask(S)) for every spherical S (the keys of
    masks, in order of size) and every x in [0, 2^k), deduplicated."""
    elements: dict[tuple[Simplex, int], None] = {}
    for s, m in masks.items():
        for x in range(2 ** k):
            elements.setdefault((s, x & ~m), None)
    return list(elements)


def _cube_chains(d: int) -> int:
    """The chains in the face poset of a d-cube that have the cube itself
    on top: the cube alone, or the cube over a chain topped by one of its
    C(d, j) 2^(d-j) faces of dimension j < d."""
    a = [1]
    for top in range(1, d + 1):
        a.append(1 + sum(math.comb(top, j) * a[j] << top - j
                         for j in range(top)))
    return a[d]


def _chain_field_bits(n_elements: int, top: int) -> int:
    """The width of one field of _chain_counts' packed chain vectors.  A
    field of one element, or of the sum over all of them, counts chains
    topped by at most n_elements elements, and the elements below one of
    dimension |S| <= top are the faces of an |S|-cube, so no field exceeds
    n_elements * _cube_chains(top) and none carries into the next."""
    return (n_elements * _cube_chains(top)).bit_length()


def _submasks(m: int) -> list[int]:
    """Every b with b & ~m = 0, from m down to 0."""
    out = [m]
    b = m
    while b:
        b = (b - 1) & m
        out.append(b)
    return out


def _chain_counts(elements: Sequence[tuple[Simplex, int]],
                  masks: dict[Simplex, int]) -> tuple[list[int], int]:
    """(f, c) for the poset of elements (in order of |S|): f[m] is the
    number of its chains of m + 1 elements, the m-simplices of its order
    complex, and c the number of connected components of that complex.
    The elements below (S, x) are the (T, x | b) with T a proper subset
    of S and b a subset of mask(S) & ~mask(T); the chains topped by
    (S, x) are (S, x) alone plus, for each element below, its own chains
    with (S, x) on top.  An element's chain counts are packed into one
    integer, the count of chains of m + 1 elements in the field of width
    _chain_field_bits at bit m * width, so each element below adds its
    chains in one integer addition and the shift by one field extends
    them by (S, x).  Elements are keyed by x << shift | (the position of
    S in masks), and the keys of the faces of (S, x) are those of the
    faces of (S, 0) or'ed with x << shift.  Each element is joined to the
    minimal elements (the empty set, y) below it; two comparable elements
    share one, so the components are those of the 1-skeleton of the order
    complex, and they are counted on the minimal elements."""
    top = max((len(s) for s, _ in elements), default=0)
    width = _chain_field_bits(len(elements), top)
    shift = len(masks).bit_length()
    ids = {s: (i, m) for i, (s, m) in enumerate(masks.items())}
    offsets: dict[int, list[int]] = {}  # free mask: its submasks << shift
    packed: dict[int, int] = {}
    parent: dict[int, int] = {}  # the union-find on the minimal elements

    def find(y: int) -> int:
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        return y

    total = 0
    last = None
    get = packed.__getitem__
    for s, x in elements:
        if s != last:  # elements come grouped by S: list its faces once
            last, faces, ms = s, [], masks[s]
            for r in range(len(s)):
                for t in itertools.combinations(s, r):
                    i, m = ids[t]
                    free = ms & ~m
                    offs = offsets.get(free)
                    if offs is None:
                        offs = offsets[free] = [b << shift
                                                for b in _submasks(free)]
                    faces += map(i.__or__, offs)
                if not r:
                    minimal = faces[:]
            me = ids[s][0]
        key = x << shift
        c = 1 + (sum(map(get, map(key.__or__, faces))) << width)
        packed[key | me] = c
        total += c
        if s:
            root = find(key | minimal[0])
            for y in map(key.__or__, minimal):
                if parent[y] != root:
                    parent[find(y)] = root
        else:
            parent[key | me] = key | me
    field = (1 << width) - 1
    f = [total >> m * width & field for m in range(top + 1)] \
        if elements else []
    return f, sum(1 for y in parent if find(y) == y)


def davis_quotient(gp: GraphProduct,
                   coloring: Sequence[int]) -> DavisQuotient:
    """Certify the quotient on the poset of its vertices, without listing
    its simplices: vertex counts obey the 2^(k-|S|) law, it is connected,
    and its Euler characteristic is 2^k times both group Euler
    characteristics.  ResourceLimitError above MAX_QUOTIENT_PAIRS or
    MAX_QUOTIENT_STEPS."""
    if not gp.is_racg:
        raise ValueError("quotients are built for order-two vertex "
                         "groups only")
    K = gp.complex
    coloring = list(coloring)
    if len(coloring) != K.n_vertices:
        raise ValueError("one color per vertex")
    palette = sorted(set(coloring))
    coloring = [palette.index(c) for c in coloring]
    for (u, v) in K.by_dim.get(1, ()):
        if coloring[u] == coloring[v]:
            raise ValueError("coloring is not proper on the 1-skeleton")
    k = len(palette)

    # the spherical subsets are the empty set and f[i] subsets of size i+1
    sizes = [(0, 1)] + list(enumerate(K.f_vector(), 1))
    pairs = sum(n for _, n in sizes) << k
    steps = sum(n * 3 ** size << (k - size) for size, n in sizes)
    if pairs > MAX_QUOTIENT_PAIRS or steps > MAX_QUOTIENT_STEPS:
        raise ResourceLimitError(
            f"the quotient needs {pairs} coset pairs and {steps} chain-count "
            f"steps, above the limits {MAX_QUOTIENT_PAIRS} and "
            f"{MAX_QUOTIENT_STEPS}")
    masks = {s: _mask(s, coloring) for s in gp.spherical_subsets()}
    elements = _coset_elements(masks, k)
    counts = Counter(s for s, _ in elements)
    for s in masks:
        if counts[s] != 2 ** (k - len(s)):
            raise ArithmeticError(
                f"vertex count law fails for {s}: {counts[s]}")
    f, components = _chain_counts(elements, masks)
    if components != 1:
        raise ArithmeticError("quotient is not connected")
    report = EulerReport(
        tuple(K.f_vector()),
        chiswell_chi(K),
        orbifold_chi(K),
        Fraction(_alternating_sum(f), 2 ** k))
    if not report.passed:
        raise ArithmeticError(f"Euler cross-check fails: {report}")
    return DavisQuotient(gp, tuple(coloring), k, tuple(elements), tuple(f),
                         report)


def quotient_cubes(q: DavisQuotient) -> list[tuple[Simplex, int]]:
    """The cubes (S, x) of the quotient, in order of dimension |S|: one for
    each spherical S, the empty set included, and each x in [0, 2^k)
    with no bit in the colors of S.  Q is their barycentric subdivision,
    with these cubes as its vertex labels."""
    cubes = []
    for s in q.graph_product.spherical_subsets():
        m = _mask(s, q.coloring)
        cubes.extend((s, x) for x in range(2 ** q.k) if not x & m)
    return cubes


def quotient_homology(q: DavisQuotient) -> list[HomologyGroup]:
    """H_n(Q; Z) for n = 0..dim Q, from the cubes rather than from the
    simplices of Q.  The boundary of (S, x), S = (v_0 < ... < v_(m-1)),
    is the sum over i of (-1)^i [(S - v_i, x) - (S - v_i, x | e_i)], e_i
    the bit of the color of v_i.  Certified against the poset of Q's
    vertices before any reduction: the cubes are its elements, the vertex
    labels of Q, and have the Euler characteristic of its chain counts
    (ArithmeticError otherwise)."""
    cubes = quotient_cubes(q)
    if set(cubes) != set(q.elements):
        raise ArithmeticError("the cubes are not the vertex labels of Q")
    if sum((-1) ** len(s) for s, _ in cubes) != \
            _alternating_sum(q.f_vector):
        raise ArithmeticError("the cubes do not have the Euler "
                              "characteristic of Q")
    index = {cube: i for i, cube in enumerate(cubes)}
    dims = [0] * len(q.f_vector)
    boundary = []
    for s, x in cubes:
        dims[len(s)] += 1
        col = {}
        for i, v in enumerate(s):
            face = s[:i] + s[i + 1:]
            sign = -1 if i & 1 else 1
            col[index[face, x]] = sign
            col[index[face, x | 1 << q.coloring[v]]] = -sign
        boundary.append(col)
    return chain_homology(dims, boundary)


# ---------------------------------------------------------------------------
# The Bestvina suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BestvinaReport:
    n: int
    quotient_f_vector: tuple[int, ...]
    quotient_homology: tuple[HomologyGroup, ...]
    h3_cohomology: HomologyGroup
    h0_is_z: bool
    vanishing_above_three: bool
    torsion_exponent: int
    torsion_divides_n: bool
    rank_h3_zero: bool  # expected-value assertion, not theorem-backed
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "passed",
            self.h0_is_z and self.vanishing_above_three
            and self.torsion_divides_n and self.rank_h3_zero)


def bestvina_check(n: int) -> BestvinaReport:
    """Quotient of the Davis complex of the right-angled Coxeter group
    on a subdivided Moore complex: H_0 = Z, nothing above degree 3, and
    the torsion exponent of H^3 divides n."""
    K = barycentric_subdivision(moore_complex(n))  # self-certified input
    q = davis_quotient(racg_from_complex(K), torsion_free_coloring(K))
    h = quotient_homology(q)
    h3 = universal_coefficients(h, 3)
    exponent = max(h3.torsion, default=1)
    return BestvinaReport(
        n=n,
        quotient_f_vector=q.f_vector,
        quotient_homology=tuple(h),
        h3_cohomology=h3,
        h0_is_z=h[0] == HomologyGroup(1, ()),
        vanishing_above_three=all(
            g == HomologyGroup(0, ()) for g in h[4:]),
        torsion_exponent=exponent,
        torsion_divides_n=n % exponent == 0,
        rank_h3_zero=(h[3].rank == 0 if len(h) > 3 else True),
    )
