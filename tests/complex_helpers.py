"""Simplicial complexes that only the tests build or write out, and the
oracles the tests read off a complex, a graph product or a Davis
quotient.

Three routines as they were first written are the oracles of their
faster forms: the chain-count program with one list of counts per
element (of davis._chain_counts, which packs them into one integer), the
orbifold Euler characteristic summed as one Fraction per simplex (of
davis.orbifold_chi, which sums integers over one power of two), and the
unit-pair elimination with each cell's cofaces in a list (of
exact_linalg._eliminate_unit_pairs, which keeps them in a dict)."""

import itertools
from collections import deque
from fractions import Fraction

from cohomolab import exact_linalg
from cohomolab.davis import (DavisQuotient, GraphProduct, SimplicialComplex,
                             _coset_elements, _mask, racg_from_complex,
                             torsion_free_coloring)


def complex_to_dict(K: SimplicialComplex) -> dict:
    """K in the JSON form that `davis.complex_from_dict` reads."""
    return {"vertices": K.n_vertices,
            "facets": [list(f) for f in K.facets()]}


def full_simplex(l: int) -> SimplicialComplex:
    return SimplicialComplex(l, [range(l)])


def simplex_boundary(l: int) -> SimplicialComplex:
    """Boundary of the full simplex on l vertices: a triangulated
    (l-2)-sphere."""
    return SimplicialComplex(l, list(itertools.combinations(range(l),
                                                            l - 1)))


def euler_characteristic(K: SimplicialComplex) -> int:
    return sum((-1) ** d * n for d, n in enumerate(K.f_vector()))


def is_finite(W: GraphProduct) -> bool:
    """Finite exactly when the whole vertex set is spherical."""
    return tuple(range(W.complex.n_vertices)) in W.complex.simplices \
        or W.complex.n_vertices == 0


def vertex_labels(q: DavisQuotient) -> tuple:
    """The (S, coset bitmask) of each vertex of Q, in vertex order, as
    the flags of K's facets label them."""
    return q._order_complex[1]


def quotient_poset(K: SimplicialComplex) -> tuple[list, dict]:
    """(elements, masks) that davis_quotient hands to _chain_counts for
    the full complex K under torsion_free_coloring."""
    coloring = torsion_free_coloring(K)
    masks = {s: _mask(s, coloring)
             for s in racg_from_complex(K).spherical_subsets()}
    return _coset_elements(masks, len(set(coloring))), masks


def chain_counts_oracle(elements, masks) -> tuple[list[int], int]:
    """davis._chain_counts with a list of chain counts per element and
    both roots looked up at every union."""
    index = {e: i for i, e in enumerate(elements)}
    parent = list(range(len(elements)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    chains: list[list[int]] = []  # chains[i][m]: m + 1 elements, i on top
    f: list[int] = []
    for i, (s, x) in enumerate(elements):
        c = [1] + [0] * len(s)
        for r in range(len(s)):
            for t in itertools.combinations(s, r):
                free = masks[s] & ~masks[t]
                b = free
                while True:
                    j = index[t, x | b]
                    for m, n in enumerate(chains[j], 1):
                        c[m] += n
                    if not t:
                        parent[find(j)] = find(i)
                    if not b:
                        break
                    b = (b - 1) & free
        chains.append(c)
        f.extend([0] * (len(c) - len(f)))
        for m, n in enumerate(c):
            f[m] += n
    return f, sum(1 for i in range(len(parent)) if find(i) == i)


def orbifold_chi_oracle(K: SimplicialComplex) -> Fraction:
    """davis.orbifold_chi, with no size limit, summing one Fraction
    g(S)/2^|S| per spherical subset."""
    g: dict = {}
    supersum: dict = {}
    for s in sorted(K.simplices, key=len, reverse=True):
        g[s] = 1 - supersum.get(s, 0)
        for r in range(len(s)):
            for face in itertools.combinations(s, r):
                supersum[face] = supersum.get(face, 0) + g[s]
    g[()] = 1 - supersum.get((), 0)
    return sum((Fraction(gs, 2 ** len(s)) for s, gs in g.items()),
               Fraction(0))


def eliminate_unit_pairs_oracle(boundary: list) -> None:
    """exact_linalg._eliminate_unit_pairs with each cell's cofaces in a
    list, removed by list.remove; the cost cap is read from exact_linalg
    at each call, so a test that moves it moves both."""
    cap = exact_linalg._MAX_COST
    cob: list = [[] for _ in boundary]
    for c, col in enumerate(boundary):
        for a in col:
            cob[a].append(c)
    shift = len(boundary).bit_length()
    mask = (1 << shift) - 1
    buckets: list = []
    low = 0

    def push(c, col, faces):
        nonlocal low
        size = len(col) - 1
        for a in faces:
            v = col.get(a)
            if v == 1 or v == -1:
                cost = min(size * (len(cob[a]) - 1), cap)
                while cost >= len(buckets):
                    buckets.append(deque())
                buckets[cost].append(c << shift | a)
                low = min(low, cost)

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
                        cob[f].append(c)
                    other[f] = x
                else:
                    del other[f]
                    cob[f].remove(c)
            push(c, other, other if len(other) < size else col)
        for f in col:
            if f != a:
                cob[f].remove(b)
        for e in cob[b]:
            top = boundary[e]
            del top[b]
            push(e, top, top)
        for f in boundary[a]:
            cob[f].remove(a)
        boundary[a] = boundary[b] = cob[a] = cob[b] = None
