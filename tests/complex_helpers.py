"""Simplicial complexes that only the tests build or write out, and the
oracles the tests read off a complex, a graph product or a Davis
quotient.

Three routines as they were first written are the oracles of their
faster forms: the chain-count program with one list of counts per
element (of davis._chain_counts, which packs them into one integer), the
orbifold Euler characteristic summed as one Fraction per simplex (of
davis.orbifold_chi, which sums integers over one power of two), and the
unit-pair elimination with each cell's cofaces in a list (of
exact_linalg._eliminate_unit_pairs, which keeps them in a dict).  The
homology of any chain complex, its cells in any order, has the Smith
normal forms of its unreduced boundary matrices as oracle."""

import itertools
import random
from fractions import Fraction

import pytest

from cohomolab import davis
from cohomolab.davis import (DavisQuotient, GraphProduct, HomologyGroup,
                             SimplicialComplex, _coset_elements, _mask,
                             chain_homology, quotient_homology,
                             racg_from_complex, torsion_free_coloring)
from cohomolab.exact_linalg import (SparseMatrix, reduce_chain_complex,
                                    smith_normal_form)


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
    list, removed by list.remove, and the unit face of fewest cofaces
    taken as the least (coface count, position) over the column."""
    cob: list = [[] for _ in boundary]
    for c, col in enumerate(boundary):
        for a in col:
            cob[a].append(c)
    again = True
    while again:
        again = False
        for b in range(len(boundary)):
            col = boundary[b]
            if col is None:
                continue
            units = [(len(cob[f]), i, f)
                     for i, (f, v) in enumerate(col.items()) if abs(v) == 1]
            if not units:
                continue
            a = min(units)[2]
            u = col[a]
            for c in cob[a]:
                if c == b:
                    continue
                other = boundary[c]
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
                again = again or c < b
            for f in col:
                if f != a:
                    cob[f].remove(b)
            for e in cob[b]:
                del boundary[e][b]
            for f in boundary[a]:
                cob[f].remove(a)
            boundary[a] = boundary[b] = cob[a] = cob[b] = None


def cube_boundaries(q: DavisQuotient) -> tuple[list, list]:
    """(dims, boundary columns) that quotient_homology hands to
    chain_homology, copied before the reduction consumes them."""
    seen = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(davis, "chain_homology",
                  lambda dims, boundary, f=davis.chain_homology:
                  seen.append((list(dims), [dict(c) for c in boundary]))
                  or f(dims, boundary))
        quotient_homology(q)
    (dims, boundary), = seen
    return dims, boundary


def renumber_cells(dims: list, boundary: list, seed: int) -> list:
    """The chain complex with the cells of each degree permuted by
    random.Random(seed): the same complex, met in another cell order."""
    rng = random.Random(seed)
    new, start = [], 0
    for size in dims:
        block = list(range(start, start + size))
        rng.shuffle(block)
        new += block
        start += size
    out: list = [None] * len(boundary)
    for c, col in enumerate(boundary):
        out[new[c]] = {new[a]: v for a, v in col.items()}
    return out


def snf_chain_homology(dims: list, boundary: list) -> list[HomologyGroup]:
    """H_n of the chain complex from the Smith normal form of each of its
    boundary matrices, with no reduction first."""
    starts = list(itertools.accumulate(dims, initial=0))
    snf = [smith_normal_form(SparseMatrix(
        dims[n - 1], dims[n],
        [(a - starts[n - 1], c - starts[n], v)
         for c in range(starts[n], starts[n + 1])
         for a, v in boundary[c].items()]))
        for n in range(1, len(dims))]
    ranks = [0] + [r.rank for r in snf] + [0]
    return [HomologyGroup(size - ranks[n] - ranks[n + 1],
                          snf[n].torsion if n < len(snf) else ())
            for n, size in enumerate(dims)]


def remainder_and_minimum(dims: list, boundary: list) -> tuple[int, int]:
    """(cells left by reduce_chain_complex, the fewest any chain complex
    of free modules with this homology has): a rank-r group needs r
    cells, a torsion factor Z/m two, joined by the entry m."""
    left = sum(d.n_cols for d in
               reduce_chain_complex(dims, [dict(c) for c in boundary]))
    fewest = sum(h.rank + 2 * len(h.torsion)
                 for h in chain_homology(dims, [dict(c) for c in boundary]))
    return left, fewest
