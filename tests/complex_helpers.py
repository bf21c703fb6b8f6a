"""Simplicial complexes that only the tests build or write out, and the
oracles the tests read off a complex, a graph product or a Davis
quotient."""

import itertools

from cohomolab.davis import DavisQuotient, GraphProduct, SimplicialComplex


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
