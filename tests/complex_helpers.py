"""Simplicial complexes that only the tests build or write out."""

from cohomolab.davis import SimplicialComplex


def complex_to_dict(K: SimplicialComplex) -> dict:
    """K in the JSON form that `davis.complex_from_dict` reads."""
    return {"vertices": K.n_vertices,
            "facets": [list(f) for f in K.facets()]}


def full_simplex(l: int) -> SimplicialComplex:
    return SimplicialComplex(l, [range(l)])
