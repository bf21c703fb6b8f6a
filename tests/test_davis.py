import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cohomolab.davis import (
    BestvinaReport,
    GraphProduct,
    HomologyGroup,
    SimplicialComplex,
    barycentric_subdivision,
    bestvina_check,
    chiswell_chi,
    cohomology_degree,
    complex_from_dict,
    davis_quotient,
    homology,
    link,
    moore_complex,
    orbifold_chi,
    quotient_cubes,
    quotient_homology,
    racg_from_complex,
    torsion_free_coloring,
    universal_coefficients,
)
from cohomolab.davis import (MAX_FACET_SIZE, MAX_QUOTIENT_PAIRS,
                             _chain_complex, _chain_counts,
                             _chain_field_bits, _cube_chains)
from cohomolab.exact_linalg import (SparseMatrix, _eliminate_unit_pairs,
                                    smith_normal_form)
from complex_helpers import (chain_counts_oracle, complex_to_dict,
                             eliminate_unit_pairs_oracle,
                             euler_characteristic, full_simplex, is_finite,
                             orbifold_chi_oracle, quotient_poset,
                             simplex_boundary, vertex_labels)

Z = HomologyGroup(1, ())
ZERO = HomologyGroup(0, ())


def two_points():
    return SimplicialComplex(2, [[0], [1]])


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------


def test_face_closure_and_f_vector():
    K = SimplicialComplex(4, [[0, 1, 2], [2, 3]])
    assert K.f_vector() == [4, 4, 1]
    assert (0, 1) in K.simplices and (1, 2) in K.simplices
    assert K.dimension == 2
    assert K.facets() == [(0, 1, 2), (2, 3)]


def test_rejects_bad_facets():
    with pytest.raises(ValueError):
        SimplicialComplex(3, [[0, 0, 1]])
    with pytest.raises(ValueError):
        SimplicialComplex(2, [[0, 5]])


def test_fullness():
    assert full_simplex(3).is_full()
    assert two_points().is_full()
    assert simplex_boundary(4).is_full() is False  # hollow tetrahedron
    # all edges of K_6 with no higher faces
    K6 = SimplicialComplex(6, list(itertools.combinations(range(6), 2)))
    assert not K6.is_full()


def test_barycentric_subdivision_counts():
    K = barycentric_subdivision(simplex_boundary(4))
    assert K.f_vector() == [14, 36, 24]
    assert K.is_full()
    assert sorted(set(K.vertex_dims)) == [0, 1, 2]


def test_subdivision_preserves_homology():
    K = moore_complex(3)
    assert homology(barycentric_subdivision(K)) == homology(K)


def test_json_roundtrip():
    K = simplex_boundary(4)
    K2 = complex_from_dict(complex_to_dict(K))
    assert K2.simplices == K.simplices


def test_link_examples():
    S2 = simplex_boundary(4)
    assert homology(link(S2, [0])) == [Z, Z]          # circle
    assert homology(link(S2, [0, 1])) == [HomologyGroup(2, ())]  # 2 points
    with pytest.raises(ValueError):
        link(S2, [0, 1, 2, 3])


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


def boundary_matrix(K, n):
    """The n-th boundary map, columns indexed by n-simplices and rows by
    (n-1)-simplices, faces signed (-1)^i in lexicographic vertex order."""
    rows = {s: i for i, s in enumerate(K.by_dim.get(n - 1, ()))}
    cols = K.by_dim.get(n, [])
    entries = []
    for j, s in enumerate(cols):
        for i in range(len(s)):
            entries.append((rows[s[:i] + s[i + 1:]], j, (-1) ** i))
    return SparseMatrix(len(rows), len(cols), entries)


def test_boundary_squared_is_zero():
    K = barycentric_subdivision(simplex_boundary(4))
    boundary = _chain_complex(K)
    for col in boundary:
        acc: dict[int, int] = {}
        for b, v in col.items():
            for a, w in boundary[b].items():
                acc[a] = acc.get(a, 0) + v * w
        assert all(x == 0 for x in acc.values())
    for n in range(1, K.dimension + 1):
        d_n = boundary_matrix(K, n)
        d_n1 = boundary_matrix(K, n + 1) if n < K.dimension else None
        if d_n1 is None:
            continue
        cols = {j: dict(c) for j, c in d_n.cols.items()}
        for j, col in d_n1.cols.items():
            acc: dict[int, int] = {}
            for i, v in col.items():
                for r, w in cols.get(i, {}).items():
                    acc[r] = acc.get(r, 0) + v * w
            assert all(x == 0 for x in acc.values())


def test_sphere_homology():
    assert homology(simplex_boundary(4)) == [Z, ZERO, Z]
    assert homology(simplex_boundary(5)) == [Z, ZERO, ZERO, Z]


def test_cohomology_universal_coefficients():
    K = moore_complex(4)
    assert cohomology_degree(K, 0) == Z
    assert cohomology_degree(K, 1) == ZERO
    assert cohomology_degree(K, 2) == HomologyGroup(0, (4,))
    assert cohomology_degree(K, 3) == ZERO
    h = homology(K)
    assert [universal_coefficients(h, n) for n in range(-1, 5)] == \
        [cohomology_degree(K, n) for n in range(-1, 5)]


# ---------------------------------------------------------------------------
# homology against the unreduced route: one SNF per boundary matrix
# ---------------------------------------------------------------------------


def snf_homology(K):
    """H_n(K; Z) from the Smith normal form of every boundary matrix of K,
    with no reduction of the chain complex first."""
    if K.dimension < 0:
        return []
    f = K.f_vector()
    snf = [smith_normal_form(boundary_matrix(K, n))
           for n in range(1, K.dimension + 1)]
    ranks = [0] + [r.rank for r in snf] + [0]
    return [HomologyGroup(f[n] - ranks[n] - ranks[n + 1],
                          snf[n].torsion if n < K.dimension else ())
            for n in range(K.dimension + 1)]


@st.composite
def flag_complexes(draw, n_max=9):
    """The clique complex of a random graph on up to n_max vertices."""
    n = draw(st.integers(1, n_max))
    pairs = list(itertools.combinations(range(n), 2))
    edges = {e for e in pairs if draw(st.booleans())}
    cliques = [c for r in range(1, n + 1)
               for c in itertools.combinations(range(n), r)
               if all(e in edges for e in itertools.combinations(c, 2))]
    return SimplicialComplex(n, cliques)


@settings(max_examples=150, deadline=None)
@given(flag_complexes())
def test_homology_matches_snf_on_flag_complexes(K):
    assert homology(K) == snf_homology(K)


def _disjoint(A, B):
    return SimplicialComplex(
        A.n_vertices + B.n_vertices,
        list(A.facets()) + [[v + A.n_vertices for v in f]
                            for f in B.facets()])


def _sd_quotient(K):
    K = barycentric_subdivision(K)
    return davis_quotient(racg_from_complex(K),
                          torsion_free_coloring(K)).complex


# Each complex is built inside the test, not at collection, so a defect
# in a builder fails its tests instead of the module's collection; the id
# is the complex's f-vector, which the test checks.
SNF_CASES = [
    *((lambda n=n: moore_complex(n), f) for n, f in zip(range(2, 7), [
        [10, 27, 18], [13, 39, 27], [16, 51, 36], [19, 63, 45],
        [22, 75, 54]])),
    *((lambda l=l: simplex_boundary(l), f) for l, f in zip(range(2, 7), [
        [2], [3, 3], [4, 6, 4], [5, 10, 10, 5], [6, 15, 20, 15, 6]])),
    (lambda: barycentric_subdivision(simplex_boundary(4)), [14, 36, 24]),
    (lambda: barycentric_subdivision(simplex_boundary(5)),
     [30, 150, 240, 120]),
    (lambda: barycentric_subdivision(moore_complex(3)), [79, 240, 162]),
    (lambda: _disjoint(moore_complex(2), simplex_boundary(4)), [14, 33, 22]),
    (lambda: SimplicialComplex(1, [[0]]), [1]),
    (lambda: SimplicialComplex(0, []), []),
    (lambda: _sd_quotient(simplex_boundary(4)), [160, 1312, 2304, 1152]),
    (lambda: _sd_quotient(SimplicialComplex(
        5, [[i, (i + 1) % 5] for i in range(5)])), [34, 120, 80]),
]


@pytest.mark.parametrize("build,f", SNF_CASES,
                         ids=[str(f) for _, f in SNF_CASES])
def test_homology_matches_snf(build, f):
    K = build()
    assert K.f_vector() == f
    assert homology(K) == snf_homology(K)


@pytest.mark.parametrize("cap", [0, 1, 3])
def test_homology_with_capped_pivot_costs(monkeypatch, cap):
    # costs above the cap share one FIFO bucket; the order changes, the
    # homology may not
    from cohomolab import exact_linalg
    monkeypatch.setattr(exact_linalg, "_MAX_COST", cap)
    for K in (moore_complex(3), _sd_quotient(simplex_boundary(4))):
        assert homology(K) == snf_homology(K)


# ---------------------------------------------------------------------------
# Moore complexes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_moore_complex_self_certifies(n):
    K = moore_complex(n)
    assert homology(K) == [Z, HomologyGroup(0, (n,)), ZERO]


def test_moore_complex_rejects_small_n():
    with pytest.raises(ValueError):
        moore_complex(1)


# ---------------------------------------------------------------------------
# graph products and Euler characteristics
# ---------------------------------------------------------------------------


def test_racg_examples():
    pt = racg_from_complex(SimplicialComplex(1, [[0]]))
    assert is_finite(pt) and pt.is_racg         # C_2
    dih = racg_from_complex(two_points())
    assert not is_finite(dih)                   # infinite dihedral
    cube = racg_from_complex(full_simplex(3))
    assert is_finite(cube)                      # (C_2)^3
    assert len(cube.spherical_subsets()) == 8   # all subsets


def test_racg_requires_full():
    with pytest.raises(ValueError):
        racg_from_complex(simplex_boundary(4))


def test_graph_product_validation():
    with pytest.raises(ValueError):
        GraphProduct((2,), two_points())
    with pytest.raises(ValueError):
        GraphProduct((2, 1), two_points())


def test_chi_forced_values():
    cases = [
        (SimplicialComplex(1, [[0]]), Fraction(1, 2)),
        (full_simplex(2), Fraction(1, 4)),
        (two_points(), Fraction(0)),
        (full_simplex(3), Fraction(1, 8)),
    ]
    for K, want in cases:
        assert chiswell_chi(K) == want
        assert orbifold_chi(K) == want


def test_chi_positive_on_subdivided_three_sphere():
    K = barycentric_subdivision(simplex_boundary(5))
    assert chiswell_chi(K) == orbifold_chi(K) > 0


def test_chi_requires_full():
    with pytest.raises(ValueError):
        chiswell_chi(simplex_boundary(4))


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------


def test_dimension_coloring_on_subdivision():
    K = barycentric_subdivision(moore_complex(2))
    col = torsion_free_coloring(K)
    assert sorted(set(col)) == [0, 1, 2]
    for (u, v) in K.by_dim[1]:
        assert col[u] != col[v]


def test_greedy_coloring_on_edge():
    col = torsion_free_coloring(full_simplex(2))
    assert sorted(col) == [0, 1]


# ---------------------------------------------------------------------------
# Davis quotients
# ---------------------------------------------------------------------------


def test_quotient_of_finite_group_is_contractible_cone():
    q = davis_quotient(racg_from_complex(full_simplex(2)), [0, 1])
    assert q.k == 2
    assert homology(q.complex) == [Z, ZERO, ZERO]
    assert q.euler.passed
    assert q.euler.chi_quotient_over_index == Fraction(1, 4)


def test_quotient_of_infinite_dihedral_is_circle():
    q = davis_quotient(racg_from_complex(two_points()), [0, 0])
    assert q.k == 1
    assert q.complex.f_vector() == [4, 4]
    assert homology(q.complex) == [Z, Z]


def test_quotient_vertex_count_law():
    K = barycentric_subdivision(simplex_boundary(4))
    q = davis_quotient(racg_from_complex(K), torsion_free_coloring(K))
    counts: dict[int, int] = {}
    for s, _ in vertex_labels(q):
        counts[len(s)] = counts.get(len(s), 0) + 1
    f = K.f_vector()
    assert counts == {0: 8, 1: 4 * f[0], 2: 2 * f[1], 3: f[2]}


def test_sphere_quotient_is_closed_three_manifold():
    K = barycentric_subdivision(simplex_boundary(4))
    q = davis_quotient(racg_from_complex(K), torsion_free_coloring(K))
    assert euler_characteristic(q.complex) == 0
    assert q.euler.chi_orbifold == 0
    h = homology(q.complex)
    assert h[0] == Z and h[3] == Z  # connected, closed, orientable
    for v in range(q.complex.n_vertices):
        assert homology(link(q.complex, [v])) == [Z, ZERO, Z]


def test_quotient_rejects_larger_vertex_groups():
    gp = GraphProduct((2, 3), two_points())
    with pytest.raises(ValueError):
        davis_quotient(gp, [0, 0])


def test_quotient_rejects_improper_coloring():
    with pytest.raises(ValueError):
        davis_quotient(racg_from_complex(full_simplex(2)), [0, 0])
    with pytest.raises(ValueError):
        davis_quotient(racg_from_complex(full_simplex(2)), [0])


# ---------------------------------------------------------------------------
# the Bestvina suite
# ---------------------------------------------------------------------------


def test_bestvina_n2(monkeypatch):
    from cohomolab import davis
    calls, quotients = [], []
    monkeypatch.setattr(davis, "homology",
                        lambda K, h=davis.homology: calls.append(K) or h(K))
    monkeypatch.setattr(
        davis, "quotient_homology",
        lambda q, h=davis.quotient_homology: quotients.append(q) or h(q))
    rep = bestvina_check(2)
    # H^3 is read from the quotient's homology, not computed again, and
    # that homology comes from the cubes, not from the simplices of Q
    assert len({id(K) for K in calls}) == len(calls)
    assert len(quotients) == 1
    assert all(K is not quotients[0].complex for K in calls)
    assert isinstance(rep, BestvinaReport)
    assert rep.passed
    assert rep.quotient_homology[0] == Z
    assert rep.h3_cohomology.rank == 0
    assert rep.torsion_exponent == 2
    assert rep.rank_h3_zero
    # the observed value: torsion_divides_n also holds with no torsion
    assert rep.torsion_divides_n
    assert rep.h3_cohomology == HomologyGroup(0, (2,))


def test_bestvina_n3_torsion_divides():
    rep = bestvina_check(3)
    assert rep.passed
    assert 3 % rep.torsion_exponent == 0
    assert all(g == ZERO for g in rep.quotient_homology[4:])
    assert rep.torsion_divides_n
    assert rep.h3_cohomology == HomologyGroup(0, (3,))


def test_bestvina_n4_h3_is_z4():
    rep = bestvina_check(4)
    assert rep.passed and rep.torsion_divides_n
    assert rep.h3_cohomology == HomologyGroup(0, (4,))


# ---------------------------------------------------------------------------
# quotient homology from the cubes, against the simplices of Q as oracle
# ---------------------------------------------------------------------------


def _quotient(K):
    return davis_quotient(racg_from_complex(K), torsion_free_coloring(K))


@pytest.mark.parametrize("build", [
    *(lambda n=n: barycentric_subdivision(moore_complex(n))
      for n in (2, 3, 4)),
    lambda: barycentric_subdivision(simplex_boundary(4)),
    lambda: SimplicialComplex(1, [[0]]),
    lambda: full_simplex(2),
    two_points,
    lambda: SimplicialComplex(5, [[i, (i + 1) % 5] for i in range(5)]),
], ids=["sd-moore-2", "sd-moore-3", "sd-moore-4", "sd-boundary-4", "point",
        "edge", "two-points", "cycle-5"])
def test_quotient_homology_matches_simplicial(build):
    q = _quotient(build())
    assert quotient_homology(q) == homology(q.complex)


@st.composite
def small_quotients(draw):
    """The Davis quotient of the clique complex of a random graph on up
    to 7 vertices, drawn only when Q has at most 4,000 facets."""
    K = draw(flag_complexes(7))
    k = len(set(torsion_free_coloring(K)))
    size = sum(math.factorial(len(F)) for F in K.facets()) << k
    assume(size <= 4000)
    return _quotient(K)


@settings(max_examples=60, deadline=None)
@given(small_quotients())
def test_quotient_homology_matches_simplicial_on_flag_complexes(q):
    assert quotient_homology(q) == homology(q.complex)


def test_quotient_cubes_are_the_vertex_labels():
    q = _quotient(barycentric_subdivision(moore_complex(2)))
    cubes = quotient_cubes(q)
    assert len(cubes) == len(set(cubes)) == q.complex.n_vertices
    assert set(cubes) == set(vertex_labels(q))
    assert [len(s) for s, _ in cubes] == sorted(len(s) for s, _ in cubes)
    # 2^(k - |S|) cubes per spherical S
    assert len(cubes) == sum(2 ** (q.k - len(s))
                             for s in q.graph_product.spherical_subsets())


def _cube_boundaries(monkeypatch, q):
    """(dims, boundary columns) that quotient_homology hands to
    chain_homology, copied before the reduction consumes them."""
    from cohomolab import davis
    seen = []
    monkeypatch.setattr(
        davis, "chain_homology",
        lambda dims, boundary, f=davis.chain_homology:
        seen.append((list(dims), [dict(c) for c in boundary]))
        or f(dims, boundary))
    quotient_homology(q)
    (dims, boundary), = seen
    return dims, boundary


def test_cube_boundaries_are_oriented_and_compose_to_zero(monkeypatch):
    q = _quotient(barycentric_subdivision(moore_complex(2)))
    dims, boundary = _cube_boundaries(monkeypatch, q)
    cubes = quotient_cubes(q)
    assert dims == [sum(len(s) == n for s, _ in cubes)
                    for n in range(len(dims))]
    for (s, _), col in zip(cubes, boundary):
        assert len(col) == 2 * len(s)
        assert sorted(col.values()) == [-1] * len(s) + [1] * len(s)
    # each edge runs from (S - v, x) to (S - v, x | e): the augmentation
    # vanishes on boundaries
    assert all(sum(col.values()) == 0
               for (s, _), col in zip(cubes, boundary) if len(s) == 1)
    for col in boundary:
        dd = {}
        for face, a in col.items():
            for f, b in boundary[face].items():
                dd[f] = dd.get(f, 0) + a * b
        assert not any(dd.values())


def _tampered(monkeypatch, tamper):
    from cohomolab import davis
    monkeypatch.setattr(davis, "quotient_cubes",
                        lambda q, f=davis.quotient_cubes: tamper(q, f(q)))


def test_duplicated_cube_fails_the_euler_check(monkeypatch):
    q = _quotient(barycentric_subdivision(simplex_boundary(4)))
    _tampered(monkeypatch, lambda q, cubes: cubes + cubes[-1:])
    with pytest.raises(ArithmeticError, match="Euler characteristic"):
        quotient_homology(q)


def test_foreign_cube_fails_the_label_check(monkeypatch):
    # (S, x) with a bit of S's own colors set: the same dimension, so the
    # Euler characteristic still matches
    def foreign(q, cubes):
        s, x = cubes[-1]
        return cubes[:-1] + [(s, x | 1 << q.coloring[s[0]])]

    q = _quotient(barycentric_subdivision(simplex_boundary(4)))
    _tampered(monkeypatch, foreign)
    with pytest.raises(ArithmeticError, match="vertex labels"):
        quotient_homology(q)


# ---------------------------------------------------------------------------
# the poset of Q's vertices, against Q itself as oracle
# ---------------------------------------------------------------------------


def _assert_poset_is_q(q):
    """The f-vector, the Euler characteristic and the elements counted on
    the poset are those of the order complex built simplex by simplex."""
    Q = q.complex
    assert list(q.f_vector) == Q.f_vector()
    assert q.euler.chi_quotient_over_index * 2 ** q.k == \
        euler_characteristic(Q)
    assert len(q.elements) == len(set(q.elements)) == Q.n_vertices
    assert set(q.elements) == set(vertex_labels(q))


@pytest.mark.parametrize("build", [
    *(lambda n=n: barycentric_subdivision(moore_complex(n))
      for n in (2, 3, 4)),
    lambda: barycentric_subdivision(simplex_boundary(4)),
    lambda: SimplicialComplex(1, [[0]]),
    lambda: full_simplex(2),
    two_points,
    lambda: SimplicialComplex(0, []),
], ids=["bestvina-2", "bestvina-3", "bestvina-4", "sd-boundary-4", "point",
        "edge", "two-points", "empty"])
def test_poset_counts_match_the_order_complex(build):
    _assert_poset_is_q(_quotient(build()))


@settings(max_examples=60, deadline=None)
@given(small_quotients())
def test_poset_counts_match_the_order_complex_on_flag_complexes(q):
    _assert_poset_is_q(q)


def test_poset_chain_counts_by_hand():
    # the point: (0, x) for x in {0, 1} below (v, 0), an arc of two edges
    point = [((), 0), ((), 1), ((0,), 0)]
    assert _chain_counts(point, {(): 0, (0,): 1}) == ([3, 2], 1)
    # without (v, 0) the two cosets of the trivial subgroup are apart
    assert _chain_counts(point[:2], {(): 0}) == ([2], 2)


def test_union_find_joins_roots():
    # the path 3 - 1 - 0 - 2 of minimal elements (the empty set, y): the
    # edge (0,) joins 0 and 1, the edges (1,) join 0, 2 and 1, 3.  The
    # second edge meets 0 below the root 1, and only linking 0's root
    # keeps 1 in the component
    path = [((), 0), ((), 1), ((), 2), ((), 3),
            ((0,), 0), ((1,), 0), ((1,), 1)]
    masks = {(): 0, (0,): 1, (1,): 2}
    assert _chain_counts(path, masks) == chain_counts_oracle(path, masks) \
        == ([7, 6], 1)


@pytest.mark.parametrize("build", [
    *(lambda n=n: barycentric_subdivision(moore_complex(n))
      for n in (2, 3, 4)),
    *(lambda d=d: full_simplex(d) for d in range(7)),
    lambda: SimplicialComplex(0, []),
], ids=["bestvina-2", "bestvina-3", "bestvina-4",
        *(f"simplex-{d}" for d in range(7)), "empty"])
def test_chain_counts_and_chi_match_the_oracles(build):
    """The packed chain counts and the integer orbifold sum against the
    list program and the per-simplex Fraction sum.  A full simplex is one
    cube, whose top element carries the most chains: its fields are the
    fullest."""
    _assert_oracles_agree(build())


@settings(max_examples=60, deadline=None)
@given(flag_complexes(7))
def test_chain_counts_and_chi_match_the_oracles_on_flag_complexes(K):
    _assert_oracles_agree(K)


def _assert_oracles_agree(K):
    elements, masks = quotient_poset(K)
    assert _chain_counts(elements, masks) == \
        chain_counts_oracle(elements, masks)
    assert orbifold_chi(K) == orbifold_chi_oracle(K)


def test_packed_field_width_at_the_limits():
    # the quotient of the full simplex on d vertices is one d-cube, whose
    # C(d, j) 2^(d-j) faces of dimension j top _cube_chains(j) chains
    # each: 2 _cube_chains(d) - 1 chains in all
    for d in range(6):
        f, _ = chain_counts_oracle(*quotient_poset(full_simplex(d)))
        assert sum(f) == 2 * _cube_chains(d) - 1
    assert _cube_chains(MAX_FACET_SIZE) == 492664975795819140737
    assert _chain_field_bits(MAX_QUOTIENT_PAIRS, MAX_FACET_SIZE) == 88


@pytest.mark.parametrize("n,cap", [(n, 255) for n in range(2, 17)]
                         + [(2, 0), (2, 1), (2, 3)])
def test_unit_pair_remainder_matches_the_oracle(monkeypatch, n, cap):
    """The dict cofaces eliminate the same pairs in the same order as the
    list cofaces: the same cells remain, with the same columns in the
    same order."""
    from cohomolab import exact_linalg
    monkeypatch.setattr(exact_linalg, "_MAX_COST", cap)
    q = _quotient(barycentric_subdivision(moore_complex(n)))
    _, boundary = _cube_boundaries(monkeypatch, q)
    oracle = [dict(col) for col in boundary]
    _eliminate_unit_pairs(boundary)
    eliminate_unit_pairs_oracle(oracle)
    assert [col and list(col.items()) for col in boundary] == \
        [col and list(col.items()) for col in oracle]
    assert sum(col is not None for col in boundary) < len(boundary)


def test_empty_complex_is_the_trivial_group():
    K = SimplicialComplex(0, [])
    assert K.is_full()
    assert chiswell_chi(K) == orbifold_chi(K) == 1
    q = _quotient(K)
    assert (q.k, q.elements, q.f_vector) == (0, (((), 0),), (1,))
    assert q.euler.passed and q.euler.chi_quotient_over_index == 1
    assert quotient_homology(q) == [Z]
    # the simplicial oracle takes the empty set as K's one facet
    assert q.complex.f_vector() == [1] and homology(q.complex) == [Z]


def _tampered_poset(monkeypatch, name, tamper):
    from cohomolab import davis
    monkeypatch.setattr(davis, name,
                        lambda *args, f=getattr(davis, name):
                        tamper(f(*args)))


def test_duplicated_element_fails_the_count_law(monkeypatch):
    _tampered_poset(monkeypatch, "_coset_elements",
                    lambda elements: elements + elements[-1:])
    with pytest.raises(ArithmeticError, match="vertex count law"):
        _quotient(barycentric_subdivision(simplex_boundary(4)))


def test_split_poset_fails_the_connectivity_check(monkeypatch):
    # the f-vector stays right, so only the connectivity check can see it
    _tampered_poset(monkeypatch, "_chain_counts",
                    lambda counted: (counted[0], 2))
    with pytest.raises(ArithmeticError, match="not connected"):
        _quotient(barycentric_subdivision(simplex_boundary(4)))


def test_quotient_complex_is_built_once_on_demand(monkeypatch):
    from cohomolab import davis
    built = []
    monkeypatch.setattr(davis, "_flag_quotient",
                        lambda *args, f=davis._flag_quotient:
                        built.append(args) or f(*args))
    q = _quotient(barycentric_subdivision(simplex_boundary(4)))
    assert built == []
    quotient_homology(q)
    assert built == []
    assert q.complex.n_vertices == len(vertex_labels(q)) == 160
    assert len(built) == 1


def test_quotient_bound_counts_pairs_and_steps(monkeypatch):
    """The limits compare the (S, x) pairs and the chain-count steps, one
    per element (S, y) and subset T of S: sum over T of 2^(k - |T|)."""
    from cohomolab import davis
    from cohomolab.bar_cohomology import ResourceLimitError
    K = barycentric_subdivision(simplex_boundary(4))
    gp, coloring = racg_from_complex(K), torsion_free_coloring(K)
    k = len(set(coloring))
    spherical = gp.spherical_subsets()
    pairs = len(spherical) << k
    steps = sum(2 ** (k - r) for s in spherical for r in range(len(s) + 1)
                for _ in itertools.combinations(s, r))
    for name, exact in (("MAX_QUOTIENT_PAIRS", pairs),
                        ("MAX_QUOTIENT_STEPS", steps)):
        monkeypatch.setattr(davis, name, exact)
        davis_quotient(gp, coloring)
        monkeypatch.setattr(davis, name, exact - 1)
        with pytest.raises(ResourceLimitError, match=f"{pairs} coset pairs "
                           f"and {steps} chain-count steps"):
            davis_quotient(gp, coloring)
        monkeypatch.undo()


def test_orbifold_chi_bound_counts_face_simplex_pairs(monkeypatch):
    """The limit compares the (face, simplex) pairs orbifold_chi visits:
    every proper face, the empty one included, of every simplex."""
    from cohomolab import davis
    from cohomolab.bar_cohomology import ResourceLimitError
    K = barycentric_subdivision(simplex_boundary(4))
    pairs = sum(2 ** len(s) - 1 for s in K.simplices if s)
    assert davis.MAX_CHI_PAIRS >= davis.MAX_QUOTIENT_STEPS
    monkeypatch.setattr(davis, "MAX_CHI_PAIRS", pairs)
    assert orbifold_chi(K) == chiswell_chi(K)
    monkeypatch.setattr(davis, "MAX_CHI_PAIRS", pairs - 1)
    with pytest.raises(ResourceLimitError, match=f"{pairs} "):
        orbifold_chi(K)
