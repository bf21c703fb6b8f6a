import os
import random

import pytest

from cohomolab import bar_cohomology as bc
from cohomolab.groups import (
    FiniteGroup,
    build_P,
    build_cyclic,
    build_product,
    subgroup_closure,
    symmetric_3,
)
from matrix_helpers import (bar_homology_dims_mod_p, cochain_vector,
                            index_cell, mul_vector)
from resolution_helpers import spy_steps

RNG = random.Random(20260823)

C2 = build_cyclic(2)
C3 = build_cyclic(3)
S3 = symmetric_3()


def y_generator(p):
    """The standard degree-1 cocycle on C_p over F_p: A^r -> r."""
    G = build_cyclic(p)
    return bc.Cochain(G, 1, {(r,): r for r in range(1, p)}, p)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", [(1, 2), (0,), (3,), (-1,)])
def test_cochain_rejects_bad_keys(key):
    with pytest.raises(ValueError):
        bc.Cochain(C3, 1, {key: 1}, 3)


@pytest.mark.parametrize("p", [None, 3])
def test_trusted_cochain_normalises_like_the_public_one(p):
    data = {(1, 2): 4, (2, 2): -3, (2, 1): 0, (1, 1): 6}
    cells = {bc.cell_index(C3, k): v for k, v in data.items()}
    trusted = bc.Cochain._trusted(C3, 2, cells, p)
    assert trusted == bc.Cochain(C3, 2, data, p)
    assert trusted.data == ({(1, 2): 4, (2, 2): -3, (1, 1): 6} if p is None
                            else {(1, 2): 1})


# ---------------------------------------------------------------------------
# coboundary
# ---------------------------------------------------------------------------


def test_coboundary_squares_to_zero():
    for G in (C2, C3, S3):
        for deg in (1, 2, 3):
            for _ in range(5):
                c = bc.random_cochain(G, deg, 5, RNG)
                assert bc.coboundary(bc.coboundary(c)).is_zero()


def test_coboundary_squares_to_zero_integrally():
    c = bc.Cochain(S3, 1, {(1,): 7, (4,): -3}, None)
    assert bc.coboundary(bc.coboundary(c)).is_zero()


def test_coboundary_degree_one_formula():
    # (delta c)(g, h) = c(h) - c(gh) + c(g), normalized
    c = bc.Cochain(C3, 1, {(1,): 1}, None)
    d = bc.coboundary(c)
    mul = C3.mul
    for g in range(1, 3):
        for h in range(1, 3):
            gh = mul[g][h]
            expected = c((h,)) - (c((gh,)) if gh else 0) + c((g,))
            assert d((g, h)) == expected


def test_coboundary_matrix_matches_coboundary():
    for G in (C3, S3):
        M = bc.coboundary_matrix(G, 1, 3)
        for _ in range(5):
            c = bc.random_cochain(G, 1, 3, RNG)
            via_matrix = mul_vector(M, cochain_vector(c))
            assert via_matrix == cochain_vector(bc.coboundary(c))


C3xC3 = build_product([build_cyclic(3), build_cyclic(3)])


@pytest.mark.parametrize("G", [C2, C3, S3, C3xC3], ids=lambda G: G.name)
@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("p", [None, 3])
def test_coboundary_matrix_columns_are_cell_coboundaries(G, n, p):
    # the face-table matrix against coboundary of each cell's indicator:
    # same entries in the same order, and no empty column stored
    M = bc.coboundary_matrix(G, n, p)
    assert (M.n_rows, M.n_cols) == (bc.n_cells(G, n + 1), bc.n_cells(G, n))
    for j in range(M.n_cols):
        cell = bc.Cochain(G, n, {index_cell(G, n, j): 1}, p)
        want = {bc.cell_index(G, k): v
                for k, v in bc.coboundary(cell).data.items()}
        got = M.cols.get(j, {})
        assert got == want and list(got) == list(want)
    assert all(M.cols.values()) and list(M.cols) == sorted(M.cols)


# ---------------------------------------------------------------------------
# dual route: literal bar boundary vs resolution engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("G,p,maxdeg", [
    (C2, 2, 4),
    (C3, 3, 4),
    (build_cyclic(9), 3, 3),
    (build_product([build_cyclic(3), build_cyclic(3)]), 3, 3),
    (S3, 3, 3),
    (S3, 2, 3),
])
def test_bar_boundary_agrees_with_resolution(G, p, maxdeg):
    literal = bar_homology_dims_mod_p(G, p, maxdeg)
    engine = bc.cohomology_dims_mod_p(G, p, maxdeg)
    assert literal == engine


def test_resolution_memo_is_kept_per_cache_dir(tmp_path, monkeypatch):
    from cohomolab import resolution
    monkeypatch.setattr(resolution, "_RESOLUTIONS", {})
    monkeypatch.delenv("COHOMOLAB_CACHE", raising=False)
    dirs = [tmp_path / "a", tmp_path / "b", tmp_path / "env"]
    for d in dirs[:2]:
        assert bc.cohomology_dims_mod_p(C3, 3, 2, cache_dir=str(d)) == [1] * 3
    monkeypatch.setenv("COHOMOLAB_CACHE", str(dirs[2]))
    assert bc.cohomology_dims_mod_p(C3, 3, 2) == [1] * 3
    for d in dirs:  # d_1 .. d_3, each written into every directory
        names = sorted(os.listdir(d))
        assert len(names) == 3 and all(n.startswith("res_") for n in names)


@pytest.mark.parametrize("p", [3, None])
def test_resolution_extends_a_cached_prefix(tmp_path, p):
    # d_1, d_2 are read as generator columns from the cache, and d_3, d_4
    # are built on top of them; p None is the resolution integral
    # cohomology reads, F_3 lifted to Z/27
    from cohomolab.resolution import FreeResolution
    V = build_product([build_cyclic(3), build_cyclic(3)])

    def resolution(cache_dir):
        return FreeResolution(V, p or 3, cache_dir, integral=p is None)

    resolution(str(tmp_path)).extend_to(2)
    cached = resolution(str(tmp_path))
    cached.extend_to(4)
    fresh = resolution("")
    fresh.extend_to(4)
    assert cached.ranks == fresh.ranks
    # the generator matrices, rows rank_(n-1)*|G| by columns rank_n
    assert [(A.n_rows, A.n_cols, A.entries()) for A in cached.diffs] == \
        [(A.n_rows, A.n_cols, A.entries()) for A in fresh.diffs]
    assert [A.n_cols for A in cached.diffs] == cached.ranks[1:]


def test_known_dimension_tables():
    assert bc.cohomology_dims_mod_p(C3, 3, 4) == [1, 1, 1, 1, 1]
    V = build_product([build_cyclic(3), build_cyclic(3)])
    assert bc.cohomology_dims_mod_p(V, 3, 3) == [1, 2, 3, 4]
    assert bc.cohomology_dims_mod_p(S3, 3, 4) == [1, 0, 0, 1, 1]


# ---------------------------------------------------------------------------
# cup and cup-1
# ---------------------------------------------------------------------------


def test_cup_unit():
    one = bc.constant_one(S3, 5)
    c = bc.random_cochain(S3, 2, 5, RNG)
    assert bc.cup(one, c) == c
    assert bc.cup(c, one) == c


def test_cup_leibniz():
    for G in (C2, C3, S3):
        for _ in range(10):
            p = RNG.randint(1, 3)
            q = RNG.randint(1, 3)
            u = bc.random_cochain(G, p, 5, RNG)
            v = bc.random_cochain(G, q, 5, RNG)
            lhs = bc.coboundary(bc.cup(u, v))
            rhs = bc.cup(bc.coboundary(u), v) + \
                bc.cup(u, bc.coboundary(v)).scale(-1 if p % 2 else 1)
            assert lhs == rhs


def test_cup_graded_commutative_on_classes():
    # [u][v] = (-1)^{pq} [v][u] for cocycles
    u = bc.class_basis(C3, 1, 3)[0]
    v = bc.class_basis(C3, 2, 3)[0]
    assert bc.class_equal(bc.cup(u, v), bc.cup(v, u))  # pq even
    # odd times odd: [y][y] = -[y][y], so 2[y]^2 = 0 and y^2 is a coboundary
    assert bc.is_coboundary(bc.cup(u, u))


def test_cup1_degree_zero_factor_vanishes():
    u = bc.random_cochain(S3, 2, 3, RNG)
    one = bc.constant_one(S3, 3)
    assert bc.cup1(u, one).is_zero()
    assert bc.cup1(one, u).is_zero()


def test_cup1_coboundary_formula():
    # delta(u cup1 v) = -delta(u) cup1 v - (-1)^p u cup1 delta(v)
    #                   + u v - (-1)^{pq} v u
    for G in (C2, C3, S3):
        for _ in range(35):
            p = RNG.randint(1, 3)
            q = RNG.randint(1, 3)
            u = bc.random_cochain(G, p, 5, RNG)
            v = bc.random_cochain(G, q, 5, RNG)
            lhs = bc.coboundary(bc.cup1(u, v))
            rhs = (bc.cup1(bc.coboundary(u), v).scale(-1)
                   + bc.cup1(u, bc.coboundary(v)).scale(-1 if p % 2 == 0 else 1)
                   + bc.cup(u, v)
                   + bc.cup(v, u).scale(1 if (p * q) % 2 else -1))
            assert lhs == rhs


def test_cup1_hirsch_identity():
    # (u v) cup1 w = (-1)^p u (v cup1 w) + (-1)^{qr} (u cup1 w) v
    for G in (C2, C3, S3):
        for _ in range(35):
            p = RNG.randint(1, 3)
            q = RNG.randint(1, 3)
            r = RNG.randint(1, 2)
            u = bc.random_cochain(G, p, 5, RNG)
            v = bc.random_cochain(G, q, 5, RNG)
            w = bc.random_cochain(G, r, 5, RNG)
            lhs = bc.cup1(bc.cup(u, v), w)
            rhs = (bc.cup(u, bc.cup1(v, w)).scale(-1 if p % 2 else 1)
                   + bc.cup(bc.cup1(u, w), v).scale(-1 if (q * r) % 2 else 1))
            assert lhs == rhs


def test_cup1_identities_hold_integrally():
    u = bc.Cochain(S3, 1, {(2,): 5, (3,): -1}, None)
    v = bc.Cochain(S3, 2, {(1, 4): 2}, None)
    lhs = bc.coboundary(bc.cup1(u, v))
    rhs = (bc.cup1(bc.coboundary(u), v).scale(-1)
           + bc.cup1(u, bc.coboundary(v))
           + bc.cup(u, v)
           - bc.cup(v, u))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# class machinery
# ---------------------------------------------------------------------------


def test_find_primitive_roundtrip():
    for _ in range(5):
        a = bc.random_cochain(C3, 1, 3, RNG)
        d = bc.coboundary(a)
        prim = bc.find_primitive(d)
        assert prim is not None
        assert bc.coboundary(prim) == d
        assert bc.is_coboundary(d)


def test_class_basis_sizes():
    assert [len(bc.class_basis(C3, n, 3)) for n in range(4)] == [1, 1, 1, 1]
    V = build_product([build_cyclic(3), build_cyclic(3)])
    assert [len(bc.class_basis(V, n, 3)) for n in range(3)] == [1, 2, 3]


def test_cohomology_class_rejects_non_cocycle():
    c = bc.Cochain(C3, 1, {(1,): 1, (2,): 1}, 3)
    assert not bc.is_cocycle(c)
    with pytest.raises(ValueError):
        bc.CohomologyClass(c)


def test_class_equal_shifted_representatives():
    z = bc.class_basis(C3, 2, 3)[0]
    shifted = z + bc.coboundary(bc.random_cochain(C3, 1, 3, RNG))
    assert bc.class_equal(z, shifted)
    assert not bc.class_equal(z, z.scale(2))


# ---------------------------------------------------------------------------
# Bockstein
# ---------------------------------------------------------------------------


def test_bockstein_values_on_c3():
    # the lift of y: A^r -> r has coboundary divisible by 3 with quotient the
    # mod-3 carry: (1/3)(r + s - (r+s mod 3)) = 1 iff r + s >= 3
    y = y_generator(3)
    b = bc.bockstein(y)
    for r in range(1, 3):
        for s in range(1, 3):
            assert b((r, s)) == (1 if r + s >= 3 else 0)


def test_bockstein_generates_degree_two():
    for p in (3, 5):
        y = y_generator(p)
        b = bc.bockstein(y)
        assert bc.is_cocycle(b)
        assert not bc.is_coboundary(b)


def test_bockstein_integral_class_has_order_p():
    y = y_generator(3)
    d3 = bc.bockstein(y, kind="delta_p")
    assert d3.p is None
    assert bc.is_cocycle(d3)
    assert not bc.is_coboundary(d3)
    assert bc.is_coboundary(d3.scale(3))


def test_bockstein_squares_to_zero_in_cohomology():
    y = y_generator(3)
    bb = bc.bockstein(bc.bockstein(y))
    assert bc.is_coboundary(bb)


def test_bockstein_rejects_bad_input():
    with pytest.raises(ValueError):
        bc.bockstein(bc.Cochain(C3, 1, {(1,): 1}, None))
    with pytest.raises(ValueError):
        bc.bockstein(bc.Cochain(C3, 1, {(1,): 1, (2,): 1}, 3))


# ---------------------------------------------------------------------------
# Massey products
# ---------------------------------------------------------------------------


def test_triple_massey_on_cyclic_groups():
    for p in (3, 5, 7):
        y = y_generator(p)
        res = bc.massey(y, y, y)
        assert res.indeterminacy == []
        if p == 3:
            assert res.equals_cochain(bc.bockstein(y))
            assert not res.is_zero_modulo_indeterminacy()
        else:
            assert res.is_zero_modulo_indeterminacy()


def test_massey_undefined_when_products_survive():
    V = build_product([build_cyclic(3), build_cyclic(3)])
    x, y = bc.class_basis(V, 1, 3)
    assert not bc.is_coboundary(bc.cup(x, y))
    with pytest.raises(ValueError):
        bc.massey(x, y, x)


def test_matrix_massey_reduces_to_triple():
    y = y_generator(3)
    res1 = bc.massey(y, y, y)
    res2 = bc.matrix_massey([y], [[y]], [y])
    assert res2.equals_cochain(res1.representative.representative)
    assert res2.equals_cochain(bc.bockstein(y))


# <x, x, x> on C_3 x C_3 at p = 3 for the first class_basis class x: the
# representative as computed before massey became the 1 x 1 matric product
MASSEY_XXX_C3xC3 = {
    (1, 2): 2, (1, 4): 1, (1, 5): 1, (1, 6): 2, (1, 7): 1, (1, 8): 2,
    (2, 1): 2, (2, 2): 2, (2, 3): 1, (2, 4): 2, (2, 5): 1, (2, 8): 1,
    (3, 2): 1, (3, 4): 2, (3, 5): 2, (3, 6): 1, (3, 7): 2, (3, 8): 1,
    (4, 1): 1, (4, 2): 2, (4, 3): 2, (4, 5): 1, (4, 6): 1, (4, 7): 2,
    (5, 1): 1, (5, 2): 1, (5, 3): 2, (5, 4): 1, (5, 5): 2, (5, 8): 2,
    (6, 1): 2, (6, 3): 1, (6, 4): 1, (6, 6): 1, (6, 7): 2, (6, 8): 2,
    (7, 1): 1, (7, 3): 2, (7, 4): 2, (7, 6): 2, (7, 7): 1, (7, 8): 1,
    (8, 1): 2, (8, 2): 1, (8, 3): 1, (8, 5): 2, (8, 6): 2, (8, 7): 1,
}


def test_massey_with_indeterminacy_on_c3xc3():
    V = build_product([build_cyclic(3), build_cyclic(3)])
    x = bc.class_basis(V, 1, 3)[0]
    res = bc.massey(x, x, x)
    assert res.representative.representative.data == MASSEY_XXX_C3xC3
    assert len(res.indeterminacy) == 1
    assert not res.is_zero_modulo_indeterminacy()
    # a representative shifted by the indeterminacy is the same product
    shifted = res.representative.representative + res.indeterminacy[0]
    assert res.equals_cochain(shifted)
    assert res.equals_cochain(shifted + bc.coboundary(
        bc.random_cochain(V, 1, 3, RNG)))


def test_matrix_massey_shape_validation():
    y = y_generator(3)
    with pytest.raises(ValueError):
        bc.matrix_massey([y, y], [[y]], [y])


# ---------------------------------------------------------------------------
# restriction and transfer
# ---------------------------------------------------------------------------


def test_restriction_of_class_basis():
    V = build_product([build_cyclic(3), build_cyclic(3)])
    H = subgroup_closure(V, [3])  # first factor
    assert H.order == 3
    z = bc.class_basis(V, 2, 3)
    restricted = [bc.restrict(c, H) for c in z]
    assert all(bc.is_cocycle(r) for r in restricted)
    # H^2 of the subgroup is 1-dimensional, so the three restrictions
    # span at most that
    nonzero = [r for r in restricted if not bc.is_coboundary(r)]
    assert nonzero


def test_transfer_composed_with_restriction_is_index():
    V = build_product([build_cyclic(3), build_cyclic(3)])
    H = subgroup_closure(V, [3])
    for n in (1, 2):
        for c in bc.class_basis(V, n, 3):
            cr = bc.transfer(bc.restrict(c, H), H)
            assert bc.class_equal(cr, c.scale(H.index))


def test_transfer_from_proper_elementary_abelian_subgroup_vanishes():
    V = build_product([build_cyclic(3), build_cyclic(3)])
    H = subgroup_closure(V, [3])
    for n in (1, 2):
        for c in bc.class_basis(H.as_group(), n, 3):
            assert bc.is_coboundary(bc.transfer(c, H))


def test_transfer_commutes_with_coboundary():
    G = build_P(3, 3)
    H = subgroup_closure(G, [3, 1])  # abelian subgroup of order 9
    assert H.order == 9
    c = bc.random_cochain(H.as_group(), 1, 3, RNG)
    assert bc.transfer(bc.coboundary(c), H) == bc.coboundary(bc.transfer(c, H))


def test_transfer_degree_zero_multiplies_by_index():
    V = build_product([build_cyclic(3), build_cyclic(3)])
    H = subgroup_closure(V, [3])
    one = bc.constant_one(H.as_group(), 3)
    assert bc.transfer(one, H)(()) == H.index % 3


def test_transfer_rejects_foreign_cochain():
    V = build_product([build_cyclic(3), build_cyclic(3)])
    H = subgroup_closure(V, [3])
    with pytest.raises(ValueError):
        bc.transfer(bc.random_cochain(S3, 1, 3, RNG), H)


def test_cochains_on_one_table_combine_whatever_the_generators():
    # C9 generated by 2 has the table of C9 but another key: cochains on
    # the two combine, as they did when the table's hash was compared;
    # (C3)^2 has the same order and another table
    G = build_cyclic(9)
    H = FiniteGroup(G.mul, [2], "C9 by 2")
    assert G.digest() != H.digest()
    a, b = bc.random_cochain(G, 1, 3, RNG), bc.random_cochain(H, 1, 3, RNG)
    assert (a + b) - b == a
    assert bc.cup(a, b) == bc.cup(a, bc.Cochain._trusted(G, 1, b.cells, 3))
    with pytest.raises(ValueError, match="different groups"):
        a + bc.random_cochain(build_product([C3, C3]), 1, 3, RNG)


@pytest.mark.parametrize("n", [9, 257], ids=["byte rows", "array rows"])
def test_cochains_on_a_table_given_as_lists_combine(n):
    # a table given as lists is kept as compact rows, so _compat, which
    # compares tables, takes a cochain on it with one on the table
    # build_cyclic made; C_n numbered with 1 and 2 swapped is another
    # table of the same group and is still refused
    rng = random.Random(n)  # its own stream: the shared RNG draws as before
    G = build_cyclic(n)
    L = FiniteGroup([list(row) for row in G.mul], G.generators, "lists")
    a, b = bc.random_cochain(G, 1, 3, rng), bc.random_cochain(L, 1, 3, rng)
    assert (a + b) - b == a
    swap = list(range(n))
    swap[1], swap[2] = 2, 1
    S = FiniteGroup([[swap[G.mul[swap[x]][swap[y]]] for y in range(n)]
                     for x in range(n)], [2], "C_n, 1 and 2 swapped")
    with pytest.raises(ValueError, match="different groups"):
        a + bc.random_cochain(S, 1, 3, rng)


def test_transfer_takes_a_cochain_on_a_subgroup_table_given_as_lists():
    V = build_product([C3, C3])
    H = subgroup_closure(V, [3])
    Hg = H.as_group()
    listed = FiniteGroup([list(row) for row in Hg.mul], Hg.generators,
                         "H from lists")
    rng = random.Random(9)
    c = bc.random_cochain(Hg, 2, 3, rng)
    moved = bc.Cochain._trusted(listed, 2, dict(c.cells), 3)
    assert bc.transfer(moved, H) == bc.transfer(c, H)
    with pytest.raises(ValueError, match="given subgroup"):
        bc.transfer(bc.random_cochain(build_cyclic(9), 2, 3, rng), H)


def test_transfer_takes_a_cochain_on_the_subgroup_table():
    V = build_product([build_cyclic(3), build_cyclic(3)])
    H = subgroup_closure(V, [3])
    Hg = H.as_group()
    other = FiniteGroup(Hg.mul, [2], "H by its other generator")
    c = bc.random_cochain(Hg, 2, 3, RNG)
    moved = bc.Cochain._trusted(other, 2, dict(c.cells), 3)
    assert Hg.digest() != other.digest()
    assert bc.transfer(moved, H) == bc.transfer(c, H)


# ---------------------------------------------------------------------------
# integral cohomology and feasibility limits
# ---------------------------------------------------------------------------


def test_integral_cohomology_cyclic():
    assert bc.integral_cohomology(C2, 1) == (0, ())
    assert bc.integral_cohomology(C2, 2) == (0, (2,))
    assert bc.integral_cohomology(C3, 2) == (0, (3,))
    assert bc.integral_cohomology(C3, 3) == (0, ())


def test_integral_cohomology_extraspecial():
    G = build_P(3, 3)
    rank, torsion = bc.integral_cohomology(G, 2)
    assert rank == 0
    assert sorted(torsion) == [3, 3]


def test_resource_limits(monkeypatch):
    # the resolution's work bound through both entry points (the CLI
    # tests take the degree count and d_1's cover): the module matrices of
    # P(4,3), of order 81, under a bound that admits d_1's cover, 81*80
    # entries, and d_2's module matrix (3,645) but not d_3's (7,614 mod
    # 3, 7,776 lifted)
    from cohomolab import resolution
    monkeypatch.setattr(resolution, "_RESOLUTIONS", {})
    big = build_P(4, 3)
    bound = resolution.MAX_MODULE_TERMS
    monkeypatch.setattr(resolution, "MAX_MODULE_TERMS", 81 * 80)
    with pytest.raises(bc.ResourceLimitError,
                       match="d_3's module matrix over P"):
        bc.cohomology_dims_mod_p(big, 3, 4)
    with pytest.raises(bc.ResourceLimitError,
                       match="d_3's module matrix over P"):
        bc.integral_cohomology(big, 4)
    # d_1 .. d_3 were built before the refusal: a query that needs only
    # d_1, d_2 answers from them, with no step
    steps = spy_steps(monkeypatch, resolution)
    assert bc.cohomology_dims_mod_p(big, 3, 1) == [1, 3]
    assert steps == []
    monkeypatch.setattr(resolution, "MAX_MODULE_TERMS", bound)
    assert bc.cohomology_dims_mod_p(big, 3, 4) == [1, 3, 5, 6, 7]


def test_only_the_cli_and_the_package_import_bar_cohomology():
    # ResourceLimitError lives in exact_linalg, so no other module needs
    # the bar complex
    import ast
    from pathlib import Path

    import cohomolab
    importers = set()
    for path in sorted(Path(cohomolab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [
                    f"{node.module or ''}.{a.name}" for a in node.names]
            else:
                continue
            if any(n.split(".")[-1] == "bar_cohomology" for n in names):
                importers.add(path.name)
    assert importers == {"cli.py", "__init__.py"}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coboundary_bound_counts_every_term_it_writes(monkeypatch, n):
    """The three coboundary routes (the matrix, the F_3 plane columns and
    coboundary) write 2m + n(m - 1) terms per n-cell, m = |G| - 1; the
    limit admits exactly that count and refuses one less."""
    G = symmetric_3()
    m = G.order - 1
    c = bc.Cochain(G, n, {(1,) * n: 1, (2,) * n: 1}, 3)
    for call, cells in ((lambda: bc.coboundary_matrix(G, n, 3), m ** n),
                        (lambda: bc._plane_echelon(G, n), m ** n),
                        (lambda: bc.coboundary(c), 2)):
        terms = cells * (2 * m + n * (m - 1))
        monkeypatch.setattr(bc, "MAX_COBOUNDARY_TERMS", terms)
        call()
        monkeypatch.setattr(bc, "MAX_COBOUNDARY_TERMS", terms - 1)
        with pytest.raises(bc.ResourceLimitError, match=f"writes {terms} "):
            call()
