import random

import pytest

from cohomolab.exact_linalg import is_prime, matrix_group_closure
from cohomolab.groups import _primitive_polynomial
from cohomolab.invariant_rings import (
    GradedAlgebra,
    HELD5_MATRICES,
    MatrixAction,
    _primitive_root,
    basis_counts,
    dickson_check,
    dickson_pair,
    fixed_dims,
    fixed_subspace,
    fixed_subspaces,
    gl2_generators,
    held_5_part_check,
    in_span,
    sl2_generators,
    subalgebra_dims,
)
from group_helpers import closure_oracle
from ring_helpers import averaging_rank


# ---------------------------------------------------------------------------
# graded algebra arithmetic
# ---------------------------------------------------------------------------


def test_basis_dimensions_polynomial():
    A = GradedAlgebra(3, [1, 1])
    for d in range(8):
        assert A.component_dim(d) == d + 1


def test_basis_dimensions_with_exterior():
    A = GradedAlgebra(5, [2, 2], [3])
    # degree 7 = poly degree 4 (3 monomials) on the exterior side only
    assert A.component_dim(7) == 3
    assert A.component_dim(2) == 2
    assert A.component_dim(3) == 1


def test_polynomial_generators_commute():
    A = GradedAlgebra(3, [1, 1])
    x, y = A.variable(0), A.variable(1)
    assert A.mul(x, y) == A.mul(y, x)


def test_exterior_generators_anticommute_and_square_to_zero():
    A = GradedAlgebra(5, [1], [1, 1])
    w0, w1 = A.ext_variable(0), A.ext_variable(1)
    assert A.mul(w0, w0) == {}
    assert A.mul(w0, w1) == A.scale(A.mul(w1, w0), -1)


def reference_mul(A, u, v):
    """The product term pair by term pair, with the sign loop for every
    pair: the oracle of GradedAlgebra.mul."""
    out = {}
    for (e1, b1), c1 in u.items():
        for (e2, b2), c2 in v.items():
            if any(x and y for x, y in zip(b1, b2)):
                continue
            sign = 1
            for j, y in enumerate(b2):
                if y and sum(b1[j + 1:]) % 2:
                    sign = -sign
            m = (tuple(x + y for x, y in zip(e1, e2)),
                 tuple(x + y for x, y in zip(b1, b2)))
            nc = (out.get(m, 0) + sign * c1 * c2) % A.p
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
    return out


@pytest.mark.parametrize("ext", [(), (1,), (1, 3), (2, 1, 1)])
def test_mul_matches_the_pairwise_reference(ext):
    # one to four polynomial variables: the sums written out for two and
    # three variables and the general sum for the others
    rng = random.Random(len(ext))
    for poly in ([1, 2], [3], [1, 2, 2], [1, 1, 1, 1]):
        A = GradedAlgebra(5, poly, ext)
        for _ in range(40):
            u, v = ({m: rng.randrange(1, 5) for m in
                     rng.sample(A.basis(d), min(4, len(A.basis(d))))}
                    for d in (rng.randrange(7), rng.randrange(7)))
            assert A.mul(u, v) == reference_mul(A, u, v)


def test_a_product_outside_the_basis_is_refused():
    A = GradedAlgebra(3, [1, 1])
    stray = ((2, -1), ())  # degree 1, but no basis monomial
    with pytest.raises(ArithmeticError, match=r"\(2, -1\)"):
        A.index_of(stray)
    with pytest.raises(ArithmeticError, match="degree-1 basis"):
        fixed_subspace(A, [[{stray: 1}] * A.dim(1)], 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_fixed_subspace_matrix_is_reduced_mod_p(p, monkeypatch):
    # fixed_subspace writes its matrix without the SparseMatrix checks, so
    # it must hold what the constructor would: entries in 1..p-1, no zeros.
    # g(m) = (1 + p)*m + p*m' is the identity mod p, so g - 1 is zero and
    # the whole component is fixed; the SL_2 action checks a real one
    from cohomolab import invariant_rings
    from cohomolab.exact_linalg import SparseMatrix
    mats = []
    kernel = invariant_rings.kernel_mod_p
    monkeypatch.setattr(invariant_rings, "kernel_mod_p",
                        lambda M: mats.append(M) or kernel(M))
    A = GradedAlgebra(p, [1, 1])
    basis = A.basis(2)

    def g(u):
        (m, c), = u.items()
        other = basis[(basis.index(m) + 1) % len(basis)]
        return {m: c * (1 + p), other: c * p}

    assert fixed_subspace(A, [[g({m: 1}) for m in basis]], 2) == \
        [{m: 1} for m in basis]
    assert mats[-1].cols == {}
    act = MatrixAction(A, sl2_generators(p))
    fixed_dims(A, act.maps, 6)
    for M in mats[-6:]:
        assert M.cols == SparseMatrix(M.n_rows, M.n_cols, M.entries(),
                                      p=p).cols
        assert all(0 < v < p for col in M.cols.values() for v in col.values())


def test_element_degree_checks_homogeneity():
    A = GradedAlgebra(3, [1, 1])
    x, y = A.variable(0), A.variable(1)
    assert A.element_degree(A.add(x, y)) == 1
    assert A.element_degree({}) is None
    with pytest.raises(ValueError):
        A.element_degree(A.add(x, A.mul(x, y)))


def test_rejects_nonpositive_degrees():
    with pytest.raises(ValueError):
        GradedAlgebra(3, [1, 0])


def test_basis_counts_match_the_listed_bases():
    rng = random.Random(26)
    for _ in range(200):
        delta = rng.randrange(1, 4)
        ext = [rng.randrange(1, 5) for _ in range(rng.randrange(4))]
        A = GradedAlgebra(3, [delta] * rng.randrange(4), ext)
        D = rng.randrange(16)
        dims = [A.dim(d) for d in range(D + 1)]
        assert basis_counts(A, D) == (max(dims), sum(dims))
    with pytest.raises(ValueError, match="share one degree"):
        basis_counts(GradedAlgebra(3, [1, 2]), 4)


# ---------------------------------------------------------------------------
# matrix actions
# ---------------------------------------------------------------------------


def test_matrix_group_orders():
    assert len(matrix_group_closure(sl2_generators(3), 3, 2, 100)) == 24
    assert len(matrix_group_closure(gl2_generators(3), 3, 2, 100)) == 48
    assert len(matrix_group_closure(HELD5_MATRICES, 5, 2, 100)) == 48


def per_q_primitive_root(p):
    """The least primitive root mod p, trying every prime q below p as a
    divisor of p - 1."""
    for r in range(2, p):
        if all(pow(r, (p - 1) // q, p) != 1
               for q in range(2, p) if (p - 1) % q == 0 and is_prime(q)):
            return r


def test_primitive_root_equals_the_per_q_search():
    for p in range(3, 2000):
        if is_prime(p):
            assert _primitive_root(p) == per_q_primitive_root(p), p


def test_action_requires_invertible_matrices():
    A = GradedAlgebra(3, [1, 1])
    with pytest.raises(ValueError):
        MatrixAction(A, [((1, 1), (1, 1))])


def test_action_requires_uniform_polynomial_degree():
    A = GradedAlgebra(3, [1, 2])
    with pytest.raises(ValueError):
        MatrixAction(A, [((1, 0), (0, 1))])


def test_apply_matrix_is_an_algebra_map():
    A = GradedAlgebra(5, [2, 2], [3])
    act = MatrixAction(A, HELD5_MATRICES, ext_twists=[1])
    rng = random.Random(7)
    mono = lambda: {((rng.randrange(3), rng.randrange(3)),
                     (rng.randrange(2),)): rng.randrange(1, 5)}
    for M in act.matrices:
        for _ in range(10):
            u, v = mono(), mono()
            lhs = act.apply_matrix(M, A.mul(u, v))
            rhs = A.mul(act.apply_matrix(M, u), act.apply_matrix(M, v))
            assert lhs == rhs


def test_apply_matrix_composition_matches_product():
    A = GradedAlgebra(3, [1, 1])
    act = MatrixAction(A, sl2_generators(3))
    M1, M2 = act.matrices
    prod = tuple(tuple(sum(M1[i][t] * M2[t][j] for t in range(2)) % 3
                       for j in range(2)) for i in range(2))
    u = A.mul(A.variable(0), A.add(A.variable(0), A.variable(1)))
    assert act.apply_matrix(prod, u) == \
        act.apply_matrix(M1, act.apply_matrix(M2, u))


# ---------------------------------------------------------------------------
# fixed subspaces
# ---------------------------------------------------------------------------


def test_sl2_mod3_fixed_dims_low_degrees():
    A = GradedAlgebra(3, [1, 1])
    act = MatrixAction(A, sl2_generators(3))
    assert fixed_dims(A, act.maps, 4) == [1, 0, 0, 0, 1]


def test_trivial_action_fixes_everything():
    A = GradedAlgebra(3, [1, 1])
    act = MatrixAction(A, [((1, 0), (0, 1))])
    assert fixed_dims(A, act.maps, 5) == [A.component_dim(d)
                                          for d in range(6)]


def test_fixed_elements_are_actually_fixed():
    A = GradedAlgebra(3, [1, 1])
    act = MatrixAction(A, sl2_generators(3))
    for basis in fixed_subspaces(A, act.maps, 9):
        for v in basis:
            for M in act.matrices:
                assert act.apply_matrix(M, v) == v


def test_fixed_dims_invariant_under_conjugation():
    A = GradedAlgebra(5, [2, 2], [3])
    T = ((1, 2), (1, 3))  # det = 1 mod 5
    Tinv = ((3, -2), (-1, 1))
    conj = [tuple(tuple(sum(T[i][a] * M[a][b] * Tinv[b][j]
                            for a in range(2) for b in range(2)) % 5
                        for j in range(2)) for i in range(2))
            for M in HELD5_MATRICES]
    a1 = MatrixAction(A, HELD5_MATRICES, ext_twists=[1])
    a2 = MatrixAction(A, conj, ext_twists=[1])
    assert fixed_dims(A, a1.maps, 24) == fixed_dims(A, a2.maps, 24)


def test_averaging_rank_matches_fixed_dimension():
    A = GradedAlgebra(5, [2, 2], [3])
    act = MatrixAction(A, HELD5_MATRICES, ext_twists=[1])
    dims = fixed_dims(A, act.maps, 31)
    for d in (15, 16, 24, 31):
        assert averaging_rank(A, act, d) == dims[d]


def test_averaging_requires_coprime_order():
    A = GradedAlgebra(3, [1, 1])
    act = MatrixAction(A, sl2_generators(3))  # order 24, divisible by 3
    with pytest.raises(ValueError):
        averaging_rank(A, act, 2)


# ---------------------------------------------------------------------------
# subalgebra closure
# ---------------------------------------------------------------------------


def test_subalgebra_dims_single_generator():
    A = GradedAlgebra(3, [1, 1])
    x2 = A.mul(A.variable(0), A.variable(0))
    assert subalgebra_dims(A, [x2], 6) == [1, 0, 1, 0, 1, 0, 1]


def test_subalgebra_dims_two_free_generators():
    p = 3
    A = GradedAlgebra(p, [1, 1])
    pair = dickson_pair(p)
    dims = subalgebra_dims(A, [pair.a, pair.b], 24)
    for d in range(25):
        expected = sum(1 for i in range(d // 4 + 1)
                       if (d - 4 * i) % 6 == 0)
        assert dims[d] == expected


def test_in_span():
    A = GradedAlgebra(3, [1, 1])
    x, y = A.variable(0), A.variable(1)
    assert in_span(A, [x, y], A.add(x, A.scale(y, 2)))
    assert not in_span(A, [x], y)


# ---------------------------------------------------------------------------
# Dickson invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,D", [(3, 24), (5, 30)])
def test_dickson_check(p, D):
    rep = dickson_check(p, D)
    assert rep.passed
    assert rep.sl2_fixed_dims == rep.sl2_subalgebra_dims
    assert rep.gl2_fixed_dims == rep.gl2_subalgebra_dims
    # free generators in degrees p+1, p(p-1) for SL_2
    for d in range(D + 1):
        expected = sum(1 for i in range(d // (p + 1) + 1)
                       if (d - (p + 1) * i) % (p * (p - 1)) == 0)
        assert rep.sl2_fixed_dims[d] == expected
    # free generators in degrees (p+1)(p-1), p(p-1) for GL_2
    for d in range(D + 1):
        expected = sum(1 for i in range(d // ((p + 1) * (p - 1)) + 1)
                       if (d - (p + 1) * (p - 1) * i) % (p * (p - 1)) == 0)
        assert rep.gl2_fixed_dims[d] == expected


def test_dickson_rejects_non_invariant_pair():
    p = 3
    pair = dickson_pair(p)
    A = GradedAlgebra(p, [1, 1])
    x2 = A.mul(A.variable(0), A.variable(0))
    bad = type(pair)(pair.a, A.add(pair.b, A.mul(pair.a, x2)))
    with pytest.raises(ArithmeticError):
        dickson_check(p, 12, pair=bad)


def test_dickson_validates_arguments():
    with pytest.raises(ValueError):
        dickson_check(4, 12)
    with pytest.raises(ValueError):
        dickson_check(3, 1000)


# ---------------------------------------------------------------------------
# the order-48 subgroup of GL_2(5)
# ---------------------------------------------------------------------------


def test_held_5_part_low_degrees():
    rep = held_5_part_check(48)
    assert rep.passed
    assert rep.group_order == 48
    assert rep.fixed[15] == 1   # the exterior class
    assert rep.fixed[16] == 1   # the degree-16 polynomial generator
    assert rep.fixed[24] == 2   # two degree-24 generators
    assert all(rep.fixed[d] == 0 for d in range(1, 15))
    assert rep.relation_printed != rep.relation_used


def test_held_5_part_full_budget():
    rep = held_5_part_check(120)
    assert rep.passed
    assert rep.fixed == rep.presented


def test_held_5_max_degree_cap():
    with pytest.raises(ValueError):
        held_5_part_check(121)


CYCLE3 = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


@pytest.mark.parametrize("mats,p,k", [
    *[pytest.param(gens(p), p, 2, id=f"{gens.__name__[:3]}-{p}")
      for p in (3, 5, 7) for gens in (gl2_generators, sl2_generators)],
    pytest.param(HELD5_MATRICES, 5, 2, id="held5"),
    pytest.param([CYCLE3], 3, 3, id="cycle3-3"),
    pytest.param([CYCLE3], 5, 3, id="cycle3-5"),
    pytest.param([[[1, 1, 0], [0, 1, 1], [0, 0, 1]]], 3, 3, id="shear3"),
    pytest.param([_primitive_polynomial(3, 2)], 3, 2, id="singer-3-2"),
    pytest.param([_primitive_polynomial(2, 3)], 2, 3, id="singer-2-3"),
    pytest.param([_primitive_polynomial(5, 2)], 5, 2, id="singer-5-2"),
    pytest.param([], 3, 2, id="trivial"),
])
def test_matrix_group_closure_matches_the_entrywise_product(mats, p, k):
    # same elements in the same depth-first order as entry-by-entry
    # products: the order numbers the semidirect products' elements
    assert matrix_group_closure(mats, p, k, 10 ** 4) == \
        closure_oracle(mats, p, k)
