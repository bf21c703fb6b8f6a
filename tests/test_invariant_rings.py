import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cohomolab.bar_cohomology import ResourceLimitError
from cohomolab.exact_linalg import (_mat_mul, _mat_pow, is_prime,
                                    matrix_group_closure)
from cohomolab.groups import _primitive_polynomial
from cohomolab.invariant_rings import (
    GradedAlgebra,
    HELD5_MATRICES,
    MatrixAction,
    _presented_ring_dims,
    _primitive_root,
    basis_counts,
    dickson_check,
    dickson_pair,
    fixed_dims,
    fixed_subspace,
    fixed_subspaces,
    fixed_sweep,
    gl2_generators,
    held_5_part_check,
    in_span,
    molien_dims,
    sl2_generators,
    subalgebra_dims,
)
from group_helpers import closure_oracle
from ring_helpers import averaging_rank, held5_kernel_dims, stacked_matrix


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
    # fixed_subspace writes its columns packed, without the SparseMatrix
    # checks, so its echelon must be the one of the matrix the constructor
    # makes: entries reduced mod p, no zeros.  g(m) = (1 + p)*m + p*m' is
    # the identity mod p, so g - 1 is zero and the whole component is
    # fixed; the SL_2 action checks a real one
    from cohomolab import invariant_rings
    from cohomolab.exact_linalg import _augmented_echelon
    echelons = []
    kernel = invariant_rings._kernel_from_augmented
    monkeypatch.setattr(invariant_rings, "_kernel_from_augmented",
                        lambda ech, n_rows: echelons.append(ech)
                        or kernel(ech, n_rows))
    A = GradedAlgebra(p, [1, 1])
    basis = A.basis(2)

    def g(u):
        (m, c), = u.items()
        other = basis[(basis.index(m) + 1) % len(basis)]
        return {m: c * (1 + p), other: c * p}

    blocks = [[g({m: 1}) for m in basis]]
    assert fixed_subspace(A, blocks, 2) == [{m: 1} for m in basis]
    assert stacked_matrix(A, blocks, 2).cols == {}
    assert echelons[-1].basis == \
        _augmented_echelon(stacked_matrix(A, blocks, 2)).basis
    assert sorted(echelons[-1].basis) == list(range(3, 6))  # bookkeeping
    act = MatrixAction(A, sl2_generators(p))
    for d, blocks in fixed_sweep(A, act.maps, 6):
        fixed_subspace(A, blocks, d)
        ech = echelons[-1]
        assert ech.basis == \
            _augmented_echelon(stacked_matrix(A, blocks, d)).basis
        assert all(0 < v < p for piv in ech.basis
                   for v in ech.row(piv).values())


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


def _all_bit_tuples_basis(A, d):
    """basis(d) from all 2^s exterior bit tuples, the oracle of the
    listing by exterior subsets of degree at most d."""
    out = []
    for bits in itertools.product((0, 1), repeat=len(A.ext_degrees)):
        rem = d - sum(x * e for x, e in zip(bits, A.ext_degrees))
        if rem >= 0:
            out += [(exps, bits) for exps in
                    A._poly_exponents(rem, len(A.poly_degrees))]
    return sorted(out)


def test_basis_lists_the_same_monomials_as_all_bit_tuples():
    rng = random.Random(28)
    for _ in range(100):
        ext = [rng.randrange(1, 5) for _ in range(rng.randrange(6))]
        A = GradedAlgebra(3, [rng.randrange(1, 4)] * rng.randrange(4), ext)
        for d in range(12):
            assert A.basis(d) == _all_bit_tuples_basis(A, d)


def test_basis_in_degree_zero_lists_no_exterior_subset():
    # all 2^30 bit tuples would be walked to find the one monomial
    A = GradedAlgebra(3, [], [1] * 30)
    assert A.basis(0) == list(A.one())
    assert A.dim(1) == 30


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


def test_held_5_molien_kernel_and_presented_dims_agree():
    molien = molien_dims(MatrixAction(GradedAlgebra(5, [2, 2], [3]),
                                      HELD5_MATRICES, ext_twists=[1]), 120)
    assert molien == held5_kernel_dims(120) == _presented_ring_dims(120)


def test_held_5_molien_depends_on_the_twist():
    # epsilon with det^0 changes 12 of the 61 degrees up to 60
    untwisted = molien_dims(MatrixAction(GradedAlgebra(5, [2, 2], [3]),
                                         HELD5_MATRICES, ext_twists=[0]), 60)
    changed = [d for d, (a, b) in
               enumerate(zip(untwisted, _presented_ring_dims(60))) if a != b]
    assert len(changed) == 12


# ---------------------------------------------------------------------------
# the Molien series against the kernel
# ---------------------------------------------------------------------------


def non_modular_action(p, k, monomial, rng):
    """A MatrixAction over F_p on k polynomial generators, p > k, whose
    group has order prime to p: generated by one or two monomial
    matrices, or by a power of the Singer cycle (eigenvalues in F_(p^k)),
    each conjugated by one invertible P; up to two exterior generators
    with any determinant twists."""
    if monomial:
        mats = []
        for _ in range(rng.randrange(1, 3)):
            perm = rng.sample(range(k), k)
            mats.append(tuple(tuple(rng.randrange(1, p) if j == perm[i]
                                    else 0 for j in range(k))
                              for i in range(k)))
    else:
        mats = [_mat_pow(_primitive_polynomial(p, k),
                         rng.randrange(1, p ** k - 1), p)]
    # P = L U, L unit lower and U upper triangular with units on the diagonal
    L = tuple(tuple(int(i == j) if i <= j else rng.randrange(p)
                    for j in range(k)) for i in range(k))
    U = tuple(tuple(rng.randrange(1, p) if i == j else
                    rng.randrange(p) if i < j else 0 for j in range(k))
              for i in range(k))
    P = _mat_mul(L, U, p)
    gl_order = 1
    for i in range(k):
        gl_order *= p ** k - p ** i
    P_inv = _mat_pow(P, gl_order - 1, p)
    ext = [rng.randrange(1, 4) for _ in range(rng.randrange(3))]
    A = GradedAlgebra(p, [rng.randrange(1, 3)] * k, ext)
    return MatrixAction(A, [_mat_mul(_mat_mul(P, M, p), P_inv, p)
                            for M in mats],
                        ext_twists=[rng.randrange(-2, 3) for _ in ext])


@given(st.sampled_from([5, 7]), st.sampled_from([2, 3]), st.booleans(),
       st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_molien_dims_match_the_kernel(p, k, monomial, rng):
    act = non_modular_action(p, k, monomial, rng)
    A = act.algebra
    assert act.group_order() % p
    D = 12 if k == 2 else 7
    assert molien_dims(act, D) == fixed_dims(A, act.maps, D)


@pytest.mark.parametrize("p,k,twists", [
    (7, 2, [1, -1]),  # the Singer cycle of GL_2(7): order 48, F_49
    (5, 3, [2]),      # the Singer cycle of GL_3(5): order 124, F_125
    (7, 3, []),       # the Singer cycle of GL_3(7): order 342, F_343
])
def test_molien_dims_in_an_extension_field(p, k, twists):
    A = GradedAlgebra(p, [1] * k, [2] * len(twists))
    act = MatrixAction(A, [_primitive_polynomial(p, k)], ext_twists=twists)
    assert act.group_order() == p ** k - 1
    D = 10 if k == 2 else 6
    assert molien_dims(act, D) == fixed_dims(A, act.maps, D)


def test_molien_of_the_trivial_group_counts_the_monomials():
    A = GradedAlgebra(3, [2, 2], [1, 3])
    act = MatrixAction(A, [], ext_twists=[1, 2])
    assert molien_dims(act, 12) == [A.dim(d) for d in range(13)]
    B = GradedAlgebra(5, [], [1, 2, 1])
    assert molien_dims(MatrixAction(B, []), 5) == [1, 2, 2, 2, 1, 0]


def test_molien_refuses_a_modular_action():
    # the shear of F_3[x, y] has order 3
    act = MatrixAction(GradedAlgebra(3, [1, 1]), [((1, 1), (0, 1))])
    with pytest.raises(ValueError, match="modular"):
        molien_dims(act, 4)
    assert fixed_dims(act.algebra, act.maps, 4) == [1, 1, 1, 2, 2]


def test_molien_refuses_more_than_the_thousandth_roots_of_unity():
    # the Singer cycle of GL_2(37) has order 37^2 - 1 = 1368
    A = GradedAlgebra(37, [1, 1])
    act = MatrixAction(A, [_primitive_polynomial(37, 2)])
    with pytest.raises(ResourceLimitError, match="1368-th roots"):
        molien_dims(act, 2)
    # and that of GL_2(31), order 960, is answered
    act = MatrixAction(GradedAlgebra(31, [1, 1]),
                       [_primitive_polynomial(31, 2)])
    assert molien_dims(act, 4) == fixed_dims(act.algebra, act.maps, 4)


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
    # diag(3^6, 1), of order 37, and the swap: entries up to 222
    pytest.param([[[pow(3, 6, 223), 0], [0, 1]], [[0, 1], [1, 0]]], 223, 2,
                 id="monomial-223"),
])
def test_matrix_group_closure_matches_the_entrywise_product(mats, p, k):
    # same elements in the same depth-first order as entry-by-entry
    # products: the order numbers the semidirect products' elements
    assert matrix_group_closure(mats, p, k, 10 ** 4) == \
        closure_oracle(mats, p, k)


@pytest.mark.parametrize("p", [5, 223])
def test_matrix_group_closure_stops_above_the_cap(p):
    mats = [[[2, 0], [0, 1]], [[1, 1], [0, 1]]]
    group = closure_oracle(mats, p, 2)
    assert matrix_group_closure(mats, p, 2, len(group)) == group
    with pytest.raises(ValueError, match=f"above {len(group) - 1}"):
        matrix_group_closure(mats, p, 2, len(group) - 1)
