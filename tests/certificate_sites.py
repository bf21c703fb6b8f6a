"""The `raise ArithmeticError` sites of src/cohomolab, keyed by
(module, qualified function, message) as test_certificate_sites reads
them, each with the names of tests that reach it (at most three, those
that expect the exit code of cli.main first) or the reason no input
can reach it."""

SITES = {
    # bar_cohomology
    ("bar_cohomology", "find_primitive",
     "primitive certificate failed: delta(a) != c"): [
        "test_wrong_primitive_exits_1"],
    ("bar_cohomology", "bockstein",
     "coboundary of the lift not divisible by p"): [
        "test_bockstein_divisibility_failure_exits_1"],
    ("bar_cohomology", "integral_cohomology",
     "nonzero homology rank for a finite group"): [
        "test_nonzero_homology_rank_exits_1"],
    # char_chern
    ("char_chern", "_poly_exact_div",
     "division is not exact"): [
        "test_inexact_cyclotomic_division_exits_1"],
    ("char_chern", "Cyclotomic.divide_exact",
     "{self} is not a rational integer"): [
        "test_divide_exact_rejects_non_rational"],
    ("char_chern", "Cyclotomic.divide_exact",
     "{self.coeffs[0]} is not a multiple of {n}"): [
        "test_cyclotomic_rationality_checks",
        "test_divide_exact_on_integers"],
    ("char_chern", "linear_character_exponents",
     "{len(out)} linear characters found for |H : H'| = {len(reps)}"): [
        "test_missing_linear_character_exits_1"],
    ("char_chern", "irreducible_characters",
     "character search incomplete: {len(irreducibles)} irreducible "
     "characters for {n_classes} conjugacy classes"): [
        "test_character_search_incomplete_exits_1",
        "test_missing_irreducible_exits_1",
        "test_pairs_of_one_head_alone_exit_1"],
    ("char_chern", "irreducible_characters",
     "character search incomplete: sum of squares {total} != {G.order}"): [
        "test_sum_of_squares_failure_exits_1"],
    ("char_chern", "irreducible_characters",
     "orthonormality certificate failed"): [
        "test_orthonormality_failure_exits_1"],
    ("char_chern", "_eigenvalue_multiplicities",
     "eigenvalue multiplicity is negative"): [
        "test_negative_eigenvalue_multiplicity_exits_1"],
    ("char_chern", "_eigenvalue_multiplicities",
     "multiplicities do not sum to the degree"): [
        "test_multiplicities_off_the_degree_exit_1"],
    # cli
    ("cli", "_cmd_invariants",
     "degree {d} has {len(fixed)} fixed vectors, and the Molien series "
     "counts {counts[d]}"): [
        "test_a_dropped_fixed_vector_of_a_non_modular_action_exits_1"],
    # cohomology_ring_models
    ("cohomology_ring_models", "RingModel.certify",
     "the rule {self._word_text(lead)} -> {tail} fails: mul gives {got}"): [
        "test_certify_refuses_a_flipped_sign_in_the_top_chi_square",
        "test_certify_refuses_a_wrong_straightening_rule",
        "test_certify_refuses_a_wrong_tail"],
    ("cohomology_ring_models", "RingModel.certify",
     "graded commutativity fails on {u} and {g}"): [
        "test_certify_refuses_mul_without_the_nu_mu_sign"],
    ("cohomology_ring_models", "RingModel.certify",
     "mul({u}, {g}) = {xy} rewrites the basis monomial {m}"): [
        "test_certify_refuses_a_rewritten_basis_product"],
    ("cohomology_ring_models", "RingModel.certify",
     "the overlap {self._word_text(lcm)} resolves to {ways[0]} and to "
     "{ways[1]}"): [
        "test_certify_refuses_an_overlap_that_does_not_resolve"],
    ("cohomology_ring_models", "RingModel.certify",
     "{self._word_text(lead)} -> {tail} does not vanish times {names[i]}"): [
        "test_certify_refuses_a_tail_that_mu_does_not_kill"],
    ("cohomology_ring_models", "RingModel.require_relations",
     "{what} breaks the relations {bad}"): [
        "test_ringmodel_custom_action_breaking_a_relation_exits_1",
        "test_automorphism_mutants_that_samples_accepted",
        "test_automorphism_rejects_bad_multiplicative_images"],
    # davis
    ("davis", "barycentric_subdivision",
     "subdivision is not full (construction bug)"): [
        "test_subdivision_that_is_not_full_exits_1"],
    ("davis", "moore_complex",
     "could not certify a Moore complex for n={n}"): [
        "test_moore_complex_of_the_wrong_homology_exits_1"],
    ("davis", "davis_quotient",
     "vertex count law fails for {s}: {counts[s]}"): [
        "test_tampered_poset_exits_1",
        "test_duplicated_element_fails_the_count_law"],
    ("davis", "davis_quotient",
     "quotient is not connected"): [
        "test_tampered_poset_exits_1",
        "test_split_poset_fails_the_connectivity_check"],
    ("davis", "davis_quotient",
     "Euler cross-check fails: {report}"): [
        "test_tampered_poset_exits_1"],
    ("davis", "quotient_homology",
     "the cubes are not the vertex labels of Q"): [
        "test_tampered_cubes_exit_1",
        "test_foreign_cube_fails_the_label_check"],
    ("davis", "quotient_homology",
     "the cubes do not have the Euler characteristic of Q"): [
        "test_tampered_cubes_exit_1",
        "test_duplicated_cube_fails_the_euler_check"],
    # exact_linalg
    ("exact_linalg", "_Packing.__init__",
     "no exact packed reduction mod {p}"):
        "unreachable: s, m and k are derived from p so that both Barrett "
        "inequalities hold for every p >= 2; "
        "test_barrett_inequalities_for_every_prime_below_2_16 checks them "
        "below 2^16",
    ("exact_linalg", "Echelon._sweep",
     "packed elimination mod {p} failed"): [
        "test_packed_elimination_with_a_wrong_inverse_exits_1"],
    ("exact_linalg", "Echelon._sweep3",
     "bit-plane elimination mod 3 failed"): [
        "test_bit_plane_elimination_of_rows_not_normalised_exits_1"],
    ("exact_linalg", "reduce_chain_complex",
     "reduced chain complex has a nonzero d o d"): [
        "test_reduced_complex_not_composing_exits_1"],
    ("exact_linalg", "reduce_chain_complex",
     "reduced chain complex lost the Euler characteristic"): [
        "test_reduced_complex_losing_a_cell_exits_1"],
    # groups
    ("groups", "_with_order",
     "{G.name} has order {G.order}, expected {expected}"): [
        "test_wrong_group_order_raises_arithmetic_error"],
    # invariant_rings
    ("invariant_rings", "GradedRing.index_of",
     "_outside_basis(m, d)"): [
        "test_a_product_outside_the_basis_exits_1",
        "test_a_product_outside_the_basis_is_refused",
        "test_certify_refuses_a_wrong_mu_straightening"],
    ("invariant_rings", "_fixed_echelon",
     "_outside_basis(exc.args[0], d)"): [
        "test_a_product_outside_the_basis_on_the_sweep_exits_1",
        "test_a_product_outside_the_basis_is_refused"],
    ("invariant_rings", "require_fixed",
     "a reported degree-{d} fixed vector is moved by map {k}"): [
        "test_a_reported_vector_that_is_not_fixed_exits_1"],
    ("invariant_rings", "require_fixed",
     "the reported degree-{d} fixed vectors are not independent"): [
        "test_a_repeated_fixed_vector_exits_1"],
    ("invariant_rings", "_root_exponents",
     "{c} does not split over the {N}-th roots of unity"): [
        "test_molien_polynomial_without_its_roots_exits_1"],
    ("invariant_rings", "dickson_check",
     "SL_2 generators give the wrong group order"): [
        "test_dickson_wrong_group_order_exits_1"],
    ("invariant_rings", "dickson_check",
     "GL_2 generators give the wrong group order"): [
        "test_dickson_wrong_gl2_group_order_exits_1"],
    ("invariant_rings", "dickson_check",
     "generator is not SL_2-invariant"): [
        "test_dickson_non_invariant_generator_exits_1",
        "test_dickson_rejects_non_invariant_pair"],
    ("invariant_rings", "dickson_check",
     "generator is not GL_2-invariant"): [
        "test_dickson_generator_not_gl2_invariant_exits_1"],
    # resolution
    ("resolution", "FreeResolution._extend",
     "cached d_{n} does not fit F_{n - 1}"): [
        "test_cached_differential_of_the_wrong_shape_exits_1",
        "test_cache_file_of_the_wrong_shape_is_rejected"],
    ("resolution", "FreeResolution._extend",
     "lifted d_{n} does not reduce to d_{n} mod {self.p}"): [
        "test_lift_that_does_not_reduce_to_the_fp_columns_exits_1"],
    ("resolution", "FreeResolution._extend",
     "resolution differentials do not compose to zero"): [
        "test_differentials_not_composing_exits_1",
        "test_last_generator_not_composing_exits_1",
        "test_lift_short_of_the_top_digit_exits_1"],
    ("resolution", "FreeResolution._lift",
     "d_{n} does not lift to Z/{q}: a digit has no solution"): [
        "test_lift_with_no_digit_solution_exits_1"],
    ("resolution", "FreeResolution._certify_minimal",
     "induced differential d_{n} does not vanish mod {self.p}: d_{n} is not "
     "a minimal cover of ker d_{n - 1}"): [
        "test_cached_differential_not_minimal_exits_1",
        "test_non_minimal_cover_exits_1",
        "test_pruning_at_a_prefix_that_is_not_normal_exits_1"],
    ("resolution", "FreeResolution._certify_exact",
     "resolution not exact at F_{n - 1}: rank d_{n} = {rank}, dim ker d_{n -"
     " 1} = {want}"): [
        "test_cached_differential_not_exact_exits_1",
        "test_inexact_differential_exits_1",
        "test_inexact_top_differential_exits_1"],
    ("resolution", "FreeResolution._greedy_cover",
     "kernel cover failed"): [
        "test_kernel_cover_failed_exits_1"],
    ("resolution", "FreeResolution._greedy_cover",
     "kernel cover incomplete"): [
        "test_kernel_cover_incomplete_exits_1"],
}
