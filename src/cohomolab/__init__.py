"""Exact-arithmetic workbench for finite-group cohomology: bar-resolution
cochains with secondary products, representation-theoretic Chern
invariants, modular invariant theory, presented cohomology-ring models,
and finite quotients of Davis complexes."""

from .exact_linalg import (
    Echelon,
    ResourceLimitError,
    SmithReport,
    SparseMatrix,
    kernel_mod_p,
    kernel_z,
    rank_mod_p,
    smith_normal_form,
    solve,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    build_B,
    build_G_a1,
    build_M,
    build_P,
    build_cyclic,
    build_group,
    build_product,
    build_semidirect,
    order_p_subgroup_classes,
    singer_group,
    subgroup_closure,
    symmetric_3,
)
from .bar_cohomology import (
    Cochain,
    CohomologyClass,
    MasseyResult,
    bockstein,
    class_basis,
    class_equal,
    coboundary,
    cohomology_dims_mod_p,
    cup,
    cup1,
    find_primitive,
    integral_cohomology,
    is_coboundary,
    is_cocycle,
    massey,
    matrix_massey,
    restrict,
    transfer,
)
from .char_chern import (
    ChernReport,
    ClassFunction,
    Cyclotomic,
    PcReport,
    chern_exponents_at,
    irreducible_characters,
    pc,
    pc_report,
)
from .invariant_rings import (
    GradedAlgebra,
    MatrixAction,
    dickson_check,
    dickson_pair,
    fixed_subspace,
    fixed_subspaces,
    held_5_part_check,
    subalgebra_basis,
    subalgebra_dims,
)
from .cohomology_ring_models import (
    RestrictionMap,
    RingAutomorphism,
    RingModel,
    build_model,
    check_lemma_3_4,
    check_theorem_5_10,
    check_theorem_5_12,
    check_theorem_5_14,
    named_action,
    named_restriction,
)
from .davis import (
    DavisQuotient,
    GraphProduct,
    SimplicialComplex,
    barycentric_subdivision,
    bestvina_check,
    chiswell_chi,
    cohomology_degree,
    davis_quotient,
    homology,
    link,
    moore_complex,
    orbifold_chi,
    racg_from_complex,
    torsion_free_coloring,
)

__version__ = "0.1.0"
