"""Exact computations on graded quivers: path algebras with superpotentials,
Ginzburg dg-algebras, length-truncated homology, and admissible-ideal
linear algebra, all over the rationals."""

from .algebra import (
    NotHomogeneousError,
    PathElement,
    QuiverMismatchError,
    Superpotential,
    cyclic_derivative,
    cyclic_reduce,
    format_element,
    homogeneous_degree,
    supercommutator,
)
from .dg import (
    DgAlgebra,
    Relation,
    apply_d,
    check_d_squared,
    check_dg_isomorphism,
    describe_generators,
    dual_name,
    ginzburg_dg_algebra,
    ginzburg_from_relations,
    keller_comparison,
    loop_name,
    map_element,
    normalize_arrow_degrees,
    relation_arrow_name,
    relation_dg_algebra,
    relation_sub_dg_correspondence,
    replace_arrow,
    replace_arrow_isomorphism,
    reverse_arrow_name,
    sub_dg_algebra,
    sub_dg_completion,
    superpotential_extension,
    validate_relations,
    verify_sub_dg,
)
from .dsl import ParseError, ProblemFile, parse, serialize
from .homology import (
    HomologyReport,
    TruncatedComplex,
    VosnexVerdict,
    build_truncated,
    default_truncation_length,
    h0_presentation,
    homology_dims,
    preprojective_presentation,
    vosnex_equivalence_check,
)
from .ideals import (
    NotAdmissibleError,
    TruncatedIdealSpan,
    algebra_dim,
    boundary_image_vanishes,
    bound_is_valid,
    certifies_non_membership,
    evaluate_in_representation,
    ext2_dim,
    find_admissibility_bound,
    generates_arrow_power,
    ideal_membership,
    spans_boundary_quotient,
    split_extension_check,
    system_of_relations,
)
from .linalg import Rational, RowSpace, SparseMatrix, quotient_dim, rank
from .quiver import Arrow, GradedQuiver, Path

__all__ = [name for name in dir() if not name.startswith("_")]
