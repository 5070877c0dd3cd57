"""Exact computations on graded quivers: path algebras with superpotentials,
Ginzburg dg-algebras, length-truncated homology, and admissible-ideal
linear algebra, all over the rationals."""

from types import ModuleType as _ModuleType

from .algebra import (
    NotHomogeneousError,
    PathElement,
    QuiverMismatchError,
    cyclic_derivative,
    cyclic_reduce,
    format_element,
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
    loop_name,
    map_element,
    relation_arrow_name,
    relation_dg_algebra,
    relation_sub_dg_correspondence,
    reverse_arrow_name,
    sub_dg_algebra,
    sub_dg_completion,
    superpotential_extension,
)
from .dsl import ParseError, ProblemFile, parse, serialize
from .homology import (
    HomologyReport,
    TruncatedComplex,
    build_truncated,
    default_truncation_length,
    h0_presentation,
    homology_dims,
)
from .ideals import (
    NotAdmissibleError,
    TruncatedIdealSpan,
    VosnexVerdict,
    algebra_dim,
    bound_is_valid,
    certify,
    certifies_non_membership,
    evaluate_in_representation,
    ext2_dim,
    find_admissibility_bound,
    generates_arrow_power,
    split_extension_check,
    system_of_relations,
    vosnex_equivalence_check,
)
from .linalg import RowSpace, SparseMatrix, rank
from .quiver import Arrow, GradedQuiver, Path

# the names imported above, not the submodules that importing them binds
__all__ = sorted(
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
