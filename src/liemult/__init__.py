"""Exact-rational invariants of nilpotent Lie algebras.

Structure-constant algebras over Q, their Schur multiplier dimension
(two independent computations), covers, capability via the epicenter,
the s/t invariants with every bound check, a catalog of the named
small-dimensional algebras, and a verification harness that reproduces
the bundled classification tables for s in 0..7.
"""

from .core import (
    DependentIdentification,
    DimensionMismatch,
    DimensionTooLarge,
    IndexOutOfRange,
    JacobiViolation,
    LieAlgebra,
    LieError,
    MAX_DIM,
    NotAnIdeal,
    NotCentral,
    NotNilpotent,
    ParamOutOfDomain,
    PresentationError,
    Subspace,
    central_product,
    direct_sum,
    load_presentation,
    presentation_from_dict,
    presentation_to_dict,
)
from .catalog import UnknownName, abelian, get, heisenberg
from .invariants import (
    AbelianInput,
    NotCentralIdeal,
    PreconditionNotMet,
    check_derived_bound,
    check_third_term_bound,
    check_noncapable_bound,
    check_central_ideal_bound,
    fingerprint,
    gamma3_defect,
    invariant_report,
    s_invariant,
    t_invariant,
)
from .linalg import Matrix
from .multiplier import (
    MultiplierResult,
    cover,
    dim_exterior_square,
    dim_multiplier,
    dim_multiplier_cover,
    dim_multiplier_quotient,
    dim_square_part,
    dim_tensor_square,
    epicenter,
    is_capable,
    quotient_exterior_check,
)
from .verify import build_closure, classify_by_s, run_all, verify_capability_claims, verify_table

__version__ = "0.1.0"

__all__ = [
    "AbelianInput", "DependentIdentification",
    "DimensionMismatch", "DimensionTooLarge", "IndexOutOfRange", "JacobiViolation", "LieAlgebra",
    "LieError", "MAX_DIM", "Matrix", "MultiplierResult", "NotAnIdeal", "NotCentral",
    "NotCentralIdeal", "NotNilpotent", "ParamOutOfDomain", "PreconditionNotMet",
    "PresentationError", "Subspace", "UnknownName", "abelian",
    "build_closure", "central_product", "check_derived_bound", "check_third_term_bound",
    "check_noncapable_bound", "check_central_ideal_bound", "classify_by_s", "cover",
    "dim_exterior_square", "dim_multiplier", "dim_multiplier_cover", "dim_multiplier_quotient",
    "dim_square_part", "dim_tensor_square", "direct_sum", "epicenter",
    "fingerprint", "gamma3_defect", "get", "heisenberg", "invariant_report",
    "is_capable", "load_presentation", "presentation_from_dict",
    "presentation_to_dict", "quotient_exterior_check", "run_all",
    "s_invariant", "t_invariant", "verify_capability_claims", "verify_table",
]
