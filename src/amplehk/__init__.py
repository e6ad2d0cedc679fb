"""Exact homology and K-theory invariants for ample groupoid models.

The package computes graded homology and operator K-theory for several
classes of ample groupoid models (finite groupoids by explicit tables,
shifts of finite type, AF diagrams, Cantor minimal Z-systems, and products)
and compares the periodicized ranks, reporting on instances of Matui's HK
conjecture in its rational form.  All arithmetic is exact integer
arithmetic.
"""

from ._record import replace
from .colimits import (
    ColimitInvariants,
    colimit_invariants,
    map_on_colimit_rank,
)
from .errors import (
    CommutationFailure,
    ModelInvalid,
    NotAComplex,
    NotPrincipal,
    ParseError,
    SchemaError,
    ShapeMismatch,
    SimplicityNotCertified,
    SizeBoundExceeded,
    TruncationUnsound,
)
from .exact_linalg import (
    FgAbelianGroup,
    IntMatrix,
    SnfResult,
    determinant,
    invariant_factors,
    kernel_basis,
    matrix_rank,
    smith_normal_form,
)
from .hkcheck import (
    HKReport,
    free_graded_commutative_dims,
    hk_check,
    report_to_json_text,
    report_to_text,
    smale_check,
)
from .homology import (
    GradedGroup,
    homology_finite,
    homology_product,
    stationary_homology,
)
from .ktheory import (
    KPair,
    Precondition,
    invariants,
    k_finite_principal,
    k_product,
    periodicize,
)
from .models import (
    BratteliModel,
    CantorZModel,
    FiniteGroupoid,
    GroupoidModel,
    ProductModel,
    SftModel,
    orbits,
)
from .modelio import parse_model, parse_span
from .spans import FiniteSpan, compose_spans, transfer_matrix

__version__ = "0.1.0"

__all__ = [
    "BratteliModel",
    "CantorZModel",
    "ColimitInvariants",
    "CommutationFailure",
    "FgAbelianGroup",
    "FiniteGroupoid",
    "FiniteSpan",
    "GradedGroup",
    "GroupoidModel",
    "HKReport",
    "IntMatrix",
    "KPair",
    "ModelInvalid",
    "NotAComplex",
    "NotPrincipal",
    "ParseError",
    "Precondition",
    "ProductModel",
    "SchemaError",
    "SftModel",
    "ShapeMismatch",
    "SimplicityNotCertified",
    "SizeBoundExceeded",
    "SnfResult",
    "TruncationUnsound",
    "colimit_invariants",
    "compose_spans",
    "determinant",
    "free_graded_commutative_dims",
    "hk_check",
    "homology_finite",
    "homology_product",
    "invariant_factors",
    "invariants",
    "k_finite_principal",
    "k_product",
    "kernel_basis",
    "map_on_colimit_rank",
    "matrix_rank",
    "orbits",
    "parse_model",
    "parse_span",
    "periodicize",
    "replace",
    "report_to_json_text",
    "report_to_text",
    "smale_check",
    "smith_normal_form",
    "stationary_homology",
    "transfer_matrix",
]
