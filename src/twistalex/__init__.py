"""Exact twisted Alexander polynomials of finitely presented groups.

The pipeline: a Presentation with an Augmentation (eps) and a Representation
(rho) build a twisted chain complex whose torsion orders are the polynomials
Delta_i, one per degree of the complex (Delta_0, Delta_1, Delta_2 for a
presentation 2-complex); obstruction checks compare them against the
closed forms and divisibility bounds that hold for plane-curve complements.
"""

from .scalars import (
    ContextMismatchError,
    CycloNumber,
    FieldContext,
    ScalarMatrix,
    parse_scalar,
)
from .laurent import (
    LaurentMatrix,
    LaurentPoly,
    ModuleShape,
    RationalFunction,
    SmithNormalForm,
    laurent_gcd,
)
from .presentations import (
    Augmentation,
    InvalidTripleError,
    PhiMap,
    Presentation,
    Representation,
    ValidationReport,
    Word,
    validate,
)
from .homology import (
    AlexanderResult,
    InternalInvariantError,
    TwistedChainComplex,
    build_complex,
    euler_rank_check,
    homology,
    specialize_homology,
    wada_agreement,
)
from .obstructions import (
    CurveComponent,
    CurveData,
    DimensionBoundReport,
    DivisibilityReport,
    LocalPolynomial,
    RootFieldReport,
    Singularity,
    alpha_term,
    check_divides,
    cyclotomic_factors,
    dimension_bound_check,
    extension_degree_formula,
    infinity_bound,
    local_polynomial,
    root_field,
)
from .jobs import JobParseError, JobSpec, parse_job, run_job, serialize_job

__all__ = [
    "AlexanderResult",
    "Augmentation",
    "ContextMismatchError",
    "CurveComponent",
    "CurveData",
    "CycloNumber",
    "DimensionBoundReport",
    "DivisibilityReport",
    "FieldContext",
    "InternalInvariantError",
    "InvalidTripleError",
    "JobParseError",
    "JobSpec",
    "LaurentMatrix",
    "LaurentPoly",
    "LocalPolynomial",
    "ModuleShape",
    "PhiMap",
    "Presentation",
    "RationalFunction",
    "Representation",
    "RootFieldReport",
    "ScalarMatrix",
    "Singularity",
    "SmithNormalForm",
    "TwistedChainComplex",
    "ValidationReport",
    "Word",
    "alpha_term",
    "build_complex",
    "check_divides",
    "cyclotomic_factors",
    "dimension_bound_check",
    "euler_rank_check",
    "extension_degree_formula",
    "homology",
    "infinity_bound",
    "laurent_gcd",
    "local_polynomial",
    "parse_job",
    "parse_scalar",
    "root_field",
    "run_job",
    "serialize_job",
    "specialize_homology",
    "validate",
    "wada_agreement",
]
