"""Power analysis for stepped wedge trials with two treatments.

Closed-form standard errors and Wald power for treatment, interaction,
and contrast effects under cross-sectional, cohort, and nested
exchangeable covariance models, verified against a dense GLS oracle.
"""

from .covariance import (
    CompoundSymmetry,
    CorrelationSpec,
    CovarianceModel,
    ParameterError,
    RawComponents,
    SingularCovarianceError,
    standardize,
)
from .designs import (
    DesignError,
    DesignGrid,
    TransitionViolation,
    UnknownDesignError,
    catalog_design,
    catalog_ids,
    concurrent_design,
    generate_standard_swd,
    parse_design,
    serialize_design,
    validate_design,
)
from .power import (
    DEFAULT_RHO_GRID,
    ContrastSpec,
    EffectPower,
    EffectSpec,
    PowerResult,
    SweepTable,
    design_power,
    sweep,
    wald_power,
)
from .variance import (
    EFFECT_LABELS,
    RankDeficiencyError,
    TreatmentCovariance,
    active_effects,
    closed_form_covariance,
    information_matrix,
    oracle_covariance,
)

__version__ = "0.1.0"

__all__ = [
    "CompoundSymmetry",
    "ContrastSpec",
    "CorrelationSpec",
    "CovarianceModel",
    "DEFAULT_RHO_GRID",
    "DesignError",
    "DesignGrid",
    "EFFECT_LABELS",
    "EffectPower",
    "EffectSpec",
    "ParameterError",
    "PowerResult",
    "RankDeficiencyError",
    "RawComponents",
    "SingularCovarianceError",
    "SweepTable",
    "TransitionViolation",
    "TreatmentCovariance",
    "UnknownDesignError",
    "active_effects",
    "catalog_design",
    "catalog_ids",
    "closed_form_covariance",
    "concurrent_design",
    "design_power",
    "generate_standard_swd",
    "information_matrix",
    "oracle_covariance",
    "parse_design",
    "serialize_design",
    "standardize",
    "sweep",
    "validate_design",
    "wald_power",
    "__version__",
]
