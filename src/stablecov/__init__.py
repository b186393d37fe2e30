"""Numerics for jointly symmetric alpha-stable vectors with discrete spectral measures.

Covariation-style dependence measures valid for every stability index in
(0, 2], a two-sided fractional derivative with its closed-form power rule,
a certified series expansion of the scale parameter, dependence checks, and
a Monte Carlo sampler for cross-validation.
"""

from .covariation import (
    LimitCheckReport,
    conventional_covariation,
    correlation_coefficient,
    covariation_limit_check,
    covariation_norm,
    linear_combination_covariation,
    linear_combination_via_pushforward,
    symmetric_covariation,
)
from .dependence import (
    additivity_check,
    even_series_identity_check,
    independence_necessary_report,
    independence_sufficient_check,
    james_bound_check,
    min_max_inequality,
)
from .errors import (
    AxisSupportError,
    DegenerateError,
    DegenerateMapError,
    DimensionError,
    DomainError,
    NumericalError,
    StableError,
    TruncationError,
    ValidationError,
)
from .fracderiv import (
    FracDerivParams,
    frac_derivative_numeric,
    gamma_ratio,
    power_rule,
)
from .sampler import SampleBatch, empirical_chf, sample_standard_sas, sample_vector
from .series import (
    SeriesExpansion,
    chf_series,
    gaussian_quadratic_form,
    scale_parameter_series,
)
from .spectral import (
    SpectralMeasure,
    StableModel,
    characteristic_function,
    discretize_density,
    load_model,
    model_from_dict,
    model_to_dict,
    pushforward_linear,
    scale_parameter_direct,
    symmetrize,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
