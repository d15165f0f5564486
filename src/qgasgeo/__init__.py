"""Thermodynamic geometry of deformed ideal quantum gases.

Computes the two-parameter (beta, gamma = -beta mu) thermodynamic metric and
its Riemannian scalar curvature R for ideal Bose and Fermi gases whose level
structure is deformed by a parameter q through the bracket
{x} = (1 - q^(2x))/(1 - q^2), in two and three spatial dimensions.  The sign
of R tracks the effective statistics (R > 0 boson-like, R < 0 fermion-like),
and the small-fugacity sign thresholds in q coincide with the sign changes of
the second-order virial coefficients, which are provided in closed form.

Numerical layers: series/closed-form integrands (`distributions`), adaptive
moment integrals (`quadrature`), metric and curvature with an independent
determinant oracle (`geometry`), virial coefficients and thresholds
(`virial`), and a sweep/self-check command line (`cli`).
"""

from .core import (
    BOSON,
    FERMION,
    DomainError,
    GasSpec,
    ThermoPoint,
    q_bracket,
    validate_domain,
)
from .distributions import (
    ConvergenceError,
    LogMoments,
    boson_theta_sums,
    cumulant_kernel,
    fermion_h_sums,
    log_moments,
)
from .geometry import (
    NORM_PAPER,
    NORM_RAW,
    CurvatureResult,
    DegenerateMetricError,
    MetricTensor,
    StepSizeError,
    curvature_closed_form,
    curvature_from_moments,
    curvature_sign_boundary,
    determinant_curvature_oracle,
    metric_tensor,
)
from .quadrature import (
    MomentSet,
    QuadratureConfig,
    ToleranceError,
    moment_integrals,
    polylog_reference_q1,
)
from .virial import (
    KINDS,
    OutOfVirialRangeError,
    alpha,
    closed_form_threshold,
    delta,
    eta,
    fugacity_from_density,
    virial_threshold,
    zeta_fermion_d2,
)

__version__ = "0.1.0"

__all__ = [
    "BOSON",
    "FERMION",
    "KINDS",
    "NORM_PAPER",
    "NORM_RAW",
    "ConvergenceError",
    "CurvatureResult",
    "DegenerateMetricError",
    "DomainError",
    "GasSpec",
    "LogMoments",
    "MetricTensor",
    "MomentSet",
    "OutOfVirialRangeError",
    "QuadratureConfig",
    "StepSizeError",
    "ThermoPoint",
    "ToleranceError",
    "alpha",
    "boson_theta_sums",
    "closed_form_threshold",
    "cumulant_kernel",
    "curvature_closed_form",
    "curvature_from_moments",
    "curvature_sign_boundary",
    "delta",
    "determinant_curvature_oracle",
    "eta",
    "fermion_h_sums",
    "fugacity_from_density",
    "log_moments",
    "metric_tensor",
    "moment_integrals",
    "polylog_reference_q1",
    "q_bracket",
    "validate_domain",
    "virial_threshold",
    "zeta_fermion_d2",
    "__version__",
]
