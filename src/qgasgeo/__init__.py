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
    ToleranceError,
    q_bracket,
    validate_domain,
)
from .distributions import cumulant_kernel
from .geometry import (
    CurvatureResult,
    MetricTensor,
    curvature_closed_form,
    curvature_from_moments,
    curvature_sign_boundary,
    determinant_curvature_oracle,
    metric_tensor,
)
from .quadrature import (
    MomentSet,
    moment_integrals,
)
from .virial import (
    KINDS,
    alpha,
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
    "CurvatureResult",
    "DomainError",
    "GasSpec",
    "MetricTensor",
    "MomentSet",
    "ToleranceError",
    "alpha",
    "cumulant_kernel",
    "curvature_closed_form",
    "curvature_from_moments",
    "curvature_sign_boundary",
    "delta",
    "determinant_curvature_oracle",
    "eta",
    "fugacity_from_density",
    "metric_tensor",
    "moment_integrals",
    "q_bracket",
    "validate_domain",
    "virial_threshold",
    "zeta_fermion_d2",
    "__version__",
]
