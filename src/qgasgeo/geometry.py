"""Two-parameter thermodynamic metric and its scalar curvature.

With coordinates beta^1 = beta and beta^2 = gamma = -beta mu, the metric is
the Hessian g_ab = d^2 ln Z / dbeta^a dbeta^b.  Both statistics share the
structure ln Z = K beta^(-p) a(gamma) with p = D/2 and K = 2 V / sqrt(pi)
for D = 3, K = A for D = 2 (the volume V or area A is 1 in reduced units),
so the components reduce to the theta-moment integrals:

    g11 = p (p+1) K beta^(-p-2) a
    g12 = p K beta^(-p-1) b
    g22 = K beta^(-p) c

The scalar curvature in reduced units lambda^D / volume depends only on
(z, q, D).  It is reported in one normalization, twice the plain scalar
curvature of g (the two-component counting convention the model's published
curves use).  Two independent evaluations are provided, both in that
normalization: the closed form in the moments (numerator
N = b^2 c + a b d - 2 a c^2) and a determinant oracle built directly from the
metric components and their derivatives.  R > 0 is the boson-like regime
(effective statistical attraction), R < 0 fermion-like.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import GasSpec, _require_positive, bisect
from .quadrature import MomentSet, moment_integrals

__all__ = [
    "CurvatureResult",
    "DegenerateMetricError",
    "MetricTensor",
    "curvature_closed_form",
    "curvature_from_moments",
    "curvature_sign_boundary",
    "determinant_curvature_oracle",
    "metric_tensor",
]

SQRT_PI = math.sqrt(math.pi)

# Denominators below this magnitude signal a degenerate metric, which the
# model does not produce anywhere in its physical domain.
_DEGENERATE_FLOOR = 1e-300


class DegenerateMetricError(RuntimeError):
    """det g (or the closed-form denominator) vanished to rounding level."""


@dataclass(frozen=True)
class MetricTensor:
    """Symmetric 2x2 metric at one (spec, beta, z) point."""

    g11: float
    g12: float
    g22: float

    @property
    def det(self):
        return self.g11 * self.g22 - self.g12 * self.g12


@dataclass(frozen=True, init=False)
class CurvatureResult:
    """Reduced scalar curvature and the moments used."""

    R_reduced: float
    moments: MomentSet

    def __init__(self, R_reduced, moments):
        # as MomentSet: the instance dict directly, not object.__setattr__
        fields = self.__dict__
        fields["R_reduced"], fields["moments"] = R_reduced, moments


def _components(spec, beta, abc):
    """(g11, g12, g22) from the first three moments (a, b, c).

    Also applies to gamma-derivatives: feeding (-b, -c, -d) yields
    (d_g g11, d_g g12, d_g g22) by the theta-moment ladder.
    """
    a, b, c = abc
    p = spec.p
    K = 2.0 / SQRT_PI if spec.dimension == 3 else 1.0
    g11 = p * (p + 1.0) * K * beta ** (-p - 2.0) * a
    g12 = p * K * beta ** (-p - 1.0) * b
    g22 = K * beta ** (-p) * c
    return g11, g12, g22


def metric_tensor(spec, beta, z):
    """Metric components at (beta, z) from the theta moments.

    All moments are positive, so g12 > 0 in this sign convention.  Raises
    DomainError unless beta is finite and > 0 and z is in the domain.
    """
    _require_positive(beta, "beta")
    m = moment_integrals(spec, z)
    g11, g12, g22 = _components(spec, float(beta), (m.a, m.b, m.c))
    return MetricTensor(g11=g11, g12=g12, g22=g22)


def curvature_from_moments(moments):
    """Closed-form reduced curvature from an existing MomentSet (of moments.spec).

    R = 5 sqrt(pi) N / (5ac - 3b^2)^2 for D = 3 and 2 N / (2ac - b^2)^2 for
    D = 2, with N = b^2 c + a b d - 2 a c^2 taken from `MomentSet.numerator`,
    which forms it as suits the route of the moments.
    """
    a, b, c = moments.a, moments.b, moments.c
    if moments.spec.dimension == 3:
        denom = 5.0 * a * c - 3.0 * b * b
        scale = 5.0 * SQRT_PI
    else:
        denom = 2.0 * a * c - b * b
        scale = 2.0
    if abs(denom) < _DEGENERATE_FLOOR:
        raise DegenerateMetricError(
            f"metric denominator {denom!r} below {_DEGENERATE_FLOOR} for {moments.spec} "
            f"at z = {moments.z}")
    return CurvatureResult(scale * moments.numerator / (denom * denom), moments)


def curvature_closed_form(spec, z):
    """Reduced scalar curvature at fugacity z via the closed form.

    R = 5 sqrt(pi) N / (5ac - 3b^2)^2 for D = 3 and 2 N / (2ac - b^2)^2 for
    D = 2, N = b^2 c + a b d - 2 a c^2, twice the plain scalar curvature of g.
    Units are lambda^D / volume, so beta drops out.
    """
    return curvature_from_moments(moment_integrals(spec, z))


def determinant_curvature_oracle(spec, beta, z):
    """Reduced scalar curvature via the 3x3 determinant, in the closed form's normalization.

    For a two-parameter Hessian metric the plain scalar curvature is

        det [[g11,    g22,    g12   ],
             [d_b g11, d_b g22, d_b g12],
             [d_g g11, d_g g22, d_g g12]] / (2 (det g)^2),

    equivalent to the Levi-Civita computation (checked symbolically); the
    oracle returns twice it, the determinant over (det g)^2, as
    `curvature_closed_form` does.  The beta-derivatives use the exact
    power-law structure and the gamma-derivatives the analytic ladder
    da/dgamma = -b, db/dgamma = -c, dc/dgamma = -d.

    The reduced result (units lambda^D / volume) is independent of beta.
    Raises DomainError unless beta is finite and > 0 and z is in the domain.
    """
    _require_positive(beta, "beta")
    beta = float(beta)
    p = spec.p
    m = moment_integrals(spec, z)
    g11, g12, g22 = _components(spec, beta, (m.a, m.b, m.c))
    # ln Z = K beta^(-p) a: each component scales as a pure power of beta
    db_g11 = -(p + 2.0) / beta * g11
    db_g12 = -(p + 1.0) / beta * g12
    db_g22 = -p / beta * g22
    dg_g11, dg_g12, dg_g22 = _components(spec, beta, (-m.b, -m.c, -m.d))
    det_g = g11 * g22 - g12 * g12
    if det_g < _DEGENERATE_FLOOR:
        raise DegenerateMetricError(f"det g = {det_g!r} not positive for {spec} at z = {m.z}")
    M = np.array([[g11, g22, g12],
                  [db_g11, db_g22, db_g12],
                  [dg_g11, dg_g22, dg_g12]])
    R = float(np.linalg.det(M)) / (det_g * det_g)
    # convert to units lambda^D / volume with lambda^D = beta^(D/2) and
    # volume 1; all beta dependence cancels
    return R / beta ** (spec.dimension / 2.0)


def curvature_sign_boundary(spec, z, q_lo, q_hi):
    """Deformation q* in (q_lo, q_hi) where R changes sign, or None.

    spec gives the statistics and dimension; its q is not read, since the
    search varies q over the bracket.  Evaluates the closed-form curvature
    at the bracket ends; if the signs agree None is returned, otherwise
    plain bisection tightens the bracket to |dq| < 1e-4.

    The bracket is assumed to hold one crossing.  With an even number of
    crossings the ends agree in sign and None is returned; with three or
    more, one of them is.  Near q = 1 at the boson edge R changes sign
    three times: for the D = 2 boson at z = 0.999, [0.95, 1.0] gives None
    and [0.9, 1.1] gives 1.00283, one of three roots.
    """
    return bisect(lambda q: curvature_closed_form(GasSpec(spec.statistics, q, spec.dimension),
                                                  z).R_reduced,
                  q_lo, q_hi, xtol=1e-4)
