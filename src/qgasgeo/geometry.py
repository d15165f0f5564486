"""Two-parameter thermodynamic metric and its scalar curvature.

With coordinates beta^1 = beta and beta^2 = gamma = -beta mu, the metric is
the Hessian g_ab = d^2 ln Z / dbeta^a dbeta^b.  Both statistics share the
structure ln Z = K beta^(-p) a(gamma) with p = D/2 and K = 1 / Gamma(p) (the
volume or area is 1 in reduced units), so the components reduce to the
theta-moment integrals:

    g11 = p (p+1) K beta^(-p-2) a
    g12 = p K beta^(-p-1) b
    g22 = K beta^(-p) c

The scalar curvature in reduced units lambda^D / volume depends only on
(z, q, D).  It is reported in one normalization, twice the plain scalar
curvature of g (the two-component counting convention the model's published
curves use).  Two independent evaluations are provided, both in that
normalization: the closed form in the moments, formed in
`curvature_from_moments` alone, and a determinant oracle built directly from
the metric components and their derivatives.  R > 0 is the boson-like regime
(effective statistical attraction), R < 0 fermion-like.
"""

import math
import sys
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core import DomainError, GasSpec, ToleranceError, _require_positive, bisect
from .quadrature import MomentSet, moment_integrals

__all__ = [
    "CurvatureResult",
    "MetricTensor",
    "curvature_closed_form",
    "curvature_from_moments",
    "curvature_sign_boundary",
    "determinant_curvature_oracle",
    "metric_tensor",
]

# (p + 1) Gamma(p) by dimension, written out: the product is an ulp off at D = 3
_PREFACTOR = {2: 2.0, 3: 1.25 * math.sqrt(math.pi)}
# 2^-511: below it z^2, the order of the series excesses, is subnormal
_Z_MIN = math.sqrt(sys.float_info.min)
# Denominators below this magnitude signal a degenerate metric, which the
# model does not produce anywhere in its physical domain: the closed form
# rescales tiny moments before it forms its denominator.
_DEGENERATE_FLOOR = 1e-300


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
    K = 1.0 / math.gamma(p)
    g11 = p * (p + 1.0) * K * beta ** (-p - 2.0) * a
    g12 = p * K * beta ** (-p - 1.0) * b
    g22 = K * beta ** (-p) * c
    return g11, g12, g22


def _require_beta(spec, beta):
    """beta as a float; DomainError unless it is finite, > 0 and beta^-(2p+2),
    the scale of det g, is a normal float."""
    _require_positive(beta, "beta")
    if (2.0 * spec.p + 2.0) * abs(math.log(beta)) > -math.log(sys.float_info.min):
        raise DomainError(f"beta = {beta!r}: beta^-{2.0 * spec.p + 2.0:g} is not a normal float")
    return float(beta)


def metric_tensor(spec, beta, z):
    """Metric components at (beta, z) from the theta moments.

    All moments are positive, so g12 > 0 in this sign convention.  Raises
    DomainError unless z is in the domain, beta is finite, > 0 and
    beta^-(2p+2), the scale of det g, a normal float (1.2e-77 to 8.2e76 at
    D = 2, 2.9e-62 to 3.4e61 at D = 3); near those ends `det` can still
    leave the normal range by the factor of the moments.
    """
    beta = _require_beta(spec, beta)
    m = moment_integrals(spec, z)
    g11, g12, g22 = _components(spec, beta, (m.a, m.b, m.c))
    return MetricTensor(g11=g11, g12=g12, g22=g22)


def curvature_from_moments(moments):
    """Closed-form reduced curvature from an existing MomentSet (of moments.spec).

    R = (p + 1) Gamma(p) N / ((p + 1) a c - p b^2)^2 with p = D/2 and
    N = b^2 c + a b d - 2 a c^2.

    Moments of the series route, and of the polylog route up to z = 3/4,
    carry the excesses eb = b - a, ec = c - a, ed = d - a, and
    N = a^2 (3 eb - 3 ec + ed) + a (eb^2 + 2 eb ec + eb ed - 2 ec^2)
    + eb^2 ec there: its a^3 terms cancel symbolically, not in the rounding
    of a^3 against an N of order z^4.  Quadrature moments, and polylog
    moments above z = 3/4, use N as written: at large z each excess is
    about -a, and the excess form lost 3e-4 for a fermion at z = 1e80.

    N and the squared denominator (order z^4) underflow from z ~ 1e-77, so
    below a = 2^-200 the moments are scaled exactly by the 2^k that brings a
    to [0.5, 1), and R (of degree -1) by 2^k.  DomainError there unless
    z > 2^-511 and each excess is a normal float; ToleranceError (est_error
    inf) if the denominator is below 1e-300, which only a hand-built
    MomentSet reaches.
    """
    a, b, c, d, excess = moments.a, moments.b, moments.c, moments.d, moments.excess
    spec = moments.spec
    k = 0
    if a < 2.0 ** -200:
        if moments.z <= _Z_MIN or excess and min(map(abs, excess)) < sys.float_info.min:
            raise DomainError(f"R needs z > {_Z_MIN:.4g} (2^-511) and normal series "
                              f"excesses; got z = {moments.z!r}, {excess} for {spec}")
        k = -math.frexp(a)[1]
        a, b, c, d = (math.ldexp(m, k) for m in (a, b, c, d))
        excess = excess and tuple(math.ldexp(e, k) for e in excess)
    if excess is None:
        numerator = b * b * c + a * b * d - 2.0 * a * c * c
    else:
        eb, ec, ed = excess
        numerator = (a * a * (3.0 * eb - 3.0 * ec + ed)
                     + a * (eb * eb + 2.0 * eb * ec + eb * ed - 2.0 * ec * ec) + eb * eb * ec)
    p = spec.p
    denom = (p + 1.0) * a * c - p * b * b
    if abs(denom) < _DEGENERATE_FLOOR:
        raise ToleranceError(
            f"metric denominator {denom!r} below {_DEGENERATE_FLOOR} for {spec} "
            f"at z = {moments.z}", est_error=math.inf)
    R = _PREFACTOR[spec.dimension] * numerator / (denom * denom)
    return CurvatureResult(math.ldexp(R, k) if k else R, moments)


def curvature_closed_form(spec, z):
    """Reduced scalar curvature at fugacity z via the closed form.

    R = (p + 1) Gamma(p) N / ((p + 1) a c - p b^2)^2, N = b^2 c + a b d - 2 a c^2,
    p = D/2, twice the plain scalar curvature of g (`curvature_from_moments`).
    Units are lambda^D / volume, so beta drops out.  Raises DomainError
    outside the physical domain and at z <= 2^-511 (1.49e-154).
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
    Raises DomainError unless z and beta are in the domain of `metric_tensor`
    and (det g)^2, of scale beta^-(4p+4), is a normal float.

    The determinant's rounding bounds the accuracy: the relative error is up
    to about eps * S / |det|, with S the sum of the six products' magnitudes
    (the permanent of |M|), on top of the moments' own error.  At small z the
    products cancel to their O(z^3) leading terms and the bound grows:
    4.7e-6 at boson D=3, q = 1.15, z = 1e-8 (1.0e-6 off), 4.7e-2 at
    z = 1e-12 (4.9e-4 off), 2.8e-3 at fermion D=2, q = 1000, z = 1e-6.
    Where |det| <= eps * S no digit is left, and the oracle raises
    ToleranceError (est_error inf) instead of returning a value as small
    as 0.0, as it does where det g is below 1e-300: both are losses of
    precision at small z.
    """
    beta = _require_beta(spec, beta)
    p = spec.p
    m = moment_integrals(spec, z)
    g11, g12, g22 = _components(spec, beta, (m.a, m.b, m.c))
    # ln Z = K beta^(-p) a: each component scales as a pure power of beta
    db_g11 = -(p + 2.0) / beta * g11
    db_g12 = -(p + 1.0) / beta * g12
    db_g22 = -p / beta * g22
    dg_g11, dg_g12, dg_g22 = _components(spec, beta, (-m.b, -m.c, -m.d))
    det_g = g11 * g22 - g12 * g12
    det_g2 = det_g * det_g
    if not sys.float_info.min <= det_g2 < math.inf:
        raise DomainError(f"(det g)^2 = {det_g2!r} is not a normal float at beta = {beta!r}")
    if det_g < _DEGENERATE_FLOOR:
        raise ToleranceError(f"det g = {det_g!r} not positive for {spec} at z = {m.z}",
                             est_error=math.inf)
    M = np.array([[g11, g22, g12],
                  [db_g11, db_g22, db_g12],
                  [dg_g11, dg_g22, dg_g12]])
    det = float(np.linalg.det(M))
    # at small z the six products of the expansion cancel to their O(z^3)
    # leading terms; at or below their rounding level det keeps no digit
    if abs(det) <= sys.float_info.epsilon * sum(
            abs(M[0, i] * M[1, j] * M[2, k]) for i, j, k in permutations(range(3))):
        raise ToleranceError(
            f"3x3 determinant {det!r} is within rounding of its products for {spec} at z = {m.z}",
            est_error=math.inf)
    R = det / det_g2
    # convert to units lambda^D / volume with lambda^D = beta^p and volume 1;
    # all beta dependence cancels
    return R / beta ** p


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

    Raises ToleranceError where R is NaN at an end or a midpoint
    (est_error inf) or the bisection does not converge in 100 halvings,
    besides what `curvature_closed_form` raises at a q it visits.
    """
    return bisect(lambda q: curvature_closed_form(GasSpec(spec.statistics, q, spec.dimension),
                                                  z).R_reduced,
                  q_lo, q_hi, xtol=1e-4)
