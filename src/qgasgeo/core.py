"""Shared domain types, the deformed bracket, parameter-domain validation, and
the library's two failure classes.

The library works in reduced units throughout: the thermal wavelength is
lambda = sqrt(beta) (proportionality constant 1) and the container volume
(V in three dimensions, area A in two) is 1, so every reported curvature is
in units of lambda^D / volume and depends only on (z, q, D).

A point that the library cannot answer raises one of two classes:
DomainError when the input lies outside what a function answers for,
ToleranceError when a route cannot reach its accuracy inside the domain.
"""

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BOSON",
    "FERMION",
    "DomainError",
    "GasSpec",
    "ToleranceError",
    "bisect",
    "q_bracket",
    "validate_domain",
]

BOSON = "boson"
FERMION = "fermion"

# e^t overflows a double for t > LOG_MAX
LOG_MAX = math.log(sys.float_info.max)
# largest fermion fugacity: above it 8 z^2, the z^2 term of theta^3 h, overflows
_FERMION_Z_MAX = math.sqrt(sys.float_info.max / 8.0)
# relative term of the bisection stopping rule: 4 ulps of the midpoint
_BISECT_RTOL = 4.0 * sys.float_info.epsilon
_BISECT_STEPS = 100


class DomainError(ValueError):
    """The input lies outside what the function answers for: a parameter
    outside the physical domain, a value the function does not accept, or
    a density outside the virial range."""


class ToleranceError(RuntimeError):
    """A route cannot reach its accuracy at a point inside the domain: the
    adaptive quadrature, the series route's bound on its omitted orders,
    the boson series' term cap, a metric or 3x3 determinant with no digit
    left, or a bisection that meets a NaN or its step budget.  est_error
    carries the error estimate reached, or inf where the route has none."""

    def __init__(self, message, est_error):
        super().__init__(message)
        self.est_error = est_error


def _require_positive(value, name):
    """Raise DomainError unless value is a real number (not a bool), finite and > 0."""
    # float and int are Real; naming them first spares the slower ABC check
    try:
        ok = (not isinstance(value, bool) and isinstance(value, (float, int, numbers.Real))
              and math.isfinite(value) and value > 0)
    except OverflowError:  # an int beyond the double range
        ok = False
    if not ok:
        try:
            shown = repr(value)
        except ValueError:  # an int past the digit limit of int-to-str conversion
            shown = "a number too long to print"
        raise DomainError(f"{name} must be finite and > 0, got {shown}")


@dataclass(frozen=True, init=False)
class GasSpec:
    """Which gas: statistics ('boson' or 'fermion'), deformation q > 0, dimension 2 or 3.

    Validates its fields in `__init__` and raises DomainError for a bad one,
    so `dataclasses.replace` validates too.
    """

    statistics: str
    q: float
    dimension: int

    def __init__(self, statistics, q, dimension):
        if statistics not in (BOSON, FERMION):
            raise DomainError(f"statistics must be {BOSON!r} or {FERMION!r}, got {statistics!r}")
        # q = 0 would make the fermion exponent q^-2 infinite and degenerate
        # the boson bracket, so it is excluded along with q < 0.  A plain
        # float in (0, inf) needs no further check.
        if type(q) is not float or not 0.0 < q < math.inf:
            _require_positive(q, "deformation parameter q")
        if dimension not in (2, 3):
            raise DomainError(f"dimension must be 2 or 3, got {dimension!r}")
        # as quadrature.MomentSet: the instance dict directly, not
        # object.__setattr__; assignment after construction still raises
        fields = self.__dict__
        fields["statistics"], fields["q"], fields["dimension"] = statistics, q, dimension

    @property
    def nu(self):
        """Exponent of the density-of-states factor x^nu: (D - 2) / 2."""
        return (self.dimension - 2) / 2.0

    @property
    def p(self):
        """Power-law exponent D / 2 of ln Z = K beta^(-p) a(gamma)."""
        return self.dimension / 2.0


def q_bracket(x, q):
    """Deformed number {x} = (1 - q^(2x)) / (1 - q^2).

    Evaluated as expm1(2 x ln q) / expm1(2 ln q), which is accurate to a few
    ulps (not exact) for every q != 1, including q within rounding distance
    of 1; the q = 1 limit {x} = x is returned directly.  Above
    q = sqrt(float max), where expm1(2 ln q) overflows, the same ratio is
    taken as e^(t (x - 1)) expm1(-t x) / expm1(-t) with t = 2 ln q.  Accepts
    scalar or array x.

    >>> q_bracket(3, 1.0)
    3.0
    >>> round(q_bracket(2, 2.0), 12)  # 1 + q^2; unrounded, one ulp below 5
    5.0
    """
    _require_positive(q, "q")
    xarr = np.asarray(x, dtype=float)
    if q == 1.0:
        out = xarr
    else:
        t = 2.0 * math.log(q)
        # q > 1 with large x overflows to inf, which downstream exponentials
        # correctly map to e^(-x {m}) = 0.
        with np.errstate(over="ignore"):
            if t > LOG_MAX:
                out = np.exp(t * (xarr - 1.0)) * np.expm1(-t * xarr) / math.expm1(-t)
            else:
                out = np.expm1(xarr * t) / math.expm1(t)
    return out if out.ndim else float(out)


def validate_domain(spec, z):
    """Check that fugacity z lies in spec's physical domain; return it as a float.

    z must be a real number (not a bool), finite and > 0.  Fermion gases
    accept z <= 4.74e153.  Boson gases are restricted to z < 1 for every q:
    the defining series diverges at z >= 1 for q <= 1, and the x -> 0 edge
    is log-divergent for z >= 1, q > 1.  Raises DomainError naming the
    violated constraint.  beta is checked by the callers that take it.
    """
    # a plain float in (0, inf) needs no further check and no conversion
    if type(z) is not float or not 0.0 < z < math.inf:
        _require_positive(z, "fugacity z")
        z = float(z)
    if spec.statistics == BOSON and z >= 1.0:
        raise DomainError(
            f"boson fugacity must satisfy z < 1 (series domain), got z = {z!r}")
    if z > _FERMION_Z_MAX:
        raise DomainError(f"fermion fugacity must satisfy z <= {_FERMION_Z_MAX:.4g} "
                          f"(8 z^2 overflows above it), got z = {z!r}")
    return z


def bisect(f, a, b, xtol):
    """Root of f on [a, b] by bisection, or None when f(a) and f(b) share a sign.

    Evaluates both ends first and returns an end where f is exactly 0.  Then
    halves the step dm = b - a; the midpoint a + dm replaces a whenever f
    there has the sign of f(a) (or is 0).  Returns the midpoint once f
    vanishes there or |dm| < xtol + 4 eps |midpoint|, the steps and roots of
    scipy.optimize.bisect.  Raises ToleranceError when f returns NaN at an
    end or a midpoint (est_error inf) or after 100 halvings (est_error the
    last |dm|).
    """
    fa, fb = f(a), f(b)
    if math.isnan(fa) or math.isnan(fb):
        raise ToleranceError(f"bisection: f is NaN at an end of [{a!r}, {b!r}]",
                             est_error=math.inf)
    if fa == 0:
        return float(a)
    if fb == 0:
        return float(b)
    if (fa > 0) == (fb > 0):
        return None
    dm = b - a
    for _ in range(_BISECT_STEPS):
        dm *= 0.5
        xm = a + dm
        fm = f(xm)
        if math.isnan(fm):
            raise ToleranceError(f"bisection: f({xm!r}) is NaN", est_error=math.inf)
        if fm * fa >= 0:
            a = xm
        if fm == 0 or abs(dm) < xtol + _BISECT_RTOL * abs(xm):
            return float(xm)
    raise ToleranceError(f"bisection not converged in {_BISECT_STEPS} steps (xtol = {xtol})",
                         est_error=abs(dm))
