"""Reduced moment integrals a, b, c, d = int_0^inf x^nu L_k(x) dx, k = 0..3.

The four integrals are evaluated in one adaptive pass with the vector-valued
integrand `distributions.cumulant_kernel`, so the four share one evaluation
of the sums per abscissa.  That kernel sums a boson series only as far as the
abscissa needs it: at q > 1 the terms past an x-dependent index are exactly
zero, at q < 1 they form a precomputed tail, and q = 1 has closed forms (see
`BosonThetaSeries`).  For D = 3 the
substitution x = u^2 removes the x^(1/2) endpoint factor and makes the
integrand analytic at the origin; for D = 2 the integrand is already smooth.
The infinite tail is cut at x_max where the k = 0 integrand has fallen below
the absolute tolerance (verified for k = 1..3 and enlarged if needed);
beyond it every L_k decays like e^(-x).
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.integrate import quad_vec

from .core import BOSON, GasSpec, ThermoPoint, validate_domain
from .distributions import cumulant_kernel

__all__ = [
    "MomentSet",
    "QuadratureConfig",
    "ToleranceError",
    "moment_integrals",
    "polylog_reference_q1",
]


class ToleranceError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message, est_error):
        super().__init__(message)
        self.est_error = est_error


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and subdivision budget for the moment integrals.

    The tail cutoff rule places x_max where x^nu L0(x) < abs_tol, starting
    from the analytic estimate ln(max(2z, 2)/abs_tol) + x_max_pad and growing
    by factors of 1.25 until all four integrand components clear abs_tol.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 200
    x_max_pad: float = 5.0

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol!r}")
        if self.abs_tol <= 0.0:
            raise ValueError(f"abs_tol must be > 0, got {self.abs_tol!r}")


@dataclass(frozen=True)
class MomentSet:
    """The four theta-moment integrals at one (spec, z) with the error estimate."""

    a: float
    b: float
    c: float
    d: float
    est_error: float
    spec: GasSpec
    z: float

    def __iter__(self):
        # unpack as a, b, c, d
        return iter((self.a, self.b, self.c, self.d))


def _tail_cutoff(lfun, nu, z, cfg):
    # leading tail is 2 z e^(-x) for both statistics
    x_max = math.log(max(2.0 * z, 2.0) / cfg.abs_tol) + cfg.x_max_pad
    while np.max(np.abs(lfun(x_max))) * max(x_max ** nu, 1.0) >= cfg.abs_tol:
        x_max *= 1.25
        if x_max > 1e6:
            raise ToleranceError(
                f"no integrand decay below abs_tol = {cfg.abs_tol} by x = {x_max:.3g}",
                est_error=math.inf)
    return x_max


def moment_integrals(spec, z, cfg=None):
    """MomentSet (a, b, c, d) = int_0^x_max x^nu L_k dx by adaptive quadrature.

    Raises DomainError outside the physical domain and ToleranceError
    (carrying the achieved error estimate) if the subdivision budget is
    exhausted before the tolerances are met.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    lfun = cumulant_kernel(spec, z)
    x_max = _tail_cutoff(lfun, spec.nu, z, cfg)

    if spec.dimension == 3:
        # int x^(1/2) L dx = int 2 u^2 L(u^2) du under x = u^2
        def integrand(u):
            return 2.0 * u * u * lfun(u * u)

        upper = math.sqrt(x_max)
    else:
        integrand = lfun
        upper = x_max

    res, err, info = quad_vec(
        integrand, 0.0, upper,
        epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
        norm="max", limit=cfg.max_subdivisions, full_output=True)
    if not info.success:
        raise ToleranceError(
            f"quadrature did not converge for {spec} at z = {z}: "
            f"estimated error {err:.3e}", est_error=float(err))
    a, b, c, d = (float(v) for v in res)
    return MomentSet(a=a, b=b, c=c, d=d, est_error=float(err), spec=spec, z=z)


def polylog_reference_q1(spec, z):
    """Undeformed-limit reference values (a, b, c, d) from polylogarithms.

    At q = 1 the boson integrand is ln f = -2 ln(1 - z e^(-x)) and the
    fermion one is ln h = 2 ln(1 + z e^(-x)), so each moment reduces to
    a polylogarithm: a = 2 Gamma(nu+1) Li_(nu+2)(z) for bosons and
    -2 Gamma(nu+1) Li_(nu+2)(-z) for fermions, with each theta lowering
    the index by one.  Fermion arguments -z < -1 rely on the analytic
    continuation; spurious imaginary round-off is stripped.
    """
    if spec.q != 1.0:
        raise ValueError(f"polylog reference only applies at q = 1, got q = {spec.q}")
    validate_domain(spec, ThermoPoint(z=z))
    prefactor = 2.0 * float(mpmath.gamma(spec.nu + 1.0))
    s_top = spec.nu + 2.0
    sign = 1.0 if spec.statistics == BOSON else -1.0
    arg = z if spec.statistics == BOSON else -z
    out = []
    for k in range(4):
        v = mpmath.polylog(s_top - k, arg)
        if isinstance(v, mpmath.mpc):
            if abs(v.imag) > 1e-12 * max(1.0, abs(v.real)):
                raise ArithmeticError(f"polylog returned complex value {v} at s = {s_top - k}")
            v = v.real
        out.append(sign * prefactor * float(v))
    return tuple(out)
