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

`quad_vec` is a global-adaptive Gauss-Kronrod 21 integrator in the max norm
(the QUADPACK error estimate, with the intervals of largest error bisected
first).  Each refinement step bisects up to 128 intervals and evaluates all
of their 42 abscissae per interval in one call of the array kernel.
"""

import heapq
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import mpmath
import numpy as np

from .core import BOSON, GasSpec, ThermoPoint, validate_domain
from .distributions import cumulant_kernel

__all__ = [
    "MomentSet",
    "QuadInfo",
    "QuadratureConfig",
    "ToleranceError",
    "moment_integrals",
    "polylog_reference_q1",
    "quad_vec",
]

# Gauss-Kronrod 21-point nodes on [-1, 1] and their weights; the 10-point
# Gauss rule uses the odd-indexed nodes.
_GK21_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
    -0.148874338981631210884826001129720, -0.294392862701460198131126603103866,
    -0.433395394129247190799265943165784, -0.562757134668604683339000099272694,
    -0.679409568299024406234327365114874, -0.780817726586416897063717578345042,
    -0.865063366688984510732096688423493, -0.930157491355708226001207180059508,
    -0.973906528517171720077964012084452, -0.995657163025808080735527280689003])
_GK21_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
    0.147739104901338491374841515972068, 0.142775938577060080797094273138717,
    0.134709217311473325928054001771707, 0.123491976262065851077958109831074,
    0.109387158802297641899210590325805, 0.093125454583697605535065465083366,
    0.075039674810919952767043140916190, 0.054755896574351996031381300244580,
    0.032558162307964727478818972459390, 0.011694638867371874278064396062192])
_GAUSS10_WEIGHTS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338, 0.295524224714752870173892994651338,
    0.269266719309996355091226921569469, 0.219086362515982043995534934228163,
    0.149451349150580593145776339657697, 0.066671344308688137593568809893332])
_EPS = sys.float_info.epsilon
# most intervals bisected in one refinement step
_BATCH = 128


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
    """The four theta-moment integrals at one (spec, z) with the error estimate.

    neval counts integrand evaluations (abscissae) and intervals the final
    subintervals of the quadrature; both are 0 when not recorded.
    """

    a: float
    b: float
    c: float
    d: float
    est_error: float
    spec: GasSpec
    z: float
    neval: int = 0
    intervals: int = 0

    def __iter__(self):
        # unpack as a, b, c, d
        return iter((self.a, self.b, self.c, self.d))


class QuadInfo(NamedTuple):
    """Diagnostics of one `quad_vec` run."""

    neval: int                # integrand evaluations (abscissae)
    intervals: np.ndarray     # (n, 2) final subintervals
    success: bool             # the tolerance was met


def _gk21(f, a, b):
    """Gauss-Kronrod 21 on each interval [a_i, b_i], all abscissae in one call of f.

    Returns the integrals (n, m), the error estimates (n,) and the rounding
    error estimates (n,), all in the max norm over the m components.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fv = f((c[:, None] + h[:, None] * _GK21_NODES).ravel()).reshape(len(a), 21, -1)
    wk = _GK21_WEIGHTS[:, None]
    wf = wk * fv
    s_k = wf.sum(axis=1)
    s_g = (_GAUSS10_WEIGHTS[:, None] * fv[:, 1::2]).sum(axis=1)
    s_k_abs = np.abs(wf).sum(axis=1)  # the weights are positive
    s_k_dabs = (wk * np.abs(fv - (s_k / 2.0)[:, None])).sum(axis=1)
    hc = h[:, None]
    err = np.abs((s_k - s_g) * hc).max(axis=1)
    dabs = np.abs(s_k_dabs * hc).max(axis=1)
    # QUADPACK's estimate: scale the Kronrod-Gauss difference against the
    # mean absolute deviation, then floor it at the rounding error
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = (200.0 * err / dabs) ** 1.5
        err = np.where((dabs != 0.0) & (err != 0.0),
                       dabs * np.where(ratio < 1.0, ratio, 1.0), err)
    rnd = np.abs((50.0 * _EPS * h)[:, None] * s_k_abs).max(axis=1)
    err = np.where((rnd > sys.float_info.min) & (rnd > err), rnd, err)
    return hc * s_k, err, rnd


def quad_vec(f, a, b, epsabs, epsrel, limit):
    """Integral of the vector-valued f over [a, b]: (result, error, QuadInfo).

    f maps a 1-D array of abscissae to an (n, m) array.  Global adaptive
    bisection: the intervals sit in a heap keyed by their error; each step
    bisects the largest-error intervals (at least one, at most 128, until
    their errors exceed global_error - tol/8) with one call of f for all
    children, and updates the global integral and error.  It stops with
    success once there are two or more intervals and global_error < tol/8,
    tol = max(epsabs, epsrel |result|_max); without success once the global
    error falls below the accumulated rounding error, on a non-finite error,
    or when the interval count reaches `limit`.  The returned error is the
    global error plus the rounding error.
    """
    ig, err, rnd = _gk21(f, np.array([a], dtype=float), np.array([b], dtype=float))
    total = ig[0]
    global_error = float(err[0])
    rounding_error = float(rnd[0])
    integrals = {(a, b): ig[0]}
    heap = [(-global_error, a, b)]
    neval = 21
    success = False
    while len(heap) < limit:
        tol = max(epsabs, epsrel * np.abs(total).max())
        popped = []
        err_sum = 0.0
        for j in range(_BATCH):
            if not heap or (j > 0 and err_sum > global_error - tol / 8):
                break
            neg_err, lo, hi = heapq.heappop(heap)
            popped.append((-neg_err, lo, hi))
            err_sum -= neg_err
        lo = np.array([p[1] for p in popped])
        hi = np.array([p[2] for p in popped])
        mid = 0.5 * (lo + hi)
        # children (lo_j, mid_j), (mid_j, hi_j) interleaved
        ig, err, rnd = _gk21(f, np.column_stack((lo, mid)).ravel(),
                             np.column_stack((mid, hi)).ravel())
        neval += 42 * len(popped)
        err, rnd, mid = err.tolist(), rnd.tolist(), mid.tolist()
        for j, (old_err, a_j, b_j) in enumerate(popped):
            c_j = mid[j]
            s1, s2 = ig[2 * j], ig[2 * j + 1]
            total = total + (s1 + s2 - integrals.pop((a_j, b_j)))
            global_error += err[2 * j] + err[2 * j + 1] - old_err
            rounding_error += rnd[2 * j] + rnd[2 * j + 1]
            integrals[(a_j, c_j)] = s1
            integrals[(c_j, b_j)] = s2
            heapq.heappush(heap, (-err[2 * j], a_j, c_j))
            heapq.heappush(heap, (-err[2 * j + 1], c_j, b_j))
        if len(heap) >= 2:
            tol = max(epsabs, epsrel * np.abs(total).max())
            if global_error < tol / 8:
                success = True
                break
            if global_error < rounding_error:
                break
        if not (math.isfinite(global_error) and math.isfinite(rounding_error)):
            break
    intervals = np.array([[lo, hi] for _, lo, hi in heap])
    return total, global_error + rounding_error, QuadInfo(neval, intervals, success)


def _tail_cutoff(lfun, nu, z, cfg):
    # leading tail is 2 z e^(-x) for both statistics
    x_max = math.log(max(2.0 * z, 2.0) / cfg.abs_tol) + cfg.x_max_pad
    while np.max(np.abs(lfun(np.array([x_max])))) * max(x_max ** nu, 1.0) >= cfg.abs_tol:
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
            return (2.0 * u * u)[:, None] * lfun(u * u)

        upper = math.sqrt(x_max)
    else:
        integrand = lfun
        upper = x_max

    res, err, info = quad_vec(
        integrand, 0.0, upper,
        epsabs=cfg.abs_tol, epsrel=cfg.rel_tol, limit=cfg.max_subdivisions)
    if not info.success:
        raise ToleranceError(
            f"quadrature did not converge for {spec} at z = {z}: "
            f"estimated error {err:.3e}", est_error=float(err))
    a, b, c, d = (float(v) for v in res)
    return MomentSet(a=a, b=b, c=c, d=d, est_error=float(err), spec=spec, z=z,
                     neval=info.neval, intervals=len(info.intervals))


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
