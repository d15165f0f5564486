"""Reduced moment integrals a, b, c, d = int_0^inf x^nu L_k(x) dx, k = 0..3.

`moment_integrals` takes one of three routes: the cluster expansion at small
z ("series"), polylogarithms for the q = 1 boson ("polylog") and adaptive
quadrature for every other point ("quadrature").

The four integrals are evaluated in one adaptive pass with the vector-valued
integrand `distributions.cumulant_kernel`, so the four share one evaluation
of the sums per abscissa.  That kernel sums a boson series only as far as
the abscissa needs it: at q > 1 the terms past an x-dependent index are
exactly zero and at q < 1 they are the full sums times e^(-x{inf}) to double
precision.  `BosonThetaSeries` has closed forms at q = 1 as well, but
`moment_integrals` sends the q = 1 boson to the polylog route below, so only
a direct call of the quadrature integrates it.  Both dimensions integrate
2 u^(2 nu + 1) L_k(u^2) du in u = sqrt(x): it removes the x^(1/2) endpoint
factor at D = 3 and widens the features near x = 0 at D = 2 (a small-q
fermion steps at x ~ q^2, a large-q boson at x ~ q^-2).  The infinite tail
is cut at x_max, where max_k |L_k| x^nu is below ABS_TOL; beyond it every
L_k decays like e^(-x).  x_max starts at ln(max(2z, 2) / ABS_TOL) + 5, where
the leading tail 2 z e^(-x) of both statistics is at most e^-5 ABS_TOL.  It
stays there without a kernel call where `distributions.cumulant_bound`, a
closed-form bound on max_k |L_k| from the brackets' structure, times x^nu is
below ABS_TOL / 2, the other half left for the kernel's rounding.  Elsewhere
(bosons at q < 1 near z = 1, fermions at large z) the kernel is probed at
x_max, which grows by 1.25 until the probe is below ABS_TOL.

Where the first order of the moments, 2 Gamma(D/2) z, is below
ABS_TOL / REL_TOL, the absolute tolerance would bind, so `moment_integrals`
sums the cluster expansion of `distributions.cluster_coefficients` instead,
and nothing else: where the first omitted order is not below 2^-56 of a it
raises ToleranceError.  No point of a scan over both statistics, D = 2 and
3, q from 1e-150 to 1e300 and z from 5e-324 to the boundary raised it.  It
sums a and the excesses b - a, c - a, d - a, from which
`geometry.curvature_from_moments` forms the curvature.  The coefficients A_n
depend on the gas alone: `_series_weights` computes them once per
(statistics, q, D) and keeps them, with the weights n^k - 1 of the excesses
folded in, as tuples of floats shared by every z; it is the route's one
memo.  A series point then costs the domain check, four Horner sums over
ten orders in plain floats and the two immutable records.

Every other q = 1 boson point, up to the last float below z = 1, has the
moments 2 Gamma(D/2) Li_(D/2+1-k)(z) in double precision (`_polylog`): up
to z = 3/4 as a and the excesses, summed like the series route with more
orders, and above it from the polylogarithms themselves.  The q = 1
fermion stays on the quadrature.

`quad_vec` is a global-adaptive Gauss-Kronrod 21 integrator in the max norm
(the QUADPACK error estimate, with the intervals of largest error bisected
first).  Each refinement step bisects up to 128 intervals and evaluates all
of their 42 abscissae per interval in one call of the array kernel.
"""

import functools
import heapq
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _polylog
from .core import BOSON, GasSpec, ToleranceError, validate_domain
from .distributions import CLUSTER_ORDER, cluster_coefficients, cumulant_bound, cumulant_kernel

__all__ = [
    "MomentSet",
    "QuadInfo",
    "moment_integrals",
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
# relative and absolute tolerance and most subintervals of a moment integral
REL_TOL = 1e-10
ABS_TOL = 1e-12
MAX_SUBDIVISIONS = 200
# the tail cutoff starts at ln(max(2z, 2) / ABS_TOL) + _X_MAX_PAD, past which
# the leading tail 2 z e^(-x) of both statistics is below e^-5 ABS_TOL
_X_MAX_PAD = 5.0
# 2 Gamma(D/2) by dimension: the first order of every moment is 2 Gamma(D/2) z
_TWO_GAMMA = {2: 2.0 * math.gamma(1.0), 3: 2.0 * math.gamma(1.5)}
# orders n = 1..CLUSTER_ORDER of the cluster expansion that are summed; order
# CLUSTER_ORDER + 1 is only the error estimate.  Rows of the weights: 1,
# n - 1, n^2 - 1, n^3 - 1, so that the excesses b - a, c - a, d - a never
# contain the n = 1 term.
_ORDERS = np.arange(1.0, CLUSTER_ORDER + 1.0)
_EXCESS_WEIGHTS = np.vstack([_ORDERS ** k for k in range(4)]) - [[0.0], [1.0], [1.0], [1.0]]
# n^3 of the last order: its term of d bounds the omitted orders
_LAST_ORDER_CUBED = (CLUSTER_ORDER + 1.0) ** 3
# est_error of the closed-form routes relative to the largest |moment|: the
# polylog moments were measured within 6.3e-16 relative of mpmath, the
# series moments within 2.1e-16 of d
_CLOSED_FORM_REL = 2.0 ** -48


@dataclass(frozen=True, init=False)
class MomentSet:
    """The four theta-moment integrals at one (spec, z) with the error estimate.

    route names how they were obtained: "series" (the cluster expansion at
    small z), "polylog" (the q = 1 boson) or "quadrature".  neval counts
    integrand evaluations (abscissae) and intervals the final subintervals
    of the quadrature; both are 0 on the other routes and when not
    recorded.  excess holds (b - a, c - a, d - a), summed without forming
    b, c, d, on the series route and on the polylog route up to z = 3/4.
    It is None elsewhere: the polylogarithms above z = 3/4 and the
    quadrature's moments give no more accurate excesses than their float
    differences.  x_max is the quadrature's tail cutoff, the upper limit of
    the integrals in x, and 0.0 on the other routes.  Data only:
    `geometry.curvature_from_moments` forms R from it.
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
    route: str = "quadrature"
    excess: tuple = None
    x_max: float = 0.0

    def __init__(self, a, b, c, d, est_error, spec, z, neval=0, intervals=0,
                 route="quadrature", excess=None, x_max=0.0):
        # fills the instance dict directly: the generated frozen __init__
        # sets each field through object.__setattr__, about a microsecond
        # more per record; assignment after construction still raises
        fields = self.__dict__
        fields["a"], fields["b"], fields["c"], fields["d"] = a, b, c, d
        fields["est_error"], fields["spec"], fields["z"] = est_error, spec, z
        fields["neval"], fields["intervals"] = neval, intervals
        fields["route"], fields["excess"], fields["x_max"] = route, excess, x_max

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


def quad_vec(f, a, b):
    """Integral of the vector-valued f over [a, b]: (result, error, QuadInfo).

    f maps a 1-D array of abscissae to an (n, m) array.  Global adaptive
    bisection: the intervals sit in a heap as (-error, lo, hi, integral);
    each step bisects the largest-error intervals (at least one, at most 128,
    until their errors exceed global_error - tol/8) with one call of f for
    all children, and updates the global integral, its error and
    tol = max(ABS_TOL, REL_TOL |result|_max).  After each step it stops with
    success where global_error < tol/8, and without success where the
    global error falls below the accumulated rounding error, on a
    non-finite error, or when the interval count reaches MAX_SUBDIVISIONS.
    The tolerances and the budget are read at call time.  The returned
    error is the global error plus the rounding error.
    """
    ig, err, rnd = _gk21(f, np.array([a], dtype=float), np.array([b], dtype=float))
    total = ig[0]
    global_error = float(err[0])
    rounding_error = float(rnd[0])
    # no two intervals share (lo, hi), so the integrals are never compared
    heap = [(-global_error, a, b, ig[0])]
    neval = 21
    success = False
    tol = max(ABS_TOL, REL_TOL * np.abs(total).max())
    while len(heap) < MAX_SUBDIVISIONS:
        popped = []
        err_sum = 0.0
        for j in range(_BATCH):
            if not heap or (j > 0 and err_sum > global_error - tol / 8):
                break
            popped.append(heapq.heappop(heap))
            err_sum -= popped[-1][0]
        lo = np.array([p[1] for p in popped])
        hi = np.array([p[2] for p in popped])
        mid = 0.5 * (lo + hi)
        # children (lo_j, mid_j), (mid_j, hi_j) interleaved
        left, right = np.empty(2 * len(popped)), np.empty(2 * len(popped))
        left[0::2], left[1::2] = lo, mid
        right[0::2], right[1::2] = mid, hi
        ig, err, rnd = _gk21(f, left, right)
        neval += 42 * len(popped)
        err, rnd, mid = err.tolist(), rnd.tolist(), mid.tolist()
        for j, (neg_err, a_j, b_j, old) in enumerate(popped):
            c_j = mid[j]
            s1, s2 = ig[2 * j], ig[2 * j + 1]
            total = total + (s1 + s2 - old)
            global_error += err[2 * j] + err[2 * j + 1] + neg_err
            rounding_error += rnd[2 * j] + rnd[2 * j + 1]
            heapq.heappush(heap, (-err[2 * j], a_j, c_j, s1))
            heapq.heappush(heap, (-err[2 * j + 1], c_j, b_j, s2))
        tol = max(ABS_TOL, REL_TOL * np.abs(total).max())
        if global_error < tol / 8:
            success = True
            break
        if global_error < rounding_error:
            break
        if not (math.isfinite(global_error) and math.isfinite(rounding_error)):
            break
    intervals = np.array([p[1:3] for p in heap])
    return total, global_error + rounding_error, QuadInfo(neval, intervals, success)


def _tail_cutoff(spec, z, lfun):
    # x_max where max_k |L_k| max(x^nu, 1) < ABS_TOL: the start when the
    # bound certifies it (see the module docstring), else probed by lfun
    x_max = math.log(max(2.0 * z, 2.0) / ABS_TOL) + _X_MAX_PAD
    if cumulant_bound(spec, z, x_max) * max(x_max ** spec.nu, 1.0) < ABS_TOL / 2.0:
        return x_max
    while np.max(np.abs(lfun(np.array([x_max])))) * max(x_max ** spec.nu, 1.0) >= ABS_TOL:
        x_max *= 1.25
        if x_max > 1e6:
            raise ToleranceError(
                f"no integrand decay below abs_tol = {ABS_TOL} for {spec} at z = {z} "
                f"by x = {x_max:.3g}", est_error=math.inf)
    return x_max


# gases whose series weights are kept: a sign-boundary search visits about
# 16 values of q, a z sweep one
_SERIES_MEMO = 256


@functools.lru_cache(maxsize=_SERIES_MEMO)
def _series_weights(statistics, q, dimension):
    """Weights of the series sums of one gas in plain floats:
    ((A_n, (n - 1) A_n, (n^2 - 1) A_n, (n^3 - 1) A_n) for n = CLUSTER_ORDER
    down to 1, A_(CLUSTER_ORDER + 1)).  The one memo of the series route:
    computed once per value of the gas's fields and kept for the
    _SERIES_MEMO most recently used gases.  Keyed on the fields, a hit
    hashes a tuple in C rather than calling the spec's generated __hash__."""
    A = cluster_coefficients(GasSpec(statistics, q, dimension))
    rows = (_EXCESS_WEIGHTS * A[:-1]).T[::-1]
    return tuple(map(tuple, rows.tolist())), float(A[-1])


def _series_moments(spec, z):
    """MomentSet from the cluster expansion.  z is in the domain
    (`moment_integrals` checks it).  a and the excesses are summed by
    Horner's rule in plain floats, within 1.5 ulps of the exact sums of the
    same weights.  est_error is 2^-48 of the largest |moment|, which bounds
    the rounding and, far more than enough, the omitted orders.  Raises
    ToleranceError, carrying the first omitted order of d, where that order
    is not below 2^-56 (`_polylog.TAIL`) of a."""
    rows, last = _series_weights(spec.statistics, spec.q, spec.dimension)
    a = eb = ec = ed = 0.0
    for wa, wb, wc, wd in rows:
        a = (a + wa) * z
        eb = (eb + wb) * z
        ec = (ec + wc) * z
        ed = (ed + wd) * z
    # both sides divided by z: a / z is near 2 Gamma(D/2), so the bound
    # cannot underflow where z does
    tail = abs(last * z ** CLUSTER_ORDER) * _LAST_ORDER_CUBED
    if not tail < _polylog.TAIL * (a / z):
        raise ToleranceError(
            f"series route: first omitted order {tail * z:.3e} not below 2^-56 of "
            f"a = {a:.3e} for {spec} at z = {z!r}", est_error=tail * z)
    b, c, d = a + eb, a + ec, a + ed
    est_error = _CLOSED_FORM_REL * max(abs(a), abs(b), abs(c), abs(d))
    # neval and intervals are 0 on this route
    return MomentSet(a, b, c, d, est_error, spec, z, 0, 0, "series", (eb, ec, ed))


def _polylog_moments(spec, z):
    """MomentSet of the q = 1 boson, 0 < z < 1, from the polylogarithms:
    a and the excesses up to z = 3/4, the four moments above it."""
    two_gamma = _TWO_GAMMA[spec.dimension]
    if z <= _polylog.DIRECT_MAX:
        a, eb, ec, ed = (two_gamma * s for s in _polylog.excess_sums(spec.dimension, z))
        b, c, d, excess = a + eb, a + ec, a + ed, (eb, ec, ed)
    else:
        a, b, c, d = (two_gamma * li for li in _polylog.polylogs(spec.dimension, z))
        excess = None
    # d is the largest moment
    return MomentSet(a, b, c, d, _CLOSED_FORM_REL * d, spec, z, 0, 0, "polylog", excess)


def _quadrature_moments(spec, z):
    """MomentSet by adaptive quadrature in u = sqrt(x)."""
    lfun = cumulant_kernel(spec, z)
    x_max = _tail_cutoff(spec, z, lfun)

    def integrand(u):
        return (2.0 * u ** (2.0 * spec.nu + 1.0))[:, None] * lfun(u * u)

    res, err, info = quad_vec(integrand, 0.0, math.sqrt(x_max))
    if not info.success:
        raise ToleranceError(
            f"quadrature did not converge for {spec} at z = {z}: "
            f"estimated error {err:.3e}", est_error=float(err))
    a, b, c, d = (float(v) for v in res)
    return MomentSet(a=a, b=b, c=c, d=d, est_error=float(err), spec=spec, z=z,
                     neval=info.neval, intervals=len(info.intervals), x_max=x_max)


def moment_integrals(spec, z):
    """MomentSet (a, b, c, d) = int_0^inf x^nu L_k dx, k = 0..3.

    Three routes, tried in this order:

    * "series": where the first order of every moment, 2 Gamma(D/2) z, is
      below ABS_TOL / REL_TOL, the absolute tolerance would bind the
      quadrature, so the moments are summed from the cluster expansion
      (`distributions.cluster_coefficients`) and no other route is tried;
      est_error is 2^-48 of the largest |moment|.
    * "polylog": every other boson at q = 1, from the polylogarithms in
      double precision; est_error is 2^-48 of d.
    * "quadrature": adaptive quadrature in u = sqrt(x) up to x_max.

    Raises DomainError outside the physical domain and ToleranceError
    (carrying the achieved error estimate) if the subdivision budget is
    exhausted before the tolerances are met, on the series route if its
    first omitted order is not below 2^-56 of a, and for a boson whose
    series reaches its term cap (`distributions.BosonThetaSeries`, with
    est_error inf).
    """
    z = validate_domain(spec, z)
    if _TWO_GAMMA[spec.dimension] * z < ABS_TOL / REL_TOL:
        return _series_moments(spec, z)
    if spec.q == 1.0 and spec.statistics == BOSON:
        return _polylog_moments(spec, z)
    return _quadrature_moments(spec, z)
