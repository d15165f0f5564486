"""Grand-partition integrand functions and their logarithmic fugacity moments.

Per momentum cell the boson gas contributes f(x, z) = sum_m (m+1) e^(-x{m}) z^m
(a convergent series), the fermion gas the closed form
h(x, z) = 1 + 2 e^(-x) z + e^(-(q^-2 + 1) x) z^2.  All fugacity derivatives are
taken with theta = z d/dz = -d/dgamma, so the four moment integrands
L_k = theta^k ln F are positive cumulants of the occupation number:
L1 is a mean, L2 a variance, L3 a third cumulant.

`cumulant_kernel(spec, z)` is the one integrand evaluator: it returns a
function that maps an array of abscissae x to the rows (L0, L1, L2, L3),
built from the excess sums (F0 - 1, F1, F2, F3) of `BosonThetaSeries` or of
the fermion closed form.  Scalar entry points (`log_moments`,
`boson_theta_sums`, `fermion_h_sums`) pass a one-element array through the
same code.
"""

import math
from typing import NamedTuple

import numpy as np

from .core import BOSON, LOG_MAX, DomainError, ThermoPoint, q_bracket, validate_domain

__all__ = [
    "ConvergenceError",
    "LogMoments",
    "boson_theta_sums",
    "cumulant_kernel",
    "fermion_h_sums",
    "log_moments",
]

# Truncating when terms fall below SERIES_TOL times the running sum keeps the
# absolute series error near the rounding floor, which the quadrature
# tolerances (1e-12 absolute) require.
SERIES_TOL = 1e-16
MAX_TERMS = 10 ** 6

# e^(-t) rounds to exactly 0.0 in double precision for t >= 746.
_EXP_ZERO = 746.0
# e^t rounds to exactly 1.0 for 0 <= t < 1e-17 (half an ulp of 1 is 1.1e-16).
_SATURATED_INV = 1e17
# An array of abscissae is evaluated in row blocks whose exponential matrix
# holds at most this many elements (a batch near q = 1 can need 8,192 columns).
_BLOCK = 2 ** 20


class ConvergenceError(RuntimeError):
    """Boson series failed to satisfy the truncation rule within max_terms."""


class LogMoments(NamedTuple):
    """ln F and its first three theta-derivatives at one (x, z) point."""

    L0: float
    L1: float
    L2: float
    L3: float


class BosonThetaSeries:
    """Reusable evaluator for F_k(x) = sum_m (m+1) m^k e^(-x{m}) z^m, k = 0..3.

    The term count M is fixed once per (z, q, tol) from the x = 0 worst case
    of the heaviest series (k = 3): summation stops when the current term is
    below tol times the running sum and the term ratio has fallen below 1.
    Every x > 0 only damps the terms, so M bounds the series at every
    abscissa.  Each abscissa then evaluates only what it needs:

    * q > 1: {m} grows like q^(2m), so from
      k(x) = floor(log1p(746 (q^2 - 1) / x) / (2 ln q)) + 2 on every term has
      x{m} >= 746 and e^(-x{m}) is exactly 0.0; only the first k(x) terms
      are summed, in one product of the k(x) exponentials with the stacked
      weights (m+1) m^k z^m, k = 0..3.
    * q < 1: {m} rises to {inf} = 1/(1 - q^2).  From the k(x) where
      x ({inf} - {m}) < 1e-17 on, e^(-x{m}) equals e^(-x{inf}) to double
      precision, so that tail is a precomputed weight sum times one
      exponential; the head is summed as for q > 1.
    * q = 1: closed forms in w = z e^(-x), from sum (m+1) w^m = (1 - w)^(-2).

    An array of abscissae is evaluated in one pass: the exponentials of all
    rows are taken over the widest head of the batch, each row is zeroed past
    its own k(x) (at q > 1 those terms are already 0.0), and one matrix
    product with the weights gives the sums.
    """

    def __init__(self, z, q, tol=SERIES_TOL, max_terms=MAX_TERMS):
        if not 0.0 < z < 1.0:
            raise DomainError(f"boson series requires 0 < z < 1, got z = {z!r}")
        self.z = z
        self.q = q
        # each doubling computes only the new half of the terms
        m = np.arange(64, dtype=float)
        zm = z ** m
        t3 = (m + 1.0) * m ** 3 * zm
        while not (t3[-1] == 0.0 or (t3[-1] < tol * t3.sum() and t3[-1] < t3[-2])):
            M = len(m)
            if M >= max_terms:
                raise ConvergenceError(
                    f"boson series not converged within {max_terms} terms "
                    f"(z = {z}, q = {q}, tol = {tol})")
            new = np.arange(M, min(2 * M, max_terms), dtype=float)
            zn = z ** new
            m = np.concatenate((m, new))
            zm = np.concatenate((zm, zn))
            t3 = np.concatenate((t3, (new + 1.0) * new ** 3 * zn))
        self._m = m
        if q == 1.0:
            return
        M = len(m)
        log_q2 = 2.0 * math.log(q)
        if q > 1.0:
            # q^2 - 1 overflows for q above sqrt(float max); every x > 0 then
            # keeps the whole (two-term) head
            self._cut_scale = (math.inf if log_q2 > LOG_MAX
                               else _EXP_ZERO * math.expm1(log_q2))
            self._cut_rate = 1.0 / log_q2
            # past K, q^(2m) > 1.8e308 and {m} = inf: the term is 0.0 at every x > 0
            K = int(LOG_MAX * self._cut_rate) + 2
        else:
            self._br_inf = -1.0 / math.expm1(log_q2)  # {m} as m -> inf
            self._cut_log = math.log(_SATURATED_INV * self._br_inf)
            self._cut_rate = -1.0 / log_q2
            # the head is longest at the largest x
            K = int((LOG_MAX + self._cut_log) * self._cut_rate) + 2
        K = self._k_max = min(K, M)
        self._br = np.asarray(q_bracket(m[:K], q))  # may end in inf for q > 1
        # Only the first K terms can be in a head.  Row k of W holds the
        # weights (m+1) m^k z^m; the tail sums T[n] = sum_{m >= n} W[:, m],
        # n <= K, are accumulated in extended precision, and T[0] serves x = 0.
        W = np.ones((4, M))
        for k in range(1, 4):
            np.multiply(W[k - 1], m, out=W[k])  # m^k, exact while m^3 < 2^53
        W *= (m + 1.0) * zm
        W[0, 0] = 0.0  # the m = 0 term is 1 in F0, so F0 - 1 leaves it out
        self._weights = W[:, :K].T.copy()
        rest = W[:, K:].sum(axis=1)
        self._tails = np.empty((K + 1, 4))
        self._tails[K] = rest
        head = np.cumsum(W[:, K - 1::-1], axis=1, dtype=np.longdouble)  # from m = K - 1 down
        self._tails[:K] = (rest[:, None] + head)[:, ::-1].T

    def cut(self, x):
        """Head length k(x) at x >= 0 and q != 1 (see the class docstring).

        Takes a scalar (returns an int) or an array.  At x = 0 no term
        vanishes: k(0) is K for q > 1 and 0 for q < 1, where every term is
        in the tail sum T[0].
        """
        xs = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            if self.q > 1.0:
                # 746 (q^2 - 1) / x may overflow to inf; the minimum then keeps K
                t = np.log1p(self._cut_scale / xs) * self._cut_rate
            else:
                t = np.maximum((np.log(xs) + self._cut_log) * self._cut_rate, -2.0)
        # min(int(min(t, K)) + 2, K) for t >= -2
        k = np.minimum(t, self._k_max - 2).astype(int) + 2
        return int(k) if k.ndim == 0 else k

    def excess_sums(self, x):
        """(F0 - 1, F1, F2, F3) at x >= 0; F0 - 1 omits the m = 0 term.

        A 1-D array of n abscissae gives an (n, 4) array; a scalar x goes
        through the same code and gives a tuple of four floats.
        """
        xs = _abscissae(x)
        if self.q == 1.0:
            w = self.z * np.exp(-xs)
            r = 1.0 / (1.0 - w)
            # F0 - 1 = (1 - w)^(-2) - 1, written without the cancellation at small w
            out = np.stack((w * (2.0 - w) * r * r, 2.0 * w * r ** 3,
                            2.0 * w * (1.0 + 2.0 * w) * r ** 4,
                            2.0 * w * (1.0 + w * (7.0 + 4.0 * w)) * r ** 5), axis=1)
        else:
            k = self.cut(xs)
            # row blocks keep the exponential matrix within _BLOCK elements
            rows = max(_BLOCK // max(int(k.max(initial=0)), 1), 1)
            out = np.empty((len(xs), 4))
            for lo in range(0, len(xs), rows):
                out[lo:lo + rows] = self._block_sums(xs[lo:lo + rows], k[lo:lo + rows])
        return tuple(out[0].tolist()) if np.ndim(x) == 0 else out

    def _block_sums(self, x, k):
        width = int(k.max())
        # x = 0 against {m} = inf is NaN at q > 1; those rows are replaced below
        with np.errstate(invalid="ignore"):
            e = np.exp(np.multiply.outer(-x, self._br[:width]))
        if self.q < 1.0:
            e[np.arange(width) >= k[:, None]] = 0.0
        sums = e @ self._weights[:width]
        if self.q < 1.0:
            sums += self._tails[k] * np.exp(-x * self._br_inf)[:, None]
        else:
            sums[x == 0.0] = self._tails[0]  # the whole series at x = 0
        return sums


def _abscissae(x):
    """x as a 1-D float array, checked to be >= 0."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if xs.ndim != 1 or not (xs >= 0.0).all():
        raise DomainError(f"x must be a scalar or 1-D array of values >= 0, got {x!r}")
    return xs


def boson_theta_sums(x, z, q, tol=SERIES_TOL, max_terms=MAX_TERMS):
    """Boson sums (F0, F1, F2, F3) with F_k = sum_m (m+1) m^k e^(-x{m}) z^m.

    F0 includes the m = 0 term, equal to 1.  Requires 0 < z < 1; raises
    ConvergenceError if the truncation rule is not met within max_terms.
    """
    s0, f1, f2, f3 = BosonThetaSeries(z, q, tol, max_terms).excess_sums(float(x))
    return 1.0 + s0, f1, f2, f3


def _fermion_excess_sums(z, q):
    """x -> (h - 1, F1, F2, F3) as an (n, 4) array, with h = 1 + u + v,
    u = 2 z e^(-x), v = z^2 e^(-(q^-2 + 1) x); the z-power m contributes m^k
    under theta.

    q ** -2 overflows below q = 1.34e-154, so q below 1e-150 is taken as
    1e-150: e^(-(q^-2 + 1) x) is then already 1 at x = 0 and exactly 0.0 at
    every x >= 7.5e-298.
    """
    rate = max(q, 1e-150) ** -2 + 1.0

    def excess_sums(x):
        xs = _abscissae(x)
        u = 2.0 * z * np.exp(-xs)
        v = z * z * np.exp(-rate * xs)
        return np.stack((u + v, u + 2.0 * v, u + 4.0 * v, u + 8.0 * v), axis=1)

    return excess_sums


def fermion_h_sums(x, z, q):
    """Fermion sums (F0, F1, F2, F3) from the closed three-term form of h.

    F0 = 1 + 2 e^(-x) z + e^(-(q^-2 + 1) x) z^2 and
    F_k = 2 e^(-x) z + 2^k e^(-(q^-2 + 1) x) z^2 for k >= 1.
    """
    s0, f1, f2, f3 = _fermion_excess_sums(z, q)(float(x))[0].tolist()
    return 1.0 + s0, f1, f2, f3


def _cumulants(sums):
    """(n, 4) excess sums (F0 - 1, F1, F2, F3) -> (n, 4) cumulants (L0..L3)."""
    excess0, f1, f2, f3 = sums.T
    f0 = 1.0 + excess0
    r1 = f1 / f0
    out = np.empty_like(sums)
    out[:, 0] = np.log1p(excess0)
    out[:, 1] = r1
    out[:, 2] = f2 / f0 - r1 * r1
    out[:, 3] = f3 / f0 - 3.0 * f1 * f2 / (f0 * f0) + 2.0 * r1 ** 3
    return out


def cumulant_kernel(spec, z, tol=SERIES_TOL):
    """Integrand of the moment integrals: 1-D array x -> (n, 4) array of (L0, L1, L2, L3).

    F is f for bosons and h for fermions, and
    L0 = ln F0, L1 = F1/F0, L2 = F2/F0 - (F1/F0)^2,
    L3 = F3/F0 - 3 F1 F2 / F0^2 + 2 (F1/F0)^3.
    Raises DomainError outside the physical domain and, for bosons,
    ConvergenceError as BosonThetaSeries does.
    """
    validate_domain(spec, ThermoPoint(z=z))
    if spec.statistics == BOSON:
        excess_sums = BosonThetaSeries(z, spec.q, tol).excess_sums
    else:
        excess_sums = _fermion_excess_sums(z, spec.q)

    def kernel(x):
        return _cumulants(excess_sums(np.atleast_1d(x)))

    return kernel


def log_moments(spec, x, z, tol=SERIES_TOL):
    """LogMoments of the integrand F (f for bosons, h for fermions) at (x, z)."""
    return LogMoments(*cumulant_kernel(spec, z, tol)(np.array([x], dtype=float))[0].tolist())
