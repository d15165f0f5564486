"""Grand-partition integrand functions and their logarithmic fugacity moments.

Per momentum cell the boson gas contributes f(x, z) = sum_m (m+1) e^(-x{m}) z^m
(a convergent series), the fermion gas the closed form
h(x, z) = 1 + 2 e^(-x) z + e^(-(q^-2 + 1) x) z^2.  All fugacity derivatives are
taken with theta = z d/dz = -d/dgamma, so the four moment integrands
L_k = theta^k ln F are positive cumulants of the occupation number:
L1 is a mean, L2 a variance, L3 a third cumulant.

`cumulant_kernel(spec, z)` is the one integrand evaluator: it returns a
function that maps an array of abscissae x to the rows (L0, L1, L2, L3),
built from the excess sums (F0 - 1, F1, F2, F3) of `BosonThetaSeries`, which
never stores a series at its full length, or of the fermion closed form.
"""

import functools
import math

import numpy as np

from .core import BOSON, LOG_MAX, DomainError, q_bracket, validate_domain

__all__ = [
    "CLUSTER_ORDER",
    "ConvergenceError",
    "cluster_coefficients",
    "cumulant_kernel",
    "fermion_h_sums",
]

# Truncating when terms fall below SERIES_TOL times the full sum keeps the
# absolute series error near the rounding floor, which the quadrature
# tolerances (1e-12 absolute) require.
SERIES_TOL = 1e-16
MAX_TERMS = 10 ** 6

# orders of z the cluster expansion sums; one more order estimates the rest
CLUSTER_ORDER = 10

# e^(-t) rounds to exactly 0.0 in double precision for t >= 746.
_EXP_ZERO = 746.0
# e^t rounds to exactly 1.0 for 0 <= t < 1e-17 (half an ulp of 1 is 1.1e-16).
_SATURATED_INV = 1e17
# An array of abscissae is evaluated in row blocks whose exponential matrix
# holds at most this many elements (a batch near q = 1 can need 8,192 columns).
_BLOCK = 2 ** 20


class ConvergenceError(RuntimeError):
    """Boson series failed to satisfy the truncation rule within MAX_TERMS."""


def _q1_sums(w):
    """(F0 - 1, F1, F2, F3) at q = 1 from sum_m (m+1) w^m = (1 - w)^(-2), for
    a float w (z: the full sums at x = 0) or an array (z e^(-x))."""
    r = 1.0 / (1.0 - w)
    # F0 - 1 = (1 - w)^(-2) - 1, written without the cancellation at small w
    return (w * (2.0 - w) * r * r, 2.0 * w * r ** 3,
            2.0 * w * (1.0 + 2.0 * w) * r ** 4,
            2.0 * w * (1.0 + w * (7.0 + 4.0 * w)) * r ** 5)


class BosonThetaSeries:
    """Reusable evaluator for F_k(x) = sum_m (m+1) m^k e^(-x{m}) z^m, k = 0..3.

    The term count M is fixed once per (z, q) from the x = 0 worst case of
    the heaviest series (k = 3): M doubles from 64 until the last term is
    below SERIES_TOL times the full sum (the q = 1 closed form at w = z) and
    the term ratio has fallen below 1.  Every x > 0 only damps the terms, so
    M bounds the series at every abscissa.  Each abscissa then evaluates
    only what it needs:

    * q > 1: {m} grows like q^(2m), so from
      k(x) = floor(log1p(746 (q^2 - 1) / x) / (2 ln q)) + 2 on every term has
      x{m} >= 746 and e^(-x{m}) is exactly 0.0; only the first k(x) terms
      are summed, in one product of the k(x) exponentials with the stacked
      weights (m+1) m^k z^m, k = 0..3.
    * q < 1: {m} rises to {inf} = 1/(1 - q^2).  From the k(x) where
      x ({inf} - {m}) < 1e-17 on, e^(-x{m}) equals e^(-x{inf}) to double
      precision, so that tail is a precomputed weight sum T[k] times one
      exponential; the head is summed as for q > 1.  Only q < 1 builds the
      table T (in extended precision); q > 1 keeps T[0], the full sums,
      for x = 0.  T relies on an 80-bit np.longdouble: where np.longdouble
      is float64 (Windows, macOS on arm64), the worst R error of the
      perfbench edge lattice rises from 2.4e-13 to 1.5e-12, still inside
      the quadrature's REL_TOL.
    * q = 1: the closed forms of `_q1_sums` at w = z e^(-x).

    No head is longer than K, so only the first min(K, M) terms are built.
    An array of abscissae is evaluated in one pass: the exponentials of all
    rows are taken over the widest head of the batch, each row is zeroed past
    its own k(x) (at q > 1 those terms are already 0.0), and one matrix
    product with the weights gives the sums.
    """

    def __init__(self, z, q):
        if not 0.0 < z < 1.0:
            raise DomainError(f"boson series requires 0 < z < 1, got z = {z!r}")
        self.z = z
        self.q = q
        totals = _q1_sums(z)

        def term3(m):
            return (m + 1.0) * m ** 3 * z ** m

        M = 64
        while True:
            last = term3(M - 1.0)
            if last == 0.0 or (last < SERIES_TOL * totals[3] and last < term3(M - 2.0)):
                break
            if M >= MAX_TERMS:
                raise ConvergenceError(
                    f"boson series not converged within {MAX_TERMS} terms (z = {z}, q = {q})")
            M = min(2 * M, MAX_TERMS)
        self._m = range(M)
        if q == 1.0:
            return
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
        m = np.arange(K, dtype=float)
        self._br = np.asarray(q_bracket(m, q))  # may end in inf for q > 1
        # row k of W holds the weights (m+1) m^k z^m
        W = np.ones((4, K))
        for k in range(1, 4):
            np.multiply(W[k - 1], m, out=W[k])  # m^k, exact while m^3 < 2^53
        W *= (m + 1.0) * z ** m
        W[0, 0] = 0.0  # the m = 0 term is 1 in F0, so F0 - 1 leaves it out
        self._weights = W.T.copy()
        # T[0], the totals, serves x = 0.  Only q < 1 reads the tails
        # T[n] = total - sum_(m < n) W[:, m], formed in extended precision; their
        # error, ulps of the total, is ulps of a sum >= total e^(-x{inf})
        if q > 1.0:
            self._tails = np.array([totals])
            return
        self._tails = np.empty((K + 1, 4))
        self._tails[0] = totals
        self._tails[1:] = (np.array(totals, dtype=np.longdouble)
                           - np.cumsum(W, axis=1, dtype=np.longdouble).T)

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
            out = np.stack(_q1_sums(self.z * np.exp(-xs)), axis=1)
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
        # x = 0 against {m} = inf is NaN at q > 1; those rows are replaced below.
        # Past the head of a large x, x {m} overflows to inf, and e^(-inf) = 0.
        with np.errstate(invalid="ignore", over="ignore"):
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


def _fermion_excess_sums(z, q):
    """x -> (h - 1, F1, F2, F3) as an (n, 4) array, with h = 1 + u + v,
    u = 2 z e^(-x), v = z^2 e^(-(q^-2 + 1) x); the z-power m contributes m^k
    under theta.

    q ** -2 overflows below q = 1.34e-154, so q below 1e-150 is taken as
    1e-150: e^(-(q^-2 + 1) x) is then already 1 at x = 0 and exactly 0.0 at
    every x >= 7.5e-298.
    """
    rate = _inverse_square(q) + 1.0

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


def _inverse_square(q):
    """q^-2, with q below 1e-150 taken as 1e-150 (see `_fermion_excess_sums`)."""
    return max(float(q), 1e-150) ** -2


def _partitions(n, largest):
    """Partitions of n into parts <= largest, each a non-increasing tuple."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


@functools.cache
def _cluster_table(statistics):
    """Partitions of n = 1..CLUSTER_ORDER + 1 in order of n, with their weights.

    Returns (parts, weights, starts, sizes, twos): row i of parts lists the
    parts of partition P_i, padded with 0; weights[i] is
    c_P = (-1)^(k-1) (k-1)! / prod m_j! * prod f_p over its k parts (m_j of
    part j), f_p = p + 1 for bosons and f_1 = 2, f_2 = 1 for fermions, whose
    F has the parts 1 and 2 only; starts[n - 1] is the first row of order n;
    sizes[i] is k and twos[i] the share of its parts that are 2s.
    """
    boson = statistics == BOSON
    weight = (lambda part: part + 1.0) if boson else {1: 2.0, 2: 1.0}.get
    rows, weights, starts = [], [], []
    for n in range(1, CLUSTER_ORDER + 2):
        starts.append(len(rows))
        for parts in _partitions(n, n if boson else 2):
            k = len(parts)
            c = (-1.0) ** (k - 1) * math.factorial(k - 1) / math.prod(
                math.factorial(parts.count(j)) for j in set(parts))
            rows.append(parts + (0,) * (CLUSTER_ORDER + 1 - k))
            weights.append(c * math.prod(weight(part) for part in parts))
    parts = np.array(rows)
    sizes = np.count_nonzero(parts, axis=1).astype(float)
    return parts, np.array(weights), np.array(starts), sizes, (parts == 2).sum(axis=1) / sizes


def cluster_coefficients(spec):
    """A_n = int_0^inf x^nu [z^n] ln F dx for n = 1..CLUSTER_ORDER + 1.

    ln F = sum_n z^n sum_(P |- n) c_P e^(-x Lambda_P), where Lambda_P sums
    the rate of each part of P: the q-bracket {p} for bosons, 1 and q^-2 + 1
    for the fermion parts 1 and 2.  Each exponential integrates in closed
    form, so A_n = Gamma(D/2) sum_P c_P Lambda_P^(-D/2), and the moments are
    a, b, c, d = sum_n n^k A_n z^n.

    A_n depend on the gas alone, not on z.  Each call computes them afresh
    and returns a new array that the caller owns; the series route keeps
    them per gas in `quadrature._series_weights`.
    """
    parts, weights, starts, sizes, twos = _cluster_table(spec.statistics)
    p = spec.p
    if spec.statistics == BOSON:
        # {0} = 0 pads the rows; {m} = inf past q^(2m) overflow gives inf ** -p = 0
        rates = np.asarray(q_bracket(np.arange(CLUSTER_ORDER + 2), spec.q))
        sums = np.add.reduceat(weights * rates[parts].sum(axis=1) ** -p, starts)
    else:
        # Lambda_P = k (1 + s q^-2) for k parts, a share s of them 2s.  Summing
        # c_P Lambda_P^-p as c_P k^-p (1 + expm1(-p log1p(s q^-2))) keeps
        # A_2 = -1 + 1 / (1 + q^-2) of D = 2 exact to rounding as q -> inf,
        # where the k^-p terms cancel exactly
        base = weights * sizes ** -p
        change = np.expm1(-p * np.log1p(twos * _inverse_square(spec.q)))
        sums = np.add.reduceat(base, starts) + np.add.reduceat(base * change, starts)
    return math.gamma(p) * sums


def _cumulants(sums):
    """(n, 4) excess sums (F0 - 1, F1, F2, F3) -> (n, 4) cumulants (L0..L3)."""
    excess0, f1, f2, f3 = sums.T
    f0 = 1.0 + excess0
    r1 = f1 / f0
    out = np.empty_like(sums)
    out[:, 0] = np.log1p(excess0)
    out[:, 1] = r1
    out[:, 2] = f2 / f0 - r1 * r1
    # F1 F2 / F0^2 as r1 (F2 / F0): F0^2 overflows for fermions once z passes 1e77
    out[:, 3] = f3 / f0 - 3.0 * r1 * (f2 / f0) + 2.0 * r1 ** 3
    return out


def cumulant_kernel(spec, z):
    """Integrand of the moment integrals: 1-D array x -> (n, 4) array of (L0, L1, L2, L3).

    F is f for bosons and h for fermions, and
    L0 = ln F0, L1 = F1/F0, L2 = F2/F0 - (F1/F0)^2,
    L3 = F3/F0 - 3 (F1/F0) (F2/F0) + 2 (F1/F0)^3.
    Raises DomainError outside the physical domain and, for bosons,
    ConvergenceError as BosonThetaSeries does.
    """
    z = validate_domain(spec, z)
    if spec.statistics == BOSON:
        excess_sums = BosonThetaSeries(z, spec.q).excess_sums
    else:
        excess_sums = _fermion_excess_sums(z, spec.q)

    def kernel(x):
        return _cumulants(excess_sums(np.atleast_1d(x)))

    return kernel
