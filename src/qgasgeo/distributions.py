"""Grand-partition integrand functions and their logarithmic fugacity moments.

Per momentum cell the boson gas contributes f(x, z) = sum_m (m+1) e^(-x{m}) z^m
(a convergent series), the fermion gas the closed form
h(x, z) = 1 + 2 e^(-x) z + e^(-(q^-2 + 1) x) z^2.  All fugacity derivatives are
taken with theta = z d/dz = -d/dgamma, so the four moment integrands
L_k = theta^k ln F are positive cumulants of the occupation number:
L1 is a mean, L2 a variance, L3 a third cumulant.

`cumulant_kernel(spec, z)` is the one integrand evaluator: it returns a
function that maps abscissae x to an array of rows (L0, L1, L2, L3),
built from the excess sums (F0 - 1, F1, F2, F3) of `BosonThetaSeries`, which
never stores a series at its full length, or of the fermion closed form.
`cumulant_bound(spec, z, x)` bounds max_k |L_k(x)| in closed form, so that
the quadrature can certify its tail cut without a kernel call.
"""

import functools
import math

import numpy as np

from ._polylog import TAIL
from .core import (
    BOSON,
    FERMION,
    LOG_MAX,
    DomainError,
    GasSpec,
    q_bracket,
    validate_domain,
)

__all__ = [
    "CLUSTER_ORDER",
    "ConvergenceError",
    "cluster_coefficients",
    "cumulant_bound",
    "cumulant_kernel",
    "fermion_h_sums",
]

# Truncating when terms fall below SERIES_TOL times the full sum keeps the
# absolute series error near the rounding floor, which the quadrature
# tolerances (1e-12 absolute) require.  MAX_TERMS caps both the terms built
# and the exponentials of one row block of `BosonThetaSeries.excess_sums`.
SERIES_TOL = 1e-16
MAX_TERMS = 10 ** 6

# orders of z the cluster expansion sums; one more order estimates the rest
CLUSTER_ORDER = 10

# e^(-t) rounds to exactly 0.0 in double precision for t >= 746.
_EXP_ZERO = 746.0


class ConvergenceError(RuntimeError):
    """Boson series would need more than MAX_TERMS terms.  Raised only just
    off q = 1 (0.99962 < q < 1.00036, q != 1) near z = 1 (1 - z <= 3.8e-5),
    where the head length K exceeds MAX_TERMS and the x = 0 series has not
    converged within it."""


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

    Each abscissa evaluates only the head of the series that it needs:

    * q > 1: {m} grows like q^(2m), so from
      k(x) = floor(log1p(746 (q^2 - 1) / x) / (2 ln q)) + 2 on every term has
      x{m} >= 746 and e^(-x{m}) is exactly 0.0; only the first k(x) terms
      are summed, in one product of the k(x) exponentials with the stacked
      weights (m+1) m^k z^m, k = 0..3.
    * q < 1: {m} rises to {inf} = 1/(1 - q^2), and with the gaps
      g_m = {inf} - {m} the sums are
      F_k(x) = e^(-x{inf}) T_k + sum_m w_km e^(-x{m}) (-expm1(-x g_m)),
      with the weights w_km = (m+1) m^k z^m and T_k the full sums (x = 0).
      Every term is >= 0, so plain floats suffice.  From the k(x) where
      x g_m < 2^-56 (`_polylog.TAIL`) on, e^(x g_m) rounds to 1 and a term
      is below 2^-56 of its share of e^(-x{inf}) T_k, so only the first
      k(x) are summed.
    * q = 1: the closed forms of `_q1_sums` at w = z e^(-x); no term is built.

    K, the longest head of any abscissa, depends on q alone: past it
    q^(2m) overflows at q > 1, and it is k(x) at the largest float x at
    q < 1.  Where z is far from 1 a shorter count M suffices: from 64, M
    doubles while it is below K until the last term of the heaviest series
    (k = 3) at x = 0 is below SERIES_TOL times the full sum (the q = 1
    closed form at w = z) and the term ratio has fallen below 1.  Every
    x > 0 only damps the terms, so M bounds the series at every abscissa.
    Only the first min(K, M) terms are built; `_m` is their range, empty
    at q = 1.  M stops at MAX_TERMS, which only a K above it reaches
    (0.99962 < q < 1.00036): ConvergenceError then guards the memory.

    `excess_sums` takes a scalar or a 1-D array of n abscissae and always
    returns an (n, 4) array; a scalar is one row.  The array is evaluated
    in row blocks of at most MAX_TERMS exponentials, each in one pass: the
    terms of all its rows are taken over the block's widest head, `cut`
    (past a row's own k(x) they are 0.0 at q > 1 and below 2^-56 of the
    sum at q < 1), and one matrix product with the weights gives the sums.
    """

    def __init__(self, z, q):
        # the dimension does not enter the series
        self.z = z = validate_domain(GasSpec(BOSON, q, 2), z)
        self.q = q
        totals = _q1_sums(z)
        self._totals = np.array(totals)
        if q == 1.0:
            self._m = range(0)  # the closed forms read no terms
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
            self._cut_log = math.log(self._br_inf / TAIL)
            self._cut_rate = -1.0 / log_q2
            # the head is longest at the largest x
            K = int((LOG_MAX + self._cut_log) * self._cut_rate) + 2

        def term3(m):
            return (m + 1.0) * m ** 3 * z ** m

        M = 64
        while M < K:
            last = term3(M - 1.0)
            if last == 0.0 or (last < SERIES_TOL * totals[3] and last < term3(M - 2.0)):
                break
            if M >= MAX_TERMS:
                raise ConvergenceError(
                    f"boson series not converged within {MAX_TERMS} terms (z = {z}, q = {q})")
            M = min(2 * M, MAX_TERMS)
        K = min(K, M)
        self._m = range(K)
        m = np.arange(K, dtype=float)
        self._br = np.asarray(q_bracket(m, q))  # may end in inf for q > 1
        # row k of W holds the weights (m+1) m^k z^m
        W = np.ones((4, K))
        for k in range(1, 4):
            np.multiply(W[k - 1], m, out=W[k])  # m^k; m^3 is rounded past m = 208,063
        W *= (m + 1.0) * z ** m
        W[0, 0] = 0.0  # the m = 0 term is 1 in F0, so F0 - 1 leaves it out
        self._weights = W.T.copy()
        if q < 1.0:
            # from the float brackets the exponentials use; {inf} q^(2m) is less accurate
            self._gap = self._br_inf - self._br

    def cut(self, x):
        """Head length of a block of abscissae, an int, for a float array
        x >= 0 at q != 1: the longest k(x) of the block (see the class
        docstring).  k(x) falls with x at q > 1 and rises at q < 1, so it is
        k at the smallest abscissa for q > 1 and at the largest for q < 1.
        At x = 0 no term vanishes: k(0) is len(_m) for q > 1 and 0 for
        q < 1, where the sums are the totals T.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.q > 1.0:
                # 746 (q^2 - 1) / x is inf at x = 0 or on overflow, and NaN
                # for an empty block above q = 1.34e154 (inf / inf)
                t = np.log1p(self._cut_scale / x.min(initial=math.inf)) * self._cut_rate
            else:
                t = max((np.log(x.max(initial=0.0)) + self._cut_log) * self._cut_rate, -2.0)
        # min(int(t) + 2, len(_m)) for t >= -2; an inf or NaN t keeps len(_m)
        return int(min(len(self._m) - 2, t)) + 2

    def excess_sums(self, x):
        """(F0 - 1, F1, F2, F3) at x >= 0 as an (n, 4) array, one row per
        abscissa of the scalar or 1-D array x; F0 - 1 omits the m = 0 term."""
        xs = _abscissae(x)
        if self.q == 1.0:
            return np.stack(_q1_sums(self.z * np.exp(-xs)), axis=1)
        # row blocks keep the exponential matrix within MAX_TERMS elements
        rows = MAX_TERMS // max(self.cut(xs), 1)
        out = np.empty((len(xs), 4))
        for lo in range(0, len(xs), rows):
            out[lo:lo + rows] = self._block_sums(xs[lo:lo + rows])
        return out

    def _block_sums(self, x):
        width = self.cut(x)
        # x = 0 against {m} = inf is NaN at q > 1; those rows are replaced below.
        # Past the head of a large x, x {m} overflows to inf, and e^(-inf) = 0.
        with np.errstate(invalid="ignore", over="ignore"):
            e = np.exp(np.multiply.outer(-x, self._br[:width]))
        if self.q < 1.0:
            # the terms e^(-x{m}) (-expm1(-x g_m)) are formed negated, in
            # place, and subtracted: fewer temporary matrices
            g = np.multiply.outer(-x, self._gap[:width])
            e *= np.expm1(g, out=g)
            return (np.multiply.outer(np.exp(-x * self._br_inf), self._totals)
                    - e @ self._weights[:width])
        sums = e @ self._weights[:width]
        sums[x == 0.0] = self._totals  # the whole series at x = 0
        return sums


def _abscissae(x):
    """x as a 1-D float array, checked to be finite and >= 0."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if xs.ndim != 1 or not ((xs >= 0.0) & (xs < math.inf)).all():
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
        return np.stack(_fermion_sums(z, rate, _abscissae(x), np.exp), axis=1)

    return excess_sums


def _fermion_sums(z, rate, x, exp):
    """(u + v, u + 2 v, u + 4 v, u + 8 v) with u = 2 z e^(-x) and
    v = z^2 e^(-rate x): the fermion excess sums at a float x with
    exp = math.exp or at an array x with exp = np.exp."""
    u = 2.0 * z * exp(-x)
    v = z * z * exp(-rate * x)
    return u + v, u + 2.0 * v, u + 4.0 * v, u + 8.0 * v


def fermion_h_sums(x, z, q):
    """Fermion sums (F0, F1, F2, F3) from the closed three-term form of h.

    F0 = 1 + 2 e^(-x) z + e^(-(q^-2 + 1) x) z^2 and
    F_k = 2 e^(-x) z + 2^k e^(-(q^-2 + 1) x) z^2 for k >= 1, at one scalar
    x >= 0.  Raises DomainError for z and q outside the fermion domain, as
    `cumulant_kernel` does, and for an x that is not a scalar >= 0.
    """
    # the dimension does not enter h
    z = validate_domain(GasSpec(FERMION, q, 2), z)
    if np.ndim(x) != 0:
        raise DomainError(f"x must be a scalar >= 0, got {x!r}")
    s0, f1, f2, f3 = _fermion_excess_sums(z, q)(x)[0].tolist()
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
    """The one public integrand of the moment integrals: x -> (n, 4) array
    of (L0, L1, L2, L3), one row per abscissa of the scalar or 1-D array x.

    F is f for bosons and h for fermions, and
    L0 = ln F0, L1 = F1/F0, L2 = F2/F0 - (F1/F0)^2,
    L3 = F3/F0 - 3 (F1/F0) (F2/F0) + 2 (F1/F0)^3.
    Raises DomainError outside the physical domain (and the kernel for an
    x not finite and >= 0) and, for bosons, ConvergenceError as
    BosonThetaSeries does.
    """
    z = validate_domain(spec, z)
    if spec.statistics == BOSON:
        excess_sums = BosonThetaSeries(z, spec.q).excess_sums
    else:
        excess_sums = _fermion_excess_sums(z, spec.q)

    def kernel(x):
        return _cumulants(excess_sums(x))

    return kernel


def cumulant_bound(spec, z, x):
    """An upper bound on max_k |L_k(x)| at one float x >= 0 for z in spec's
    domain, or inf where a bound E_k on the excess sums (F0 - 1, F1, F2, F3)
    that the kernel forms is not below 1.  For every x >= 0:

    * boson, q >= 1: {m} >= m, so E_k(x) <= S_k(z e^(-x)), the q = 1 sums
      of `_q1_sums`;
    * boson, q < 1: {1} = 1 and {m} >= 1 + q^2 for m >= 2, so
      E_k(x) <= e^(-x) (2 z + e^(-q^2 x) (S_k(z) - 2 z));
    * fermion: E_k = 2 z e^(-x) + 2^k z^2 e^(-(q^-2 + 1) x), exactly.

    As F0 >= 1, |L0| <= E0, |L1| <= E1, 0 <= L2 <= E2 and
    |L3| <= E3 + 3 E1 E2 + 2 E1^3; below 1 the cube cannot overflow.
    """
    if spec.statistics == FERMION:
        sums = _fermion_sums(z, _inverse_square(spec.q) + 1.0, x, math.exp)
    elif spec.q >= 1.0:
        sums = _q1_sums(z * math.exp(-x))
    else:
        head = 2.0 * z * math.exp(-x)
        rest = math.exp(-(1.0 + spec.q * spec.q) * x)
        sums = [head + rest * (total - 2.0 * z) for total in _q1_sums(z)]
    e0, e1, e2, e3 = sums
    if not max(sums) < 1.0:
        return math.inf
    return max(e0, e1, e2, e3 + 3.0 * e1 * e2 + 2.0 * e1 ** 3)
