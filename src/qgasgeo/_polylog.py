"""Polylogarithms Li_s(z) in double precision for 0 < z < 1, where the q = 1
boson moments are 2 Gamma(p) Li_(p+1-k)(z), k = 0..3, p = D/2.

* z <= DIRECT_MAX = 3/4: `excess_sums` sums the moments' own series
  directly, a and the excesses b - a, c - a, d - a without their n = 1
  terms, as the cluster expansion does at q = 1 with more orders.  Each sum
  is rounded once from its terms (`math.fsum`).
* z > DIRECT_MAX: `polylogs` gives (Li_(p+1), Li_p, Li_(p-1), Li_(p-2)).
  At D = 2 Li_2 comes from the reflection Li_2(z) = pi^2/6 - ln z ln(1 - z)
  - Li_2(1 - z), and Li_1, Li_0, Li_-1 are elementary.  At D = 3 every
  index is a half-integer s, and Robinson's expansion in mu = ln z,
  Li_s(e^mu) = Gamma(1 - s) (-mu)^(s - 1) + sum_k zeta(s - k) mu^k / k!,
  converges for |mu| < 2 pi; at |mu| <= ln(4/3) the terms past k = 11
  are below 2^-56 of the sum for each s.

The split sits at 3/4 because both closed forms cancel: the reflection and
the expansion add terms larger than the polylogarithm, and R cancels again
in its numerator.  Just above z = 1/2 the expansion left the D = 3 moments
up to 1.4e-15 off and R up to 1.8e-14.  With the split at 3/4, R was within
3.8e-15 of mpmath (the moments within 6.3e-16) at 500 sampled points from
the series boundary to the last float below 1.  The direct sums cost more
as z grows.  1 - z is exact for z >= 1/2, so ln(1 - z) and (-mu)^(s - 1)
keep every digit up to the last float below 1.  Imports nothing beyond
`math`.
"""

import math

__all__ = ["DIRECT_MAX", "TAIL", "ZETA_HALF_INTEGERS", "excess_sums", "polylogs"]

# largest z of the direct sums
DIRECT_MAX = 0.75
# relative size of the truncated tails, also of the series route in `quadrature`
TAIL = 2.0 ** -56
_PI2_6 = math.pi ** 2 / 6.0
# zeta(5/2 - j), j = 0..14: mpmath values at 40 digits, each rounded once
ZETA_HALF_INTEGERS = (
    1.341487257250917, 2.612375348685488, -1.4603545088095868, -0.20788622497735457,
    -0.025485201889833036, 0.008516928777850331, 0.004441011335479432,
    -0.0030916692472158338, -0.0026714580198992244, 0.0027467679395368687,
    0.00326903957260022, -0.00441603287300489, -0.006672172296466641,
    0.011146122473942813, 0.02039697871594279,
)
# Horner rows of Robinson's expansion for s = 5/2, 3/2, 1/2, -1/2:
# zeta(s - k) / k! for the four s, k from 11 down to 0
_ROBINSON_ROWS = tuple(
    tuple(ZETA_HALF_INTEGERS[i + k] / math.factorial(k) for i in range(4))
    for k in reversed(range(12)))
# Gamma(1 - s) for the four s
_ROBINSON_GAMMA = tuple(math.gamma(1.0 - s) for s in (2.5, 1.5, 0.5, -0.5))


def excess_sums(dimension, z):
    """(S0, S1, S2, S3) with S0 = Li_(p+1)(z) = sum_n n^(-p-1) z^n and
    Sk = sum_n (n^k - 1) n^(-p-1) z^n, k = 1..3, for p = dimension / 2 and
    0 < z <= DIRECT_MAX.

    The terms stop once the rest of S3, whose relative tail is the largest
    of the four, is below 2^-56 of it: past n each term of S3 is at most
    rho = z (1 + 1/n)^(2 - p) n^3 / (n^3 - 1) times the one before, so the
    rest is below rho / (1 - rho) times the last term.
    """
    p = dimension / 2.0
    # w_n = n^(-p-1) z^n from n = 2 on: the n = 1 term is z in S0 and 0 in
    # the excesses
    ws = []
    s3 = 0.0
    zn = z
    n = 1
    while True:
        n += 1
        zn *= z
        w = zn * n ** (-p - 1.0)
        ws.append(w)
        n3 = n * n * n
        last = (n3 - 1) * w
        s3 += last
        rho = z * (1.0 + 1.0 / n) ** (2.0 - p) * n3 / (n3 - 1)
        # <=: once z^n underflows, the terms and the bound are 0
        if rho < 1.0 and last * rho <= (1.0 - rho) * TAIL * s3:
            excesses = zip(*[((m - 1) * w, (m * m - 1) * w, (m * m * m - 1) * w)
                             for m, w in enumerate(ws, 2)])
            return (math.fsum([z, *ws]), *map(math.fsum, excesses))


def _li2_reflected(z):
    """Li_2(z) for 1/2 <= z < 1 from Li_2(1 - z), whose series terms
    w^n / n^2 (w = 1 - z <= 1/2) leave a rest below the last term summed."""
    w = 1.0 - z
    s = t = w
    n = 1
    while t >= TAIL * s:
        n += 1
        t = w ** n / (n * n)
        s += t
    return _PI2_6 - math.log(z) * math.log(w) - s


def polylogs(dimension, z):
    """(Li_(p+1), Li_p, Li_(p-1), Li_(p-2)) at z, p = dimension / 2, 1/2 <= z < 1."""
    if dimension == 2:
        w = 1.0 - z
        return _li2_reflected(z), -math.log(w), z / w, z / (w * w)
    mu = math.log(z)
    t = -mu
    l0 = l1 = l2 = l3 = 0.0
    for c0, c1, c2, c3 in _ROBINSON_ROWS:
        l0 = l0 * mu + c0
        l1 = l1 * mu + c1
        l2 = l2 * mu + c2
        l3 = l3 * mu + c3
    g0, g1, g2, g3 = _ROBINSON_GAMMA
    root = math.sqrt(t)
    return (l0 + g0 * t * root, l1 + g1 * root, l2 + g2 / root, l3 + g3 / (t * root))
