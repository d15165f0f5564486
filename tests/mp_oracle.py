"""Independent high-precision oracle for the reduced curvature R(z, q, D).

Nothing here imports qgasgeo: the tests check the library against these
values, so they come from a separate evaluation of the documented model.

Model.  Per momentum cell the boson gas contributes the raw series
F(x) = sum_m (m+1) z^m e^(-x{m}) with {m} = (1 - q^(2m)) / (1 - q^2), the
fermion gas the closed form F(x) = 1 + 2 z e^(-x) + z^2 e^(-(q^-2 + 1) x).
With theta = z d/dz the cumulants are L_k = theta^k ln F, and the moments are
(a, b, c, d) = int_0^inf x^nu L_k(x) dx, k = 0..3, nu = (D - 2) / 2.  R in
the paper normalisation is 2 N / (2ac - b^2)^2 for D = 2 and
5 sqrt(pi) N / (5ac - 3b^2)^2 for D = 3, with N = b^2 c + a b d - 2 a c^2.

Integration.  Under x = e^(-s) a moment is int e^(-s D/2) L_k(e^(-s)) ds over
the real line.  The integrand is analytic in a strip around the real s axis
and decays doubly exponentially as s -> -inf and like e^(-s D/2) as
s -> +inf, so the trapezoid rule converges exponentially in 1/h.  Each level
sums outward from s = 0 until three nodes in a row fall below
10^-(DIGITS + 3) of the running sum.

Error check.  The trapezoid error falls like exp(-c/h), so halving h roughly
squares it.  The step starts at h = 1/4 and is halved until two levels agree
to 10^-(DIGITS/2 + 1) in all four moments, and the finer level is returned.
Its error is then near 10^-(DIGITS + 2).  At q = 1 this is checked against
`polylog_moments`, where the moments are known in closed form.  The boson
series is cut per abscissa once a geometric bound on the rest is below
2^-(working precision) of every partial sum (see `boson_sums`).

Arithmetic.  The boson series is summed in fixed point: Python integers
scaled by 2^prec, GUARD_BITS bits beyond the working precision, which is how
mpmath represents numbers internally.  In mpmath's pure-Python backend one
mpf operation costs about 2 us.  At q = 1, z = 0.97 the series takes about
1.3 million terms, so integers are roughly 20 times faster there.  The
exponentials, logarithms, cumulants, N and the denominators are evaluated
with mpmath at DIGITS + 8 significant digits.  For q < 1 the exponential
does not cut the series, so near z -> 1 a point costs seconds or more.

Large fermion fugacity.  Past z ~ 1e10 the trapezoid rule needs a step
below 1/64, where `moments` gives up; `fermion_moments_split` integrates the
fermion closed form with mpmath.quad on intervals cut at the steps of ln F.

Regenerate the committed criterion 06 table with
``PYTHONPATH=tests python -m mp_oracle criterion06``.
"""

import json
import os
import sys

import mpmath
import numpy as np
from mpmath import mp, mpf

BOSON = "boson"
FERMION = "fermion"

DIGITS = 22
# fixed-point bits kept beyond the working precision in the boson series
GUARD_BITS = 64

CRITERION06_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "criterion06_oracle.json")
CRITERION06 = {"statistics": BOSON, "dimension": 2, "q": 1.15,
               "z_lo": 0.05, "z_hi": 0.97, "points": 60}


def _to_fixed(v, prec):
    return int(mpmath.ldexp(v, prec))


def _from_fixed(n, prec):
    return mpmath.ldexp(mpf(n), -prec)


def boson_sums(x, z, q2, prec):
    """(F0 - 1, F1, F2, F3) at abscissa x, F_k = sum_m (m+1) m^k z^m e^(-x{m}).

    g_m = z^m e^(-x{m}) follows g_(m+1) = g_m z e^(-x q^(2m)), since
    {m+1} - {m} = q^(2m).  {m} increases with m for every q > 0, so
    e^(-x{m}) never grows and the later terms of F_k are bounded by a
    geometric series of ratio r = z (m+2)/(m+1) ((m+1)/m)^3.  The sum stops
    once that bound, t_k r / (1 - r), is below 2^-(prec - GUARD_BITS) of F_k.
    Checking k = 3 suffices: F_(k+1) <= m F_k over the first m terms, so
    t_k / F_k is largest at k = 3.
    """
    one = 1 << prec
    cut = prec - GUARD_BITS
    zf = _to_fixed(z, prec)
    d = x                                   # x q^(2m)
    step = zf * _to_fixed(mpmath.exp(-d), prec) >> prec
    g = one
    s0 = s1 = s2 = s3 = 0
    m = 0
    while True:
        t0 = g * (m + 1)
        t1 = t0 * m
        t2 = t1 * m
        t3 = t2 * m
        s0 += t0
        s1 += t1
        s2 += t2
        s3 += t3
        if m:
            num = zf * (m + 2) * (m + 1) ** 2          # r = num / den
            den = one * m ** 3
            if g == 0 or (num < den and t3 * num << cut < (den - num) * s3):
                break
        g = g * step >> prec
        m += 1
        if q2 != 1:
            d *= q2
            step = zf * _to_fixed(mpmath.exp(-d), prec) >> prec
    # drop the m = 0 term, 1, from F0
    return [_from_fixed(s, prec) for s in (s0 - one, s1, s2, s3)]


def polylog_moments(statistics, dimension, z):
    """(a, b, c, d) at q = 1 as mpf, from polylogarithms.

    At q = 1 the boson F is (1 - z e^(-x))^(-2) and the fermion F is
    (1 + z e^(-x))^2, so a = 2 Gamma(nu+1) Li_(nu+2)(z) for bosons and
    -2 Gamma(nu+1) Li_(nu+2)(-z) for fermions, and each theta lowers the
    index by one.  Past z = 1 mpmath may return Li_s(-z) with a round-off
    imaginary part, so the real part is taken.
    """
    with mp.workdps(DIGITS + 8):
        nu = mpf(dimension - 2) / 2
        sign, arg = (1, mpf(z)) if statistics == BOSON else (-1, -mpf(z))
        return [sign * 2 * mpmath.gamma(nu + 1) * mpmath.re(mpmath.polylog(nu + 2 - k, arg))
                for k in range(4)]


def _fermion_sums(x, z, q2):
    """(F0 - 1, F1, F2, F3) of the closed form: theta^k brings down m^k on z^m."""
    u = 2 * z * mpmath.exp(-x)
    v = z * z * mpmath.exp(-(1 / q2 + 1) * x)
    return [u + v, u + 2 * v, u + 4 * v, u + 8 * v]


def _cumulants(excess, f1, f2, f3):
    f0 = 1 + excess
    r1 = f1 / f0
    return [mpmath.log1p(excess), r1, f2 / f0 - r1 * r1,
            f3 / f0 - 3 * r1 * f2 / f0 + 2 * r1 ** 3]


def moments(statistics, dimension, q, z):
    """(a, b, c, d) as mpf, accurate to about DIGITS significant digits."""
    if statistics not in (BOSON, FERMION) or dimension not in (2, 3):
        raise ValueError(f"unknown gas {statistics!r}, D = {dimension!r}")
    if not (0 < z < 1 or (statistics == FERMION and z > 0)):
        raise ValueError(f"fugacity z = {z!r} outside the {statistics} domain")
    with mp.workdps(DIGITS + 8):
        z, q2, p = mpf(z), mpf(q) ** 2, mpf(dimension) / 2
        prec = mp.prec + GUARD_BITS
        quiet_tol = mpf(10) ** -(DIGITS + 3)
        cache = {}

        def node(s):
            # s is a multiple of 1/2^n, so it is exact as a float and a key
            if s not in cache:
                x = mpmath.exp(-mpf(s))
                sums = (boson_sums(x, z, q2, prec) if statistics == BOSON
                        else _fermion_sums(x, z, q2))
                w = mpmath.exp(-p * s)
                cache[s] = [w * L for L in _cumulants(*sums)]
            return cache[s]

        def level(h):
            total = list(node(0.0))
            for direction in (1, -1):
                j, quiet = direction, 0
                while quiet < 3:
                    v = node(j * h)
                    total = [t + u for t, u in zip(total, v)]
                    small = all(abs(u) < quiet_tol * abs(t) for t, u in zip(total, v))
                    quiet = quiet + 1 if small else 0
                    j += direction
            return [h * t for t in total]

        agree_tol = mpf(10) ** -(DIGITS // 2 + 1)
        h = 0.25
        prev = level(h)
        while True:
            h /= 2
            cur = level(h)
            if all(abs(c - pv) <= agree_tol * abs(c) for c, pv in zip(cur, prev)):
                return cur
            if h < 1 / 64:
                raise ArithmeticError(
                    f"trapezoid rule not converged for {statistics} D={dimension} "
                    f"q={q} z={z} at h = {h}")
            prev = cur


def fermion_moments_split(dimension, q, z):
    """Fermion (a, b, c, d) as mpf by mpmath.quad in x, for any z > 0.

    At large z the trapezoid rule of `moments` does not converge by
    h = 1/64: ln F steps over a width of order 1 in x at x ~ ln z, which is
    a width of order 1/ln z in s = -ln x.  Here the tanh-sinh rule runs on
    intervals cut at each x where two terms of F = 1 + u + v meet
    (u = 2 z e^(-x), v = z^2 e^(-(q^-2 + 1) x)), and at 1, 4, 12 and 40
    on either side of it.
    """
    if dimension not in (2, 3) or not z > 0:
        raise ValueError(f"fermion D = {dimension!r}, z = {z!r} outside the domain")
    with mp.workdps(DIGITS + 8):
        z, q2, nu = mpf(z), mpf(q) ** 2, mpf(dimension - 2) / 2
        rate = 1 / q2 + 1
        # u = 1, v = 1 and u = v
        meets = [mpmath.log(2 * z), 2 * mpmath.log(z) / rate, mpmath.log(z / 2) * q2]
        cuts = {mpf(0)} | {x + off for x in meets for off in (-40, -12, -4, -1, 0, 1, 4, 12, 40)
                           if x + off > 0}
        cuts = sorted(cuts) + [mpmath.inf]

        def integrand(k):
            return lambda x: x ** nu * _cumulants(*_fermion_sums(x, z, q2))[k]

        return [mpmath.quad(integrand(k), cuts) for k in range(4)]


def curvature(statistics, dimension, q, z):
    """Reduced curvature R in the paper normalisation (twice the raw one), as an mpf."""
    with mp.workdps(DIGITS + 8):
        return curvature_from_moments(dimension, *moments(statistics, dimension, q, z))


def curvature_from_moments(dimension, a, b, c, d):
    """R (paper normalisation) from the moments, at the current mpmath precision."""
    n = b * b * c + a * b * d - 2 * a * c * c
    if dimension == 3:
        return 5 * mpmath.sqrt(mpmath.pi) * n / (5 * a * c - 3 * b * b) ** 2
    return 2 * n / (2 * a * c - b * b) ** 2


def criterion06_grid():
    """The fugacities of criterion 06: numpy.linspace(0.05, 0.97, 60)."""
    return [float(z) for z in np.linspace(
        CRITERION06["z_lo"], CRITERION06["z_hi"], CRITERION06["points"])]


def sign_changes(values):
    """Indices i with values[i] and values[i + 1] of opposite sign."""
    return [i for i in range(len(values) - 1) if (values[i] > 0) != (values[i + 1] > 0)]


def crossing(statistics, dimension, q, z_lo, z_hi):
    """z in (z_lo, z_hi) where R changes sign, by Illinois regula falsi on the oracle."""
    def r(z):
        return curvature(statistics, dimension, q, z)

    with mp.workdps(DIGITS + 8):
        a, b = mpf(z_lo), mpf(z_hi)
        ra, rb = r(a), r(b)
        if ra * rb > 0:
            raise ValueError(f"R has the same sign at z = {z_lo} and z = {z_hi}")
        side = 0
        while b - a > 1e-12:
            c = (a * rb - b * ra) / (rb - ra)
            rc = r(c)
            if rc == 0:
                return c
            if rc * rb > 0:
                b, rb = c, rc
                if side == -1:
                    ra /= 2
                side = -1
            else:
                a, ra = c, rc
                if side == 1:
                    rb /= 2
                side = 1
        return (a + b) / 2


def build_criterion06():
    """The criterion 06 table: R at every grid point, its sign changes and their roots."""
    spec = (CRITERION06["statistics"], CRITERION06["dimension"], CRITERION06["q"])
    zs = criterion06_grid()
    rs = [curvature(*spec, z) for z in zs]
    changes = sign_changes(rs)
    roots = [crossing(*spec, zs[i], zs[i + 1]) for i in changes]
    return dict(
        CRITERION06,
        about=("Oracle R (paper normalisation) on the criterion 06 grid, written by "
               "`PYTHONPATH=tests python -m mp_oracle criterion06` from the repository "
               f"root; R to about {DIGITS} digits, crossings to 1e-12 in z."),
        digits=DIGITS,
        z=zs,
        R=[mpmath.nstr(v, DIGITS) for v in rs],
        signs="".join("+" if v > 0 else "-" for v in rs),
        crossings=[{"index": i, "z": mpmath.nstr(root, 16)} for i, root in zip(changes, roots)],
    )


def load_criterion06():
    """The committed table, with R parsed as mpf at the oracle's working precision."""
    with open(CRITERION06_PATH) as fh:
        table = json.load(fh)
    with mp.workdps(table["digits"] + 8):
        table["R"] = [mpf(r) for r in table["R"]]
    return table


if __name__ == "__main__":
    if sys.argv[1:] != ["criterion06"]:
        sys.exit("usage: PYTHONPATH=tests python -m mp_oracle criterion06")
    with open(CRITERION06_PATH, "w") as fh:
        json.dump(build_criterion06(), fh, indent=1)
        fh.write("\n")
