"""High-precision reference values of the reduced curvature R(z, q, D).

Nothing here imports qgasgeo: the benchmark checks the library against these
values, so they must come from a separate derivation.  Three methods, each
used where it is cheapest:

* ``polylog``  (q = 1): the moments are polylogarithms, evaluated by
  ``mpmath.polylog`` at 40 digits.
* ``cluster``  (small z): ln F expanded in powers of z.  Each coefficient is
  a sum over partitions of n of exact rational weights times e^(-x Lambda),
  and every term integrates in closed form, so no quadrature is involved.
* ``trapezoid`` (any z): the raw series (bosons) or the closed three-term
  form (fermions) integrated over s = -ln x with the trapezoid rule, which
  converges exponentially for this analytic, doubly decaying integrand;
  the step is halved until two levels agree.  Boson series are cut per
  abscissa; where e^(-x{m}) equals its limit to working precision the sum
  is taken in closed form (for q < 1 the tail is geometric with
  {m} -> 1/(1 - q^2)).

R is formed from the four moments in mpmath, numerator and denominator
included, because N = b^2 c + a b d - 2 a c^2 cancels at small z.  Sign
boundaries in q are found by regula falsi on the reference R; the virial
thresholds are the roots in q of the z^2 cluster coefficient A_2.

Run ``python3 perfbench/reference.py build`` to regenerate the committed
table ``reference_table.json``; ``python3 perfbench/reference.py check``
cross-validates the methods against each other.
"""

import functools
import json
import math
import os
import sys
import time
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

BOSON = "boson"
FERMION = "fermion"

TABLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_table.json")
# `check` recomputes this many table entries, drawn with this seed
CHECK_SAMPLES = 2
CHECK_SEED = 5


def _bracket(m, q2):
    """{m} = (1 - q^(2m)) / (1 - q^2) for q2 = q^2."""
    if q2 == 1:
        return mpf(m)
    return (1 - q2 ** m) / (1 - q2)


def _r_from_moments(D, a, b, c, d):
    """Paper-normalised closed-form curvature, all in mpmath."""
    n = b * b * c + a * b * d - 2 * a * c * c
    if D == 3:
        den = 5 * a * c - 3 * b * b
        scale = 5 * mpmath.sqrt(mpmath.pi)
    else:
        den = 2 * a * c - b * b
        scale = 2
    return scale * n / (den * den)


# --- q = 1: polylogarithms ----------------------------------------------------

def polylog_moments(stat, D, z):
    nu = mpf(D - 2) / 2
    pre = 2 * mpmath.gamma(nu + 1)
    arg = mpf(z) if stat == BOSON else -mpf(z)
    sign = 1 if stat == BOSON else -1
    return [sign * pre * mpmath.re(mpmath.polylog(nu + 2 - k, arg)) for k in range(4)]


# --- small z: cluster expansion -------------------------------------------------

def _weight(stat, m):
    """Coefficient f_m of z^m e^(-x lambda_m) in F (m >= 1)."""
    if stat == BOSON:
        return m + 1
    return {1: 2, 2: 1}.get(m, 0)


@functools.lru_cache(maxsize=None)
def _log_coefficients(stat, n):
    """[z^n] ln F as {partition of n: exact rational weight}.

    F = 1 + sum_m f_m y_m z^m with y_m = e^(-x lambda_m); n l_n = n F_n -
    sum_{k<n} k l_k F_{n-k}.  A partition lists the m of each y_m factor.
    """
    out = {}
    f_n = _weight(stat, n)
    if f_n:
        out[(n,)] = Fraction(f_n)
    for k in range(1, n):
        f = _weight(stat, n - k)
        if not f:
            continue
        for parts, c in _log_coefficients(stat, k).items():
            key = tuple(sorted(parts + (n - k,)))
            out[key] = out.get(key, 0) - Fraction(k * f, n) * c
    return {p: c for p, c in out.items() if c}


def _lambdas(stat, q, n):
    q2 = mpf(q) ** 2
    if stat == BOSON:
        return [None] + [_bracket(m, q2) for m in range(1, n + 1)]
    return [None, mpf(1), 1 + 1 / q2]


class ClusterSeries:
    """A_n = int_0^inf x^nu [z^n] ln F dx for one (stat, q, D), extended on demand."""

    def __init__(self, stat, q, D):
        self.stat, self.q, self.D = stat, q, D
        self.A = [mpf(0)]

    def coefficient(self, n):
        while len(self.A) <= n:
            m = len(self.A)
            lam = _lambdas(self.stat, self.q, m)
            p = mpf(self.D) / 2
            total = mpf(0)
            for parts, c in _log_coefficients(self.stat, m).items():
                big = sum(lam[i] for i in parts)
                total += mpf(c.numerator) / c.denominator / big ** p
            self.A.append(mpmath.gamma(p) * total)
        return self.A[n]

    def moments(self, z, digits=32, n_cap=60):
        z = mpf(z)
        sums = [mpf(0)] * 4
        small = 0
        for n in range(1, n_cap + 1):
            t = self.coefficient(n) * z ** n
            for k in range(4):
                sums[k] += t * n ** k
            if abs(t) * n ** 3 < mpf(10) ** (-digits) * abs(sums[3]):
                small += 1
                if small == 3:
                    return sums
            else:
                small = 0
        raise ArithmeticError(f"cluster series for {self.stat} q={self.q} D={self.D} "
                              f"not converged at z={z} within {n_cap} terms")


@functools.lru_cache(maxsize=256)
def cluster_series(stat, q, D):
    return ClusterSeries(stat, q, D)


def cluster_a2_root(stat, D, q_lo=0.5, q_hi=5.0):
    """Root in q of the z^2 cluster coefficient A_2, or None: the z -> 0 sign boundary."""
    def a2(q):
        return ClusterSeries(stat, q, D).coefficient(2)

    lo, hi = a2(mpf(q_lo)), a2(mpf(q_hi))
    if lo * hi > 0:
        return None
    return float(mpmath.findroot(a2, (mpf(q_lo), mpf(q_hi)), solver="anderson"))


# --- any z: trapezoid rule in s = -ln x -----------------------------------------

def _geometric_tail(w, m0):
    """sum_{m >= m0} (m + 1) m^k w^m for k = 0..3, in closed form."""
    o = 1 - w
    # S_j = sum_{n>=0} n^j w^n (Eulerian numbers)
    s = [1 / o, w / o ** 2, w * (1 + w) / o ** 3, w * (1 + 4 * w + w * w) / o ** 4,
         w * (1 + 11 * w + 11 * w * w + w ** 3) / o ** 5]
    wm = w ** m0
    out = []
    for k in range(4):
        # (n + m0 + 1)(n + m0)^k expanded in powers of n
        total = mpf(0)
        for j in range(k + 1):
            c = math.comb(k, j) * mpf(m0) ** (k - j)
            total += c * (s[j + 1] + (m0 + 1) * s[j])
        out.append(wm * total)
    return out


def _boson_sums(x, z, q2, eps):
    """F_k = sum_m (m + 1) m^k z^m e^(-x{m}), k = 0..3, at one abscissa."""
    if q2 == 1:
        return _geometric_tail(z * mpmath.exp(-x), 0)
    sums = [mpf(0)] * 4
    m = 0
    zm = mpf(1)
    br = mpf(0)
    if q2 < 1:
        limit = 1 / (1 - q2)
        gap = x * limit                         # x ({inf} - {m}) = x q^(2m) / (1 - q^2)
        while gap >= 0.05:
            t = (m + 1) * zm * mpmath.exp(-x * br)
            for k in range(4):
                sums[k] += t * m ** k
            m += 1
            zm *= z
            br = br * q2 + 1
            gap *= q2
        # for m >= m1, e^(-x{m}) = e^(-x/(1-q^2)) e^(x q^(2m) / (1-q^2)): expand the
        # second factor in powers j, each a geometric tail in w = z q^(2j)
        e = mpmath.exp(-x * limit)
        coef = e                                # e (x/(1-q^2))^j / j!
        size = mpf(1)                           # gap_m1^j / j!, the size of term j
        j = 0
        while size >= eps:
            tail = _geometric_tail(z * q2 ** j, m)
            for k in range(4):
                sums[k] += coef * tail[k]
            j += 1
            coef = coef * x * limit / j
            size = size * gap / j
        return sums
    while x * br < eps:                         # e^(-x{m}) == 1 at working precision
        t = (m + 1) * zm
        for k in range(4):
            sums[k] += t * m ** k
        m += 1
        zm *= z
        br = br * q2 + 1
    while True:
        t = (m + 1) * zm * mpmath.exp(-x * br)
        for k in range(4):
            sums[k] += t * m ** k
        if x * br > 1 and t * (m + 1) ** 3 < eps * sums[3]:
            return sums
        m += 1
        zm *= z
        br = br * q2 + 1


def _fermion_sums(x, z, q2):
    u = 2 * z * mpmath.exp(-x)
    v = z * z * mpmath.exp(-(1 / q2 + 1) * x)
    return [1 + u + v, u + 2 * v, u + 4 * v, u + 8 * v]


def _cumulants(f0, f1, f2, f3):
    r1 = f1 / f0
    return [mpmath.log(f0), r1, f2 / f0 - r1 * r1, f3 / f0 - 3 * f1 * f2 / (f0 * f0) + 2 * r1 ** 3]


def trapezoid_moments(stat, D, q, z, digits=20):
    """Moments a..d by the trapezoid rule in s = -ln x, step halved until converged."""
    z = mpf(z)
    q2 = mpf(q) ** 2
    eps = mpf(10) ** (-mp.dps - 2)
    p = mpf(D) / 2
    cache = {}

    def node(j, h):
        key = j * h
        v = cache.get(key)
        if v is None:
            s = mpf(float(key))
            x = mpmath.exp(-s)
            sums = _boson_sums(x, z, q2, eps) if stat == BOSON else _fermion_sums(x, z, q2)
            w = mpmath.exp(-p * s)
            v = cache[key] = [w * L for L in _cumulants(*sums)]
        return v

    def level(h):
        # sum outward from s = 0 until three nodes in a row are negligible
        total = list(node(0, h))
        for step in (1, -1):
            j, quiet = step, 0
            while quiet < 3:
                v = node(j, h)
                total = [t + u for t, u in zip(total, v)]
                tiny = all(abs(u) < mpf(10) ** (-digits - 5) * abs(t) for u, t in zip(v, total))
                quiet = quiet + 1 if tiny else 0
                j += step
        return [mpf(float(h)) * t for t in total]

    h = Fraction(1, 2)
    prev = level(h)
    while True:
        h /= 2
        cur = level(h)
        if all(abs(c - pv) < mpf(10) ** (-(digits // 2 + 1)) * abs(c) for c, pv in zip(cur, prev)):
            return cur
        if h < Fraction(1, 64):
            raise ArithmeticError(f"trapezoid rule not converged for {stat} D={D} q={q} z={z}")
        prev = cur


# --- dispatch -----------------------------------------------------------------

# Above this the cluster series needs partitions of n > 30 and the trapezoid
# rule is cheaper.
CLUSTER_Z_MAX = 0.02


def moments(stat, D, q, z, method=None):
    """(a, b, c, d) in mpmath and the method used."""
    if method is None:
        if q == 1:
            method = "polylog"
        elif z <= CLUSTER_Z_MAX:
            method = "cluster"
        else:
            method = "trapezoid"
    if method == "polylog":
        with mp.workdps(40):
            return polylog_moments(stat, D, z), method
    if method == "cluster":
        with mp.workdps(50):
            return cluster_series(stat, float(q), D).moments(z), method
    with mp.workdps(26):
        return trapezoid_moments(stat, D, q, z), method


def curvature(stat, D, q, z, method=None):
    """Reference R (paper normalisation) as an mpf, and the method used."""
    mom, used = moments(stat, D, q, z, method)
    with mp.workdps(50):
        return _r_from_moments(D, *mom), used


def sign_boundary(stat, D, z, q_lo, q_hi, tol=1e-12):
    """q in (q_lo, q_hi) where the reference R changes sign, or None (one crossing assumed)."""
    def r(q):
        return curvature(stat, D, q, z)[0]

    a, b = mpf(q_lo), mpf(q_hi)
    ra, rb = r(a), r(b)
    if ra * rb > 0:
        return None
    # Illinois regula falsi: superlinear, keeps the bracket
    side = 0
    while b - a > tol:
        c = (a * rb - b * ra) / (rb - ra)
        rc = r(c)
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
        if rc == 0:
            return float(c)
    return float((a + b) / 2)


# --- committed table ----------------------------------------------------------

def key(stat, D, q, z):
    return f"{stat}|{D}|{float(q)!r}|{float(z)!r}"


def load_table(path=TABLE_PATH):
    with open(path) as fh:
        return json.load(fh)


def _point_task(args):
    stat, D, q, z = args
    t0 = time.perf_counter()
    r, method = curvature(stat, D, q, z)
    return "R", key(stat, D, q, z), mpmath.nstr(r, 25, strip_zeros=False), method, time.perf_counter() - t0


def _search_task(args):
    stat, D, z, lo, hi = args
    t0 = time.perf_counter()
    root = sign_boundary(stat, D, z, lo, hi)
    return "roots", search_key(stat, D, z, lo, hi), root, None, time.perf_counter() - t0


def search_key(stat, D, z, q_lo, q_hi):
    return f"{stat}|{D}|{float(z)!r}|{float(q_lo)!r}|{float(q_hi)!r}"


def build():
    """Recompute every committed reference value and rewrite the table, on every CPU."""
    import multiprocessing

    import workloads

    tasks = [(_search_task, s) for s in workloads.table_searches()]
    tasks += [(_point_task, p) for p in sorted(set(workloads.table_points()), key=lambda p: -p[3])]
    table = {"R": {}, "roots": {}}
    t0 = time.perf_counter()
    with multiprocessing.get_context("spawn").Pool(os.cpu_count()) as pool:
        results = [pool.apply_async(fn, (arg,)) for fn, arg in tasks]
        for i, res in enumerate(results, 1):
            section, k, value, method, dt = res.get()
            table[section][k] = value
            print(f"[{i}/{len(tasks)} {time.perf_counter() - t0:7.1f}s] {k} {method or ''} "
                  f"{value} ({dt:.2f}s)", file=sys.stderr, flush=True)
    table = {s: dict(sorted(v.items())) for s, v in table.items()}
    table["about"] = ("Reference R (paper normalisation, 25 digits) and sign-boundary roots "
                      "(|dq| < 1e-12), written by `python3 perfbench/reference.py build`.")
    with open(TABLE_PATH, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")


def check():
    """Recompute a seeded sample of table entries and cross-check the three methods."""
    import random

    with mp.workdps(40):
        return _check(load_table(), random.Random(CHECK_SEED))


def _check(table, rng):
    worst = mpf(0)
    for k in rng.sample(sorted(table["R"]), CHECK_SAMPLES):
        stat, D, q, z = k.split("|")
        r, method = curvature(stat, int(D), float(q), float(z))
        dev = abs(r - mpf(table["R"][k])) / abs(r)
        worst = max(worst, dev)
        print(f"table {k} {method}: rel dev {mpmath.nstr(dev, 3)}", flush=True)
    for stat, D, q, z, m1, m2 in [(BOSON, 2, 1.0, 0.9, "polylog", "trapezoid"),
                                  (FERMION, 3, 1.0, 10.0, "polylog", "trapezoid"),
                                  (BOSON, 3, 1.15, 0.01, "cluster", "trapezoid"),
                                  (FERMION, 2, 2.0, 0.02, "cluster", "trapezoid"),
                                  (BOSON, 2, 1.0, 1e-8, "cluster", "polylog")]:
        r1, r2 = curvature(stat, D, q, z, m1)[0], curvature(stat, D, q, z, m2)[0]
        dev = abs(r1 - r2) / abs(r2)
        worst = max(worst, dev)
        print(f"{m1} vs {m2} at {stat} D={D} q={q} z={z}: rel dev {mpmath.nstr(dev, 3)}", flush=True)
    ok = worst < mpf("1e-18")
    print(f"{'OK' if ok else 'FAILED'}: worst rel dev {mpmath.nstr(worst, 3)} (limit 1e-18)")
    return 0 if ok else 1


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("build", help="recompute and rewrite reference_table.json")
    sub.add_parser("check", help="recompute a seeded sample of the table")
    args = ap.parse_args()
    sys.exit(build() if args.cmd == "build" else check())
