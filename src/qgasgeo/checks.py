"""Cross-checks of the curvature between independent routes.

Each check takes no arguments and returns (ok, detail): the closed form
against the determinant oracle, the q = 1 moments against polylogarithms,
the closed-form virial roots against bisection and the q = 1 values, metric
positivity, and the beta independence of the reduced curvature.  Every
grid and tolerance is written once, here, next to the q = 1 polylogarithm
values `POLYLOG_Q1`.  `qgasgeo selfcheck` runs `CHECKS` in order;
acceptance criteria 01, 02, 04, 08 and 09 call the same functions.  A NaN
deviation fails its check.
"""

from .core import BOSON, FERMION, GasSpec, bisect
from .geometry import curvature_closed_form, determinant_curvature_oracle, metric_tensor
from .quadrature import moment_integrals
from .virial import alpha, delta, eta, virial_threshold, zeta_fermion_d2

__all__ = [
    "CHECKS",
    "GRID_Q_Z",
    "POLYLOG_Q1",
    "beta_independence",
    "metric_positivity",
    "oracle_agreement",
    "polylog_moments",
    "virial_thresholds",
]

# q values and fugacities of the oracle-agreement and metric checks, D = 3 and 2
GRID_Q_Z = {
    BOSON: ((0.5, 1.0, 1.15, 2.0), (0.1, 0.5, 0.9)),
    FERMION: ((0.5, 1.0, 10.0), (0.1, 1.0, 10.0)),
}

# (a, b, c, d) at q = 1, keyed (statistics, D, z): the moments are
# polylogarithms, 2 Gamma(nu+1) Li_(nu+2-k)(z) for bosons and
# -2 Gamma(nu+1) Li_(nu+2-k)(-z) for fermions, k = 0..3, nu = (D - 2) / 2.
# Each is an mpmath value at 30 digits rounded once to a double;
# tests/test_quadrature.py recomputes them.  The bosons at z = 1.0 - 1e-10
# lie past the reach of the quadrature.
POLYLOG_Q1 = {
    (BOSON, 3, 0.1): (0.18049825095890348, 0.183876936709499, 0.19089920003185548, 0.2057806386346604),
    (BOSON, 3, 0.5): (0.9837070639049367, 1.1074947837405864, 1.4288224145751478, 2.387945102183389),
    (BOSON, 3, 0.9): (2.0188302982125954, 2.8615177870076436, 7.128721523326246, 45.567070808249824),
    (BOSON, 3, 1.0 - 1e-10): (2.3777242545920396, 4.630251915191402, 314156.6639433263, 1570796131724700.5),
    (BOSON, 2, 0.1): (0.20523558219878227, 0.21072103131565262, 0.22222222222222224, 0.2469135802469136),
    (BOSON, 2, 0.5): (1.164481052930025, 1.3862943611198906, 2.0, 4.0),
    (BOSON, 2, 0.9): (2.5994294460099177, 4.605170185988092, 18.000000000000004, 180.00000000000009),
    (BOSON, 2, 1.0 - 1e-10): (3.2898681288912823, 46.05170169440018, 19999998343.19272, 1.999999668838557e+20),
    (FERMION, 3, 0.5): (0.8194014843078574, 0.7619554385909557, 0.6624585934939305, 0.5016271462632386),
    (FERMION, 3, 2.0): (2.773857263757191, 2.271187594606319, 1.5797681090591766, 0.7754146856616027),
    (FERMION, 3, 10.0): (9.019620376873617, 5.823723404591665, 2.815162108987595, 0.7109411171370521),
    (FERMION, 2, 0.5): (0.8968284138472924, 0.8109302162163288, 0.6666666666666666, 0.4444444444444444),
    (FERMION, 2, 2.0): (2.8734927337673617, 2.1972245773362196, 1.3333333333333333, 0.4444444444444444),
    (FERMION, 2, 10.0): (8.396555773716207, 4.795790545596741, 1.8181818181818181, 0.1652892561983471),
}

# (statistics, D, q, z) of the beta-independence check
_BETA_POINTS = (
    (BOSON, 3, 0.5, 0.5), (BOSON, 3, 1.0, 0.9), (BOSON, 2, 1.15, 0.5),
    (FERMION, 3, 10.0, 2.0), (FERMION, 2, 1.0, 10.0), (FERMION, 2, 0.5, 0.1),
)


def _grid():
    """(spec, z) pairs of GRID_Q_Z, D = 3 first."""
    return [(GasSpec(stat, q, dim), z)
            for dim in (3, 2)
            for stat, (qs, zs) in GRID_Q_Z.items()
            for q in qs
            for z in zs]


def _within(devs, tol):
    """(every deviation <= tol, the largest deviation)."""
    devs = list(devs)
    return all(d <= tol for d in devs), max(devs)


def oracle_agreement():
    """Closed form vs determinant oracle at beta = 1 over the grid, 1e-5 relative."""
    tol = 1e-5
    points = _grid()
    devs = []
    for spec, z in points:
        r_closed = curvature_closed_form(spec, z).R_reduced
        r_oracle = determinant_curvature_oracle(spec, 1.0, z)
        devs.append(abs(r_closed - r_oracle) / abs(r_oracle))
    ok, worst = _within(devs, tol)
    return ok, f"max rel dev {worst:.3e} over {len(points)} grid points, tol {tol:g}"


def polylog_moments():
    """q = 1 moments vs polylogarithms, both statistics and dimensions, 1e-8 relative."""
    tol = 1e-8
    devs = []
    for (stat, dim, z), want in POLYLOG_Q1.items():
        got = moment_integrals(GasSpec(stat, 1.0, dim), z)
        devs += [abs(g - w) / abs(w) for g, w in zip(got, want)]
    ok, worst = _within(devs, tol)
    return ok, f"max rel dev {worst:.3e} over both statistics and dimensions, tol {tol:g}"


def virial_thresholds():
    """Closed-form roots vs a bisection of each coefficient over q in [0.5, 5]
    to 1e-6, no zeta root, q = 1 values to 1e-10."""
    root_tol, value_tol = 1e-6, 1e-10
    roots_ok, worst_root = _within(
        (abs(virial_threshold(kind) - bisect(f, 0.5, 5.0, xtol=1e-10))
         for kind, f in (("alpha", alpha), ("delta", delta), ("eta", eta))), root_tol)
    zeta_none = virial_threshold("zeta") is None
    ref = 2.0 ** -3.5  # 1/(8 sqrt 2), independent arithmetic
    values_ok, worst_val = _within(
        (abs(alpha(1.0) - ref), abs(delta(1.0) + ref), abs(eta(1.0) + 0.125),
         abs(zeta_fermion_d2(1.0) - 0.125)), value_tol)
    return (roots_ok and zeta_none and values_ok,
            f"root dev {worst_root:.3e} (tol {root_tol:g}), value dev {worst_val:.3e} "
            f"(tol {value_tol:g}), zeta threshold none: {zeta_none}")


def metric_positivity():
    """g11 > 0, g22 > 0 and det g > 0 at beta = 1 over the grid; names the failing points."""
    points = _grid()
    bad = []
    for spec, z in points:
        g = metric_tensor(spec, 1.0, z)
        if not (g.g11 > 0.0 and g.g22 > 0.0 and g.det > 0.0):
            bad.append(f"{spec.statistics} D={spec.dimension} q={spec.q} z={z}")
    return (not bad,
            f"g11, g22, det g positive at {len(points) - len(bad)}/{len(points)} grid points"
            + (f"; failing: {'; '.join(bad)}" if bad else ""))


def beta_independence():
    """Reduced R from the determinant oracle at beta = 1 vs beta = 2, 1e-8 relative."""
    tol = 1e-8
    devs = []
    for stat, dim, q, z in _BETA_POINTS:
        spec = GasSpec(stat, q, dim)
        r1 = determinant_curvature_oracle(spec, 1.0, z)
        devs.append(abs(r1 - determinant_curvature_oracle(spec, 2.0, z)) / abs(r1))
    ok, worst = _within(devs, tol)
    return ok, f"max rel dev {worst:.3e} at {len(devs)} points, tol {tol:g}"


CHECKS = (
    ("closed form vs determinant oracle", oracle_agreement),
    ("q=1 polylogarithm oracle", polylog_moments),
    ("virial thresholds and q=1 values", virial_thresholds),
    ("metric validity", metric_positivity),
    ("beta independence of reduced R", beta_independence),
)
