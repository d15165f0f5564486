"""Cross-checks of the curvature between independent routes.

Each check takes no arguments and returns (ok, detail): the closed form
against the determinant oracle, the q = 1 moments against polylogarithms,
the closed-form virial roots against bisection and the q = 1 values, metric
positivity, and the beta independence of the reduced curvature.  Every
grid and tolerance is written once, here, next to the mpmath polylogarithm
reference `polylog_reference_q1`.  `qgasgeo selfcheck` runs
`CHECKS` in order; acceptance criteria 01, 02, 04, 08 and 09 call the same
functions.  A NaN deviation fails its check.
"""

import mpmath

from .core import BOSON, FERMION, GasSpec, bisect, validate_domain
from .geometry import curvature_closed_form, determinant_curvature_oracle, metric_tensor
from .quadrature import moment_integrals
from .virial import alpha, delta, eta, virial_threshold, zeta_fermion_d2

__all__ = [
    "CHECKS",
    "GRID_Q_Z",
    "beta_independence",
    "metric_positivity",
    "oracle_agreement",
    "polylog_moments",
    "polylog_reference_q1",
    "virial_thresholds",
]

# q values and fugacities of the oracle-agreement and metric checks, D = 3 and 2
GRID_Q_Z = {
    BOSON: ((0.5, 1.0, 1.15, 2.0), (0.1, 0.5, 0.9)),
    FERMION: ((0.5, 1.0, 10.0), (0.1, 1.0, 10.0)),
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
    z = validate_domain(spec, z)
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


def polylog_moments():
    """q = 1 moments vs polylogarithms, both statistics and dimensions, 1e-8 relative."""
    tol = 1e-8
    devs = []
    for stat, zs in ((BOSON, (0.1, 0.5, 0.9)), (FERMION, (0.5, 2.0, 10.0))):
        for dim in (3, 2):
            for z in zs:
                spec = GasSpec(stat, 1.0, dim)
                want = polylog_reference_q1(spec, z)
                devs += [abs(g - w) / abs(w) for g, w in zip(moment_integrals(spec, z), want)]
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
