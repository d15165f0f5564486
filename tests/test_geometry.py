"""Metric structure, curvature closed form vs determinant oracle, sign boundaries."""

import math
import sys

import mp_oracle
import pytest

from qgasgeo import geometry
from qgasgeo import (
    DomainError,
    GasSpec,
    MomentSet,
    ToleranceError,
    curvature_closed_form,
    curvature_from_moments,
    curvature_sign_boundary,
    determinant_curvature_oracle,
    metric_tensor,
    moment_integrals,
)

GRID = [
    GasSpec("boson", 0.5, 3),
    GasSpec("boson", 1.15, 3),
    GasSpec("boson", 2.0, 2),
    GasSpec("fermion", 1.0, 3),
    GasSpec("fermion", 10.0, 2),
]


class TestMetricTensor:
    @pytest.mark.parametrize("spec", GRID)
    def test_beta_power_scaling(self, spec):
        # g11 ~ beta^(-p-2), g12 ~ beta^(-p-1), g22 ~ beta^(-p)
        p = spec.p
        g1 = metric_tensor(spec, 1.0, 0.5)
        g2 = metric_tensor(spec, 2.0, 0.5)
        assert g2.g11 / g1.g11 == pytest.approx(2.0 ** (-p - 2.0), rel=1e-14)
        assert g2.g12 / g1.g12 == pytest.approx(2.0 ** (-p - 1.0), rel=1e-14)
        assert g2.g22 / g1.g22 == pytest.approx(2.0 ** (-p), rel=1e-14)

    @pytest.mark.parametrize("spec", GRID)
    @pytest.mark.parametrize("z", [0.1, 0.5, 0.9])
    def test_positive_definite(self, spec, z):
        g = metric_tensor(spec, 1.0, z)
        assert g.g11 > 0.0
        assert g.g22 > 0.0
        assert g.det > 0.0

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_beta(self, beta):
        spec = GasSpec("boson", 0.5, 3)
        with pytest.raises(DomainError, match="beta"):
            metric_tensor(spec, beta, 0.5)
        with pytest.raises(DomainError, match="beta"):
            determinant_curvature_oracle(spec, beta, 0.5)

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_beta_range(self, dimension):
        # det g ~ beta^-(2p+2): metric_tensor takes beta where that is a normal
        # float (it raised OverflowError below beta ~ 1e-103 at D = 2 and read
        # det = 0.0 from 1e100 on).  The oracle also needs (det g)^2, of scale
        # beta^-(4p+4), to be normal; it was 100% off at beta = 1e-40, D = 2.
        spec = GasSpec("boson", 1.15, dimension)
        p = spec.p
        bound = math.exp(-math.log(sys.float_info.min) / (2.0 * p + 2.0))
        inside = (1.01 / bound, bound / 1.01)
        unit = metric_tensor(spec, 1.0, 0.5)
        for beta in inside + (1e-50, 1e50):
            g = metric_tensor(spec, beta, 0.5)
            assert g.g11 == pytest.approx(unit.g11 * beta ** (-p - 2.0), rel=1e-13)
            assert g.g12 == pytest.approx(unit.g12 * beta ** (-p - 1.0), rel=1e-13)
            assert g.g22 == pytest.approx(unit.g22 * beta ** -p, rel=1e-13)
            with pytest.raises(DomainError, match=r"\(det g\)\^2 = .* is not a normal float"):
                determinant_curvature_oracle(spec, beta, 0.5)
        for beta in (1.0 / bound / 1.01, bound * 1.01, 1e-200, 1e200):
            for f in (metric_tensor, determinant_curvature_oracle):
                with pytest.raises(DomainError, match=r"beta\^-"):
                    f(spec, beta, 0.5)
        ref = determinant_curvature_oracle(spec, 1.0, 0.5)
        for beta in (1e-30, 1e30):
            assert determinant_curvature_oracle(spec, beta, 0.5) == pytest.approx(ref, rel=1e-12)

    def test_oracle_det_g_squared_overflow(self):
        # the moments of a fermion at z = 1e150 are of order 1e5, so (det g)^2
        # overflows inside the beta range; the oracle read 0.0 here (100% off)
        spec = GasSpec("fermion", 1.15, 3)
        with pytest.raises(DomainError, match="not a normal float"):
            determinant_curvature_oracle(spec, math.exp(-70.0), 1e150)

    def test_det_bracket_identity(self):
        # det g = p K^2 beta^(-2p-2) [(p+1) a c - p b^2]
        spec = GasSpec("boson", 1.3, 3)
        beta = 0.8
        m = moment_integrals(spec, 0.6)
        g = metric_tensor(spec, beta, 0.6)
        p = spec.p
        K = 2.0 / math.sqrt(math.pi)
        want = p * K * K * beta ** (-2.0 * p - 2.0) * ((p + 1.0) * m.a * m.c - p * m.b * m.b)
        assert g.det == pytest.approx(want, rel=1e-12)


class TestCurvatureClosedForm:
    @pytest.mark.parametrize("spec", GRID)
    @pytest.mark.parametrize("z", [0.1, 0.5, 0.9])
    def test_matches_determinant_oracle(self, spec, z):
        closed = curvature_closed_form(spec, z).R_reduced
        oracle = determinant_curvature_oracle(spec, 1.0, z)
        assert closed == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("beta", [0.25, 1.0, 4.0])
    def test_oracle_beta_independent(self, beta):
        # reduced units lambda^D / volume cancel all beta dependence
        spec = GasSpec("fermion", 2.0, 3)
        ref = determinant_curvature_oracle(spec, 1.0, 2.0)
        assert determinant_curvature_oracle(spec, beta, 2.0) == pytest.approx(ref, rel=1e-8)

    def test_high_fugacity_regression_pin(self):
        # The mpmath oracle (tests/mp_oracle.py) gives -0.3395318131069258241074
        # here; the pin is checked against its committed criterion 06 table.
        pin = -0.33953181310693753
        table = mp_oracle.load_criterion06()
        assert table["z"][-1] == 0.97
        assert pin == pytest.approx(float(table["R"][-1]), rel=1e-10)
        r = curvature_closed_form(GasSpec("boson", 1.15, 2), 0.97)
        assert r.R_reduced == pytest.approx(pin, rel=1e-10)

    def test_q_below_1_boson_near_edge(self):
        # tests/mp_oracle.py gives -1.711569174725373942267048e-4 here.  R is
        # small, so the rounding of the q < 1 series sums shows: the float64
        # difference form reads 1.6e-13 off, while float64 tail sums formed
        # as a total minus partial sums read 1.5e-12
        r = curvature_closed_form(GasSpec("boson", 0.8, 3), 0.9)
        assert r.R_reduced == pytest.approx(-1.711569174725373942267048e-4, rel=5e-13, abs=0.0)

    def test_result_carries_moments(self):
        spec = GasSpec("boson", 1.0, 3)
        r = curvature_closed_form(spec, 0.5)
        assert isinstance(r.moments, MomentSet)
        assert r.moments.z == 0.5


class TestTinyFugacity:
    """N and den^2 underflow from z ~ 1e-77 on; the closed form rescales."""

    @pytest.mark.parametrize("spec, z", [(GasSpec("boson", 1.15, 3), 1e-3),
                                         (GasSpec("fermion", 2.0, 2), 0.5)])
    @pytest.mark.parametrize("k", [-900, -600, -300, 0])
    def test_power_of_two_scaling_is_exact(self, spec, z, k):
        # R has degree -1 in the moments, and the rescale is exact
        m = moment_integrals(spec, z)
        assert m.route == ("series" if z < 5e-3 else "quadrature")
        excess = None if m.excess is None else tuple(math.ldexp(e, k) for e in m.excess)
        scaled = MomentSet(*(math.ldexp(v, k) for v in m), m.est_error, spec, z,
                           route=m.route, excess=excess)
        r = curvature_from_moments(m).R_reduced
        assert curvature_from_moments(scaled).R_reduced == math.ldexp(r, -k)

    def test_subnormal_excess_raises(self):
        # the D = 2 fermion at q = 1000 has a z^2 coefficient of -1e-6, so its
        # smallest excess is subnormal from z ~ 1.5e-151 on
        spec = GasSpec("fermion", 1000.0, 2)
        assert curvature_closed_form(spec, 2e-151).R_reduced == pytest.approx(
            -2.0 * 0.25 / (1.0 + 1e6), rel=1e-14)
        with pytest.raises(DomainError, match="normal series excesses"):
            curvature_closed_form(spec, 1e-151)


class TestGammaLadder:
    """Central differences of the moments in ln z against the gamma ladder."""

    @pytest.mark.parametrize("spec", GRID)
    @pytest.mark.parametrize("z", [0.2, 0.7])
    def test_fd_matches_analytic_ladder(self, spec, z):
        # theta = z d/dz = d/d(ln z), so theta a = b, theta b = c, theta c = d:
        # the ladder the determinant oracle takes its gamma-derivatives from
        h = 1e-4
        up = tuple(moment_integrals(spec, z * math.exp(h)))
        dn = tuple(moment_integrals(spec, z * math.exp(-h)))
        m = tuple(moment_integrals(spec, z))
        for k in range(3):
            fd = (up[k] - dn[k]) / (2.0 * h)
            assert fd == pytest.approx(m[k + 1], rel=1e-6)


class TestDegenerateGuard:
    def test_zero_denominator_d3(self):
        # 5ac = 3b^2 exactly with a=3, b=5, c=5
        spec = GasSpec("boson", 1.0, 3)
        m = MomentSet(a=3.0, b=5.0, c=5.0, d=1.0, est_error=0.0, spec=spec, z=0.5)
        with pytest.raises(ToleranceError):
            curvature_from_moments(m)

    def test_zero_denominator_d2(self):
        # 2ac = b^2 exactly with a=2, b=2, c=1
        spec = GasSpec("fermion", 1.0, 2)
        m = MomentSet(a=2.0, b=2.0, c=1.0, d=1.0, est_error=0.0, spec=spec, z=0.5)
        with pytest.raises(ToleranceError):
            curvature_from_moments(m)


    @pytest.mark.parametrize("stat,q,dim,z", [
        ("boson", 1.15, 3, 1e-20),
        ("boson", 1.15, 3, 1e-50),
        ("boson", 1.15, 3, 1e-76),
        ("boson", 1.15, 2, 1e-16),
        ("fermion", 1000.0, 2, 1e-10),
    ])
    def test_oracle_determinant_without_a_digit(self, stat, q, dim, z):
        # the 3x3 determinant cancelled to exactly 0.0 here (16 times R off at
        # boson D=2, z = 1e-16), and the oracle returned that quietly
        with pytest.raises(ToleranceError, match="within rounding of its products"):
            determinant_curvature_oracle(GasSpec(stat, q, dim), 1.0, z)

    def test_oracle_answers_while_a_digit_is_left(self):
        # eps * sum|products| / |det| = 4.7e-2 at z = 1e-12: 4.9e-4 off, not raised
        spec = GasSpec("boson", 1.15, 3)
        want = curvature_closed_form(spec, 1e-12).R_reduced
        assert determinant_curvature_oracle(spec, 1.0, 1e-12) == pytest.approx(want, rel=1e-3)


class TestSignBoundary:
    def test_boson_d2_low_z_crossing(self):
        q_star = curvature_sign_boundary(GasSpec("boson", 1.0, 2), 0.01, 1.0, 2.0)
        assert q_star is not None
        assert abs(q_star - math.sqrt(2.0)) < 0.1

    def test_fermion_d2_no_crossing(self):
        q_star = curvature_sign_boundary(GasSpec("fermion", 1.0, 2), 0.01, 0.3, 8.0)
        assert q_star is None

    def test_same_sign_bracket_returns_none(self):
        # boson D=3 stays boson-like over q in [0.5, 1.2] at low z
        q_star = curvature_sign_boundary(GasSpec("boson", 1.0, 3), 0.05, 0.5, 1.2)
        assert q_star is None

    def test_bisection_reuses_end_value(self, monkeypatch):
        # two end values and 12 halvings of [1.1, 1.5] down to |dq| < 1e-4;
        # the root is the one scipy's bisect finds, which evaluates both ends twice
        spec = GasSpec("boson", 1.0, 3)
        calls = []
        closed_form = geometry.curvature_closed_form

        def counting(spec, z):
            calls.append(spec.q)
            return closed_form(spec, z)

        monkeypatch.setattr(geometry, "curvature_closed_form", counting)
        q_star = curvature_sign_boundary(spec, 0.05, 1.1, 1.5)
        assert len(calls) == 14
        optimize = pytest.importorskip("scipy.optimize")
        want = optimize.bisect(lambda q: closed_form(GasSpec("boson", q, 3), 0.05).R_reduced,
                               1.1, 1.5, xtol=1e-4)
        assert q_star == want

    def test_search_through_term_cap_band_raises(self, monkeypatch):
        # R is -0.0309 at q = 0.999 and +0.752 at q = 1.001; the third
        # midpoint, q = 0.99975, lies in the band where the boson series
        # reaches its term cap, and the search raises rather than return
        spec = GasSpec("boson", 1.0, 3)
        calls = []
        closed_form = geometry.curvature_closed_form

        def counting(spec, z):
            calls.append(spec.q)
            return closed_form(spec, z)

        monkeypatch.setattr(geometry, "curvature_closed_form", counting)
        with pytest.raises(ToleranceError, match="boson series"):
            curvature_sign_boundary(spec, 1.0 - 2e-5, 0.999, 1.001)
        assert len(calls) == 5 and calls[-1] == pytest.approx(0.99975, abs=1e-12)


class TestHugeDeformation:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("z", [0.1, 0.5, 0.9])
    def test_boson_above_sqrt_float_max(self, dim, z):
        # from q = 1e150 on only the m <= 1 terms survive at any sampled
        # abscissa, so R no longer moves with q
        r_160 = curvature_closed_form(GasSpec("boson", 1e160, dim), z).R_reduced
        r_150 = curvature_closed_form(GasSpec("boson", 1e150, dim), z).R_reduced
        assert r_160 == pytest.approx(r_150, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("z", [0.1, 0.5, 5.0])
    def test_fermion_below_inverse_sqrt_float_max(self, dim, z):
        # q ** -2 overflows below q = 1.34e-154; from q = 1e-150 on the
        # z^2 term of h is 0.0 at every sampled abscissa
        r_160 = curvature_closed_form(GasSpec("fermion", 1e-160, dim), z).R_reduced
        r_150 = curvature_closed_form(GasSpec("fermion", 1e-150, dim), z).R_reduced
        assert r_160 == r_150

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("z", [1e80, 1e150])
    def test_fermion_huge_fugacity_finite(self, dim, z):
        # F1 F2 / F0^2 with F0 ~ z^2 overflowed from z ~ 1.2e77 on
        r = curvature_closed_form(GasSpec("fermion", 0.5, dim), z).R_reduced
        assert math.isfinite(r) and r < 0.0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_fermion_fugacity_above_overflow_raises(self, dim):
        # 8 z^2, the z^2 term of F3, overflows above z = 4.74e153
        with pytest.raises(DomainError, match="z = 1e"):
            curvature_closed_form(GasSpec("fermion", 0.5, dim), 1e160)


_FEATURE_POINTS = [
    # a small-q fermion steps at x ~ q^2
    ("fermion", 0.01, 0.5), ("fermion", 0.01, 10.0), ("fermion", 0.01, 1e4),
    ("fermion", 0.001, 1.0), ("fermion", 0.001, 30.0),
    # a large-q boson changes at x ~ q^-2
    ("boson", 100.0, 0.3), ("boson", 100.0, 0.9),
    ("boson", 1000.0, 0.5), ("boson", 1000.0, 0.9),
    ("boson", 1000.0, 0.01), ("boson", 1000.0, 0.03), ("boson", 1000.0, 0.1),
]

# D = 3 points where the quadrature stops after 105-189 integrand calls
# with an estimate inside the tolerance and R off by the measured amount
_D3_MISSES = {
    ("fermion", 0.001, 1.0): "4.5e-10",
    ("fermion", 0.001, 30.0): "9.0e-10",
    ("boson", 1000.0, 0.5): "6.6e-10",
    ("boson", 1000.0, 0.9): "1.1e-9",
    ("boson", 1000.0, 0.01): "4.0e-9",
    ("boson", 1000.0, 0.03): "3.6e-9",
    ("boson", 1000.0, 0.1): "2.4e-9",
}


def _feature_cases():
    # D = 2 ids are stat-q-z, D = 3 ids add a -D3 suffix
    for dim in (2, 3):
        for stat, q, z in _FEATURE_POINTS:
            miss = _D3_MISSES.get((stat, q, z)) if dim == 3 else None
            marks = () if miss is None else pytest.mark.xfail(
                strict=True, reason=f"R off by {miss} relative, no error raised")
            yield pytest.param(stat, q, z, dim, marks=marks,
                               id=f"{stat}-{q}-{z}" + ("-D3" if dim == 3 else ""))


class TestPlanarAgainstMpOracle:
    """Points whose features near x = 0 the integral in x used to miss, D = 2 and 3."""

    @pytest.mark.parametrize("stat,q,z,dim", _feature_cases())
    def test_matches_oracle(self, stat, q, z, dim):
        want = float(mp_oracle.curvature(stat, dim, q, z))
        got = curvature_closed_form(GasSpec(stat, q, dim), z).R_reduced
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)


# Fermion points of large z, where ln F steps at x ~ ln z.  The moments of
# float64 quadrature, rounded to doubles, would leave R at most 5.4e-12
# off; the quadrature's own error grows with z
_LARGE_Z_MISSES = {
    (0.5, 2, 1e40): "9.9e-10", (0.5, 2, 1e80): "1.5e-8", (0.5, 2, 1e150): "9.6e-7",
    (0.5, 3, 1e40): "8.3e-9", (0.5, 3, 1e80): "1.2e-8", (0.5, 3, 1e150): "5.5e-7",
    (2.0, 2, 1e20): "2.5e-9", (2.0, 3, 1e20): "3.5e-10",
}


def _large_z_cases():
    # q = 0.5 ids are D-z, others add a q prefix
    points = [(0.5, z) for z in (1e6, 1e10, 1e40, 1e80, 1e150)] + [(2.0, 1e20)]
    for dim in (2, 3):
        for q, z in points:
            miss = _LARGE_Z_MISSES.get((q, dim, z))
            marks = () if miss is None else pytest.mark.xfail(
                strict=True, reason=f"R off by {miss} relative, no error raised")
            yield pytest.param(q, dim, z, marks=marks,
                               id=("" if q == 0.5 else f"q{q:g}-") + f"D{dim}-{z:g}")


class TestLargeFugacityAgainstMpOracle:
    """Fermions at q = 0.5 and 2 far past the trapezoid oracle's reach."""

    def test_split_oracle_matches_trapezoid_oracle(self):
        want = mp_oracle.moments("fermion", 2, 0.5, 1e4)
        for got, w in zip(mp_oracle.fermion_moments_split(2, 0.5, 1e4), want):
            assert abs(got / w - 1) < 1e-20

    @pytest.mark.parametrize("q,dim,z", _large_z_cases())
    def test_matches_oracle(self, q, dim, z):
        # N = b^2 c + a b d - 2 a c^2 adds terms of order a^3 that cancel to
        # an N of order a^3 / ln(z)^6; formed from the excesses b - a, c - a,
        # d - a, each about -a here, R was 3e-4 off at z = 1e80
        with mp_oracle.mp.workdps(mp_oracle.DIGITS + 8):
            want = float(mp_oracle.curvature_from_moments(
                dim, *mp_oracle.fermion_moments_split(dim, q, z)))
        got = curvature_closed_form(GasSpec("fermion", q, dim), z).R_reduced
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)


# q < 1 boson R near z = 1 to 22 digits, keyed (q, D, 1 - z), from mpmath
# evaluations of the raw series outside this suite: the trapezoid rule in
# s = -ln x up to 1 - z = 1e-8 and, from 1e-6 on, tanh-sinh quadrature in x
# split at the step x ~ 2 ln(1/(1 - z)) / {inf}; the two agree to 1e-24 or
# better where both ran
_Q_BELOW_1_EDGE = {
    (0.5, 2, 1e-4): "4.122409518153784425102e-4",
    (0.5, 2, 1e-6): "1.246290593830511723591e-4",
    (0.5, 2, 1e-8): "5.291469609131103138239e-5",
    (0.5, 2, 1e-10): "2.717027560306994913898e-5",
    (0.5, 2, 1e-12): "1.574765403210890191832e-5",
    (0.5, 3, 1e-4): "1.445596258117235049927e-4",
    (0.5, 3, 1e-6): "3.608222804193556820106e-5",
    (0.5, 3, 1e-8): "1.33180334032864997881e-5",
    (0.5, 3, 1e-10): "6.12718029690667186611e-6",
    (0.5, 3, 1e-12): "3.244885362645024483987e-6",
    (0.8, 2, 1e-4): "8.556315066546860412157e-4",
    (0.8, 2, 1e-6): "2.596162013475507434806e-4",
    (0.8, 2, 1e-8): "1.102385631113385324756e-4",
    (0.8, 2, 1e-10): "5.660473400840687231564e-5",
    (0.8, 2, 1e-12): "3.28076124282131801695e-5",
    (0.8, 3, 1e-4): "4.321511724268592077235e-4",
    (0.8, 3, 1e-6): "1.084825141130195467904e-4",
    (0.8, 3, 1e-8): "4.004754523402657876511e-5",
    (0.8, 3, 1e-10): "1.842462781897529901492e-5",
    (0.8, 3, 1e-12): "9.757476174738730246582e-6",
}
# b and c 2.6e-12 and 3.9e-12 off after 315 integrand calls: quad_vec's
# tolerance is relative to the largest moment, d, here 42 orders above a
_Q_BELOW_1_EDGE_MISSES = {(0.8, 2, 1e-12): "4.5e-10", (0.8, 3, 1e-12): "7.0e-10"}


def _q_below_1_edge_cases():
    for (q, dim, e), want in _Q_BELOW_1_EDGE.items():
        miss = _Q_BELOW_1_EDGE_MISSES.get((q, dim, e))
        marks = () if miss is None else pytest.mark.xfail(
            strict=True, reason=f"R off by {miss} relative, no error raised")
        yield pytest.param(q, dim, e, want, marks=marks, id=f"{q}-D{dim}-{e:g}")


class TestBosonEdge:
    """Bosons up to 1 - z = 1e-12.  Every reference is taken at the same
    double z = 1 - e that the library gets: its 1 - z differs from e by
    5.0e-9 relative at e = 1e-8 and by 2.2e-5 at 1e-12, which alone moves
    a q < 1 R by about 8e-10 and 2e-6."""

    @pytest.mark.parametrize("e", [1e-5, 1e-8, 1e-12])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("q", [1.15, 2.0, 10.0])
    def test_q_above_1_matches_oracle(self, q, dim, e):
        # R settles on a plateau as z -> 1
        z = 1.0 - e
        want = float(mp_oracle.curvature("boson", dim, q, z))
        got = curvature_closed_form(GasSpec("boson", q, dim), z).R_reduced
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("e", [1e-5, 1e-6, 1e-8, 1e-10, 1e-12])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_q1_matches_polylog_moments(self, dim, e):
        # at D = 3, R diverges at condensation: 110.0 at 1 - z = 1e-6
        z = 1.0 - e
        with mp_oracle.mp.workdps(mp_oracle.DIGITS + 8):
            want = float(mp_oracle.curvature_from_moments(
                dim, *mp_oracle.polylog_moments("boson", dim, z)))
        got = curvature_closed_form(GasSpec("boson", 1.0, dim), z).R_reduced
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_q1_d3_divergence(self):
        # Li_s(1 - e) -> zeta(s) for s > 1 and c, d ~ e^(-1/2), e^(-3/2) give
        # R (1 - z)^(1/2) -> zeta(3/2) / (10 sqrt(pi) zeta(5/2)), up to O(e^(1/2))
        z = 1.0 - 1e-12
        e = 1.0 - z
        mpmath = mp_oracle.mpmath
        limit = float(mpmath.zeta(1.5) / (10 * mpmath.sqrt(mpmath.pi) * mpmath.zeta(2.5)))
        got = curvature_closed_form(GasSpec("boson", 1.0, 3), z).R_reduced
        assert got * math.sqrt(e) == pytest.approx(limit, rel=2e-6, abs=0.0)
        assert limit == pytest.approx(0.1098687, rel=1e-6)

    def test_q1_d2_logarithm(self):
        # a -> 2 Li_2(1) = pi^2 / 3, b = 2 ln(1/e), c ~ 2/e, d ~ 2/e^2 give
        # R -> (3 / (2 pi^2)) (ln(1/e) - 2), up to O(e ln(1/e)^2)
        z = 1.0 - 1e-12
        e = 1.0 - z
        limit = 3.0 / (2.0 * math.pi ** 2) * (-math.log(e) - 2.0)
        got = curvature_closed_form(GasSpec("boson", 1.0, 2), z).R_reduced
        assert got == pytest.approx(limit, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("q,dim,e,want", _q_below_1_edge_cases())
    def test_q_below_1_matches_reference(self, q, dim, e, want):
        # R > 0 decays to 0+ as z -> 1
        got = curvature_closed_form(GasSpec("boson", q, dim), 1.0 - e).R_reduced
        assert got == pytest.approx(float(want), rel=1e-10, abs=0.0)
