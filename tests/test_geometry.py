"""Metric structure, curvature closed form vs determinant oracle, sign boundaries."""

import math

import mp_oracle
import pytest

from qgasgeo import geometry
from qgasgeo import (
    NORM_PAPER,
    NORM_RAW,
    DegenerateMetricError,
    DomainError,
    GasSpec,
    MomentSet,
    StepSizeError,
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
        closed = curvature_closed_form(spec, z, normalization=NORM_RAW).R_reduced
        oracle = determinant_curvature_oracle(spec, 1.0, z)
        assert closed == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("spec", GRID)
    def test_paper_doubles_raw(self, spec):
        paper = curvature_closed_form(spec, 0.5, normalization=NORM_PAPER)
        raw = curvature_closed_form(spec, 0.5, normalization=NORM_RAW)
        assert paper.R_reduced == 2.0 * raw.R_reduced
        assert paper.normalization == NORM_PAPER
        assert raw.normalization == NORM_RAW

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

    def test_result_carries_moments(self):
        spec = GasSpec("boson", 1.0, 3)
        r = curvature_closed_form(spec, 0.5)
        assert isinstance(r.moments, MomentSet)
        assert r.moments.z == 0.5

    def test_rejects_unknown_normalization(self):
        with pytest.raises(ValueError):
            curvature_closed_form(GasSpec("boson", 1.0, 3), 0.5, normalization="bogus")


class TestFiniteDifferenceMode:
    @pytest.mark.parametrize("spec", GRID)
    @pytest.mark.parametrize("z", [0.2, 0.7])
    def test_fd_matches_analytic_ladder(self, spec, z):
        # the fd path never reads the third moment, so agreement here ties the
        # ladder sign convention da/dgamma = -b, ... to an independent route;
        # the step check admits truncation up to 10x the 1e-6 derivative target
        ladder = determinant_curvature_oracle(spec, 1.0, z)
        fd = determinant_curvature_oracle(spec, 1.0, z, fd_step=1e-4)
        assert fd == pytest.approx(ladder, rel=1e-5)

    def test_step_too_large_raises(self):
        with pytest.raises(StepSizeError):
            determinant_curvature_oracle(GasSpec("boson", 1.0, 3), 1.0, 0.5, fd_step=0.5)

    def test_step_too_small_raises(self):
        with pytest.raises(StepSizeError):
            determinant_curvature_oracle(GasSpec("boson", 1.0, 3), 1.0, 0.5, fd_step=1e-15)


class TestDegenerateGuard:
    def test_zero_denominator_d3(self):
        # 5ac = 3b^2 exactly with a=3, b=5, c=5
        spec = GasSpec("boson", 1.0, 3)
        m = MomentSet(a=3.0, b=5.0, c=5.0, d=1.0, est_error=0.0, spec=spec, z=0.5)
        with pytest.raises(DegenerateMetricError):
            curvature_from_moments(spec, m)

    def test_zero_denominator_d2(self):
        # 2ac = b^2 exactly with a=2, b=2, c=1
        spec = GasSpec("fermion", 1.0, 2)
        m = MomentSet(a=2.0, b=2.0, c=1.0, d=1.0, est_error=0.0, spec=spec, z=0.5)
        with pytest.raises(DegenerateMetricError):
            curvature_from_moments(spec, m)


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

        def counting(spec, z, cfg=None, normalization=NORM_PAPER):
            calls.append(spec.q)
            return closed_form(spec, z, cfg, normalization)

        monkeypatch.setattr(geometry, "curvature_closed_form", counting)
        q_star = curvature_sign_boundary(spec, 0.05, 1.1, 1.5)
        assert len(calls) == 14
        optimize = pytest.importorskip("scipy.optimize")
        want = optimize.bisect(lambda q: closed_form(GasSpec("boson", q, 3), 0.05).R_reduced,
                               1.1, 1.5, xtol=1e-4)
        assert q_star == want


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
