"""Virial coefficients, transmutation thresholds, and the z(n) inversion."""

import math

import mpmath
import numpy as np
import pytest

from qgasgeo import (
    DomainError,
    GasSpec,
    alpha,
    curvature_closed_form,
    delta,
    eta,
    fugacity_from_density,
    metric_tensor,
    virial_threshold,
    zeta_fermion_d2,
)
from qgasgeo.core import bisect

REF_Q1 = 2.0 ** -3.5  # 1 / (8 sqrt(2))

# each coefficient with the (statistics, D) of its gas
GASES = [
    (alpha, "fermion", 3),
    (delta, "boson", 3),
    (eta, "boson", 2),
    (zeta_fermion_d2, "fermion", 2),
]
GAS_IDS = ["alpha", "delta", "eta", "zeta"]


class TestCoefficientValues:
    def test_undeformed_values(self):
        assert alpha(1.0) == pytest.approx(REF_Q1, abs=1e-16)
        assert delta(1.0) == pytest.approx(-REF_Q1, abs=1e-16)
        assert eta(1.0) == pytest.approx(-0.125, abs=1e-16)
        assert zeta_fermion_d2(1.0) == pytest.approx(0.125, abs=1e-16)

    def test_eta_at_q2(self):
        # (2 - 4) / (4 * 5) = 1/10 exactly
        assert eta(2.0) == pytest.approx(0.1, abs=1e-16)

    def test_alpha_large_q_negative(self):
        # q -> inf limit is (1/2)(2^(-3/2) - 1/2) < 0
        assert alpha(100.0) < 0.0
        assert alpha(100.0) == pytest.approx(0.5 * (2.0 ** -1.5 - 0.5), rel=1e-3)

    def test_zeta_always_positive(self):
        for q in (0.1, 0.5, 1.0, 2.0, 10.0, 100.0):
            assert zeta_fermion_d2(q) > 0.0
        # approaches zero from above
        assert 0.0 < zeta_fermion_d2(100.0) < 1e-4

    def test_zeta_without_cancellation(self):
        # 1/(4 (1 + q^2)) as (1/4)(1 - (1 + q^-2)^-1) lost 6.1e-11 at q = 1e3
        # and read 0.0 from q ~ 1e8
        for e in np.arange(-3.0, 150.25, 0.25):
            q = 10.0 ** e
            value = zeta_fermion_d2(q)
            with mpmath.workdps(40):
                want = 1 / (4 * (1 + mpmath.mpf(q) ** 2))
            assert value > 0.0
            assert abs(value - want) <= 1e-14 * want, q

    @pytest.mark.parametrize("f", [delta, eta])
    def test_boson_coefficients_increase_with_q(self, f):
        qs = [0.5, 1.0, 1.5, 2.0, 3.0]
        vals = [f(q) for q in qs]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))


class TestDeformationDomain:
    @pytest.mark.parametrize("f", [g[0] for g in GASES], ids=GAS_IDS)
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, True,
                                     pytest.param(10 ** 400, id="huge_int")])
    def test_rejects_bad_q(self, f, bad):
        with pytest.raises(DomainError):
            f(bad)

    @pytest.mark.parametrize("f", [g[0] for g in GASES], ids=GAS_IDS)
    def test_accepts_numpy_scalars(self, f):
        # the check GasSpec and q_bracket share: any real but a bool
        assert f(np.float64(2.0)) == f(np.int64(2)) == f(2.0)
        assert f(np.float32(1.5)) == f(1.5)

    @pytest.mark.parametrize("f", [g[0] for g in GASES], ids=GAS_IDS)
    def test_finite_at_extreme_q(self, f):
        # 1 + q^2 or 1 + q^-2 overflows here; the limits are pinned through
        # the CLI in tests/test_cli.py
        assert math.isfinite(f(1e-160)) and math.isfinite(f(1e160))


class TestSmallFugacityLimit:
    @pytest.mark.parametrize("q", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("f,stat,dim", GASES, ids=GAS_IDS)
    def test_curvature_tends_to_coefficient(self, f, stat, dim, q):
        # R -> -(1 + D/2) B as z -> 0, so R and B have opposite signs; the
        # O(z) correction is about 1e-8 at z = 1e-8
        R = curvature_closed_form(GasSpec(stat, q, dim), 1e-8).R_reduced
        assert R == pytest.approx(-(1.0 + dim / 2.0) * f(q), rel=1e-6)


class TestThresholds:
    COEFFICIENTS = {"alpha": alpha, "delta": delta, "eta": eta}

    @pytest.mark.parametrize("kind,root", [
        ("alpha", (2.0 ** (1.0 / 3.0) - 1.0) ** -0.5),
        ("delta", ((3.0 * math.sqrt(2.0)) ** (2.0 / 3.0) - 1.0) ** 0.5),
        ("eta", math.sqrt(2.0)),
    ])
    def test_bisection_matches_closed_form(self, kind, root):
        assert virial_threshold(kind) == pytest.approx(root, abs=1e-15)
        f = self.COEFFICIENTS[kind]
        assert bisect(f, 0.5, 5.0, xtol=1e-10) == pytest.approx(root, abs=1e-8)

    @pytest.mark.parametrize("kind,stat,dim", [
        ("alpha", "fermion", 3),
        ("delta", "boson", 3),
        ("eta", "boson", 2),
    ])
    def test_within_two_ulps_of_mpmath_root(self, kind, stat, dim):
        # the root of B(q) = (2^(1 - D/2) - c Lambda^(-D/2)) / 4 found at 40
        # digits from the coefficient itself, not from the closed form
        c, power = (3, 1) if stat == "boson" else (1, -1)
        with mpmath.workdps(40):
            def coefficient(q):
                return (mpmath.mpf(2) ** (1 - mpmath.mpf(dim) / 2)
                        - c * (1 + q ** (2 * power)) ** (-mpmath.mpf(dim) / 2)) / 4
            want = float(mpmath.findroot(coefficient, (0.5, 5.0), solver="anderson"))
        assert abs(virial_threshold(kind) - want) <= 2.0 * math.ulp(want)

    @pytest.mark.parametrize("kind", ["alpha", "delta", "eta"])
    def test_coefficient_changes_sign_across_root(self, kind):
        q_star = virial_threshold(kind)
        f = self.COEFFICIENTS[kind]
        assert f(q_star * (1.0 - 1e-12)) * f(q_star * (1.0 + 1e-12)) < 0.0

    def test_zeta_has_no_threshold(self):
        assert virial_threshold("zeta") is None

    def test_rejects_unknown_kind(self):
        # an unhashable kind raised TypeError from the table lookup
        for kind in ("gamma", [], None):
            with pytest.raises(DomainError, match=r"kind must be one of \("):
                virial_threshold(kind)

    @pytest.mark.parametrize("kind,stat,dim", [
        ("alpha", "fermion", 3),
        ("delta", "boson", 3),
        ("eta", "boson", 2),
    ])
    def test_sign_ties_to_curvature_at_low_z(self, kind, stat, dim):
        # coefficient > 0 is the fermion-like side (R < 0) and vice versa,
        # checked 0.1 on either side of the threshold at z = 0.01
        q_star = virial_threshold(kind)
        f = self.COEFFICIENTS[kind]
        for q in (q_star - 0.1, q_star + 0.1):
            coeff = f(q)
            R = curvature_closed_form(GasSpec(stat, q, dim), 0.01).R_reduced
            assert coeff * R < 0.0


class TestFugacityFromDensity:
    def test_fermion_d3(self):
        n = 0.2
        want = 0.5 * n + alpha(1.0) * n * n
        assert fugacity_from_density(GasSpec("fermion", 1.0, 3), n) == want

    def test_boson_d3(self):
        n = 0.2
        want = 0.5 * n + delta(1.3) * n * n
        assert fugacity_from_density(GasSpec("boson", 1.3, 3), n) == want

    def test_boson_d2(self):
        n = 0.2
        want = 0.5 * n + eta(0.8) * n * n
        assert fugacity_from_density(GasSpec("boson", 0.8, 2), n) == want

    def test_boson_d2_at_threshold_is_ideal(self):
        # eta(sqrt(2)) = 0 so z = n/2 exactly
        z = fugacity_from_density(GasSpec("boson", math.sqrt(2.0), 2), 0.3)
        assert z == pytest.approx(0.15, abs=1e-16)

    def test_fermion_d2(self):
        n = 0.2
        want = 0.5 * n + zeta_fermion_d2(1.7) * n * n
        assert fugacity_from_density(GasSpec("fermion", 1.7, 2), n) == want

    @pytest.mark.parametrize("q", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("f,stat,dim", GASES, ids=GAS_IDS)
    def test_round_trip_through_moments(self, f, stat, dim, q):
        # the density the moments give at z = 1e-3 inverts back to z
        spec = GasSpec(stat, q, dim)
        g = metric_tensor(spec, 1.0, 1e-3)
        assert fugacity_from_density(spec, g.g12 / spec.p) == pytest.approx(1e-3, rel=1e-5)

    def test_large_density_out_of_range(self):
        with pytest.raises(DomainError):
            fugacity_from_density(GasSpec("boson", 1.0, 3), 10.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_density(self, bad):
        with pytest.raises(DomainError):
            fugacity_from_density(GasSpec("boson", 1.0, 3), bad)
