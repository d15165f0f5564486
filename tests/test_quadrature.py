"""Adaptive moment integrals against polylogarithm and termwise oracles."""

import itertools
import math

import mp_oracle
import numpy as np
import pytest

from qgasgeo import (
    GasSpec,
    ToleranceError,
    checks,
    moment_integrals,
    quadrature,
)

SQRT_PI = math.sqrt(math.pi)


class TestPolylogOracle:
    def test_frozen_boson_d3_values(self):
        # sqrt(pi) Li_s(1/2) for s = 5/2, 3/2, 1/2, -1/2 at 50 digits
        m = moment_integrals(GasSpec("boson", 1.0, 3), 0.5)
        assert m.a == pytest.approx(0.98370706390493665751, rel=1e-10)
        assert m.b == pytest.approx(1.1074947837405864033, rel=1e-10)
        assert m.c == pytest.approx(1.4288224145751478733, rel=1e-10)
        assert m.d == pytest.approx(2.387945102183389213, rel=1e-10)

    def test_frozen_fermion_d2_large_z(self):
        # a = -2 Li_2(-10); d = -2 Li_{-1}(-10) = 20/121 exactly
        m = moment_integrals(GasSpec("fermion", 1.0, 2), 10.0)
        assert m.a == pytest.approx(8.3965557737162077158, rel=1e-10)
        assert m.d == pytest.approx(20.0 / 121.0, rel=1e-10)

    def test_selfcheck_table_is_the_rounded_polylogs(self):
        # each of the 48 values the selfcheck compares with is the
        # polylogarithm at 30 digits rounded once to a double
        for (stat, dim, z), row in checks.POLYLOG_Q1.items():
            assert [float(v) for v in mp_oracle.polylog_moments(stat, dim, z)] == list(row)


class TestSmallZTermwise:
    def test_three_order_expansion(self):
        # termwise exact integration of ln f expanded to z^3 with q = 1/2,
        # nu = 0: each e^(-x(sum of brackets)) integrates to 1/(sum);
        # 50-digit value 0.10365873015873015873, residual is O(z^4)
        m = moment_integrals(GasSpec("boson", 0.5, 2), 0.05)
        assert m.a == pytest.approx(0.10365873015873015873, rel=3e-4)
        # and not closer than the z^4 term, as a guard against a dead test
        assert abs(m.a - 0.10365873015873015873) / m.a > 1e-6


class TestMomentStructure:
    @pytest.mark.parametrize("q", [0.5, 1.0])
    @pytest.mark.parametrize("dim", [3, 2])
    def test_boson_moment_ordering(self, q, dim):
        # each theta weights larger occupations more, so c >= b >= a
        for z in (0.1, 0.5, 0.9):
            m = moment_integrals(GasSpec("boson", q, dim), z)
            assert m.c >= m.b >= m.a > 0.0

    @pytest.mark.parametrize("spec", [
        GasSpec("boson", 0.7, 3),
        GasSpec("boson", 1.5, 2),
        GasSpec("fermion", 0.7, 3),
        GasSpec("fermion", 3.0, 2),
    ])
    def test_pressure_and_density_monotone_in_z(self, spec):
        # a (pressure) and b (density) grow with fugacity; the higher
        # cumulants c and d need not, e.g. bosons at q = 1.5 near z = 0.7
        prev = None
        for z in (0.2, 0.4, 0.6, 0.8):
            m = moment_integrals(spec, z)
            if prev is not None:
                assert m.a > prev.a and m.b > prev.b
            prev = m

    @pytest.mark.parametrize("stat,z", [
        ("boson", 0.5), ("boson", 0.999), ("fermion", 2.0), ("fermion", 100.0)])
    @pytest.mark.parametrize("dim", [3, 2])
    def test_est_error_bounds_true_error(self, stat, z, dim):
        # the reported error estimate covers the distance to the polylogarithms
        spec = GasSpec(stat, 1.0, dim)
        m = moment_integrals(spec, z)
        for got, want in zip(m, mp_oracle.polylog_moments(stat, dim, z)):
            assert abs(got - want) <= m.est_error

    def test_est_error_is_small(self):
        m = moment_integrals(GasSpec("boson", 1.15, 2), 0.9)
        assert 0.0 <= m.est_error < 1e-8

    def test_large_deformation_finite(self):
        # bracket overflow to inf upstream must not leak into the integrals
        m = moment_integrals(GasSpec("boson", 50.0, 2), 0.5)
        assert all(math.isfinite(v) for v in m)
        assert m.a > 0.0


# both statistics x D x q x z, plus the fermion gas at z = 5 for every D and q
_PARITY_CASES = (
    [(stat, dim, q, z) for stat, dim, q, z in itertools.product(
        ("boson", "fermion"), (2, 3), (0.5, 1.0, 1.15, 2.0), (1e-6, 0.5, 0.99))]
    + [("fermion", dim, q, 5.0) for dim, q in itertools.product((2, 3), (0.5, 1.0, 1.15, 2.0))])


class TestBatchedIntegrator:
    @pytest.mark.parametrize("stat,dim,q,z", _PARITY_CASES)
    def test_parity_with_scipy_quad_vec(self, stat, dim, q, z, monkeypatch):
        # the same adaptive rules as scipy's one-abscissa-per-call quad_vec:
        # equal evaluation and interval counts, moments to 1e-13 relative.
        # z = 1e-6 takes the series route in moment_integrals, so both sides
        # call the quadrature route directly
        integrate = pytest.importorskip("scipy.integrate")
        spec = GasSpec(stat, q, dim)
        got = quadrature._quadrature_moments(spec, z)

        def scalar_quad_vec(f, a, b):
            return integrate.quad_vec(lambda x: f(np.array([x]))[0], a, b,
                                      epsabs=quadrature.ABS_TOL, epsrel=quadrature.REL_TOL,
                                      norm="max", limit=quadrature.MAX_SUBDIVISIONS,
                                      full_output=True)

        monkeypatch.setattr(quadrature, "quad_vec", scalar_quad_vec)
        want = quadrature._quadrature_moments(spec, z)
        assert (got.neval, got.intervals) == (want.neval, want.intervals)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-13, abs=0.0)
        assert got.est_error == pytest.approx(want.est_error, rel=1e-6)

    def test_counts_on_moment_set(self):
        # 21 abscissae for the first panel, 42 per bisection: 21 bisections
        m = moment_integrals(GasSpec("boson", 1.15, 2), 0.97)
        assert m.neval == 903
        assert m.intervals == 22

    def test_subdivision_budget_raises_with_estimate(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 3)
        with pytest.raises(ToleranceError) as info:
            moment_integrals(GasSpec("boson", 1.15, 2), 0.97)
        assert math.isfinite(info.value.est_error)
        assert info.value.est_error > 0.0

    def test_nan_integrand_raises(self, monkeypatch):
        def nan_kernel(spec, z):
            return lambda x: np.full((len(x), 4), math.nan)

        monkeypatch.setattr(quadrature, "cumulant_kernel", nan_kernel)
        with pytest.raises(ToleranceError):
            moment_integrals(GasSpec("fermion", 1.0, 2), 0.5)

    def test_undecaying_integrand_raises_at_the_tail_cutoff(self, monkeypatch):
        def flat_kernel(spec, z):
            return lambda x: np.ones((len(x), 4))

        monkeypatch.setattr(quadrature, "cumulant_kernel", flat_kernel)
        with pytest.raises(ToleranceError, match=r"no integrand decay .* by x = ") as info:
            moment_integrals(GasSpec("boson", 1.15, 2), 0.5)
        assert info.value.est_error == math.inf
        assert float(str(info.value).rsplit("x = ", 1)[1]) > 1e6

    def test_one_kernel_call_per_refinement_step(self, monkeypatch):
        calls = []
        kernel = quadrature.cumulant_kernel

        def counting_kernel(spec, z):
            lfun = kernel(spec, z)

            def f(x):
                calls.append(len(x))
                return lfun(x)

            return f

        monkeypatch.setattr(quadrature, "cumulant_kernel", counting_kernel)
        m = moment_integrals(GasSpec("boson", 1.15, 2), 0.97)
        # one tail-cutoff probe, the first panel, then both halves of every
        # interval a step bisects in one call
        assert calls[:2] == [1, 21]
        assert sum(calls[1:]) == m.neval
        assert all(n % 42 == 0 for n in calls[2:])
