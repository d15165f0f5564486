"""Adaptive moment integrals against polylogarithm and termwise oracles."""

import itertools
import math

import mp_oracle
import numpy as np
import pytest
from mpmath import mp, mpf, zeta

from qgasgeo import (
    GasSpec,
    ToleranceError,
    _polylog,
    checks,
    curvature_closed_form,
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
        # each of the 56 values the selfcheck compares with is the
        # polylogarithm at 30 digits rounded once to a double
        for (stat, dim, z), row in checks.POLYLOG_Q1.items():
            assert [float(v) for v in mp_oracle.polylog_moments(stat, dim, z)] == list(row)

    # the quadrature raises ToleranceError from 1 - z = 1e-8 on at q = 1
    @pytest.mark.parametrize("stat,dim,z", [key for key in checks.POLYLOG_Q1
                                            if not (key[0] == "boson" and key[2] > 0.99)])
    def test_quadrature_route_against_table(self, stat, dim, z):
        # the polylog route answers the q = 1 bosons in moment_integrals, so
        # the quadrature is checked against the committed values directly
        m = quadrature._quadrature_moments(GasSpec(stat, 1.0, dim), z)
        for got, want in zip(m, checks.POLYLOG_Q1[stat, dim, z]):
            assert got == pytest.approx(want, rel=1e-8, abs=0.0)
            assert abs(got - want) <= m.est_error


# q = 1 boson points of the polylog route: just above the series boundary
# (5.0e-3 at D = 2, 5.6e-3 at D = 3), the switch at 3/4 with its
# neighbouring floats, and the edge
_POLYLOG_CASES = [(2, 5.05e-3)] + list(itertools.product((2, 3), (
    [5.7e-3, 0.01, 0.05, 0.1, 0.3, 0.5, 0.6]
    + [float(np.nextafter(0.75, side)) for side in (0.0, 1.0)]
    + [0.75, 0.8, 0.9, 0.99, 1.0 - 1e-5, 1.0 - 1e-8, 1.0 - 1e-12])))


class TestPolylogRoute:
    @pytest.mark.parametrize("dim,z", _POLYLOG_CASES)
    def test_curvature_against_polylog_moments(self, dim, z):
        r = curvature_closed_form(GasSpec("boson", 1.0, dim), z)
        assert r.moments.route == "polylog"
        with mp.workdps(mp_oracle.DIGITS + 8):
            want = mp_oracle.polylog_moments("boson", dim, z)
            want_r = float(mp_oracle.curvature_from_moments(dim, *want))
        assert r.R_reduced == pytest.approx(want_r, rel=1e-14, abs=0.0)
        for got, w in zip(r.moments, want):
            assert abs(got - w) <= r.moments.est_error
        # a and the excesses up to 3/4, the four moments above it
        assert (r.moments.excess is None) == (z > 0.75)
        assert (r.moments.neval, r.moments.intervals) == (0, 0)

    def test_zeta_literals(self):
        # zeta(5/2 - j), recomputed at 40 digits, within one ulp
        with mp.workdps(40):
            for j, value in enumerate(_polylog.ZETA_HALF_INTEGERS):
                exact = zeta(mpf(5) / 2 - j)
                assert abs(mpf(value) - exact) <= math.ulp(value), j

    @pytest.mark.parametrize("stat,q", [
        (stat, q) for stat in ("boson", "fermion")
        for q in (0.5, float(np.nextafter(1.0, 0.0)), 1.0, float(np.nextafter(1.0, 2.0)), 2.0)
        if (stat, q) != ("boson", 1.0)])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_other_gases_keep_their_routes(self, stat, q, dim):
        # only the q = 1 boson moves to the polylog route: every other gas
        # gets, bit for bit, the series where it answers and else the quadrature
        spec = GasSpec(stat, q, dim)
        for z in (1e-3, 7e-3, 0.3, 0.9):
            want = quadrature._series_moments(spec, z) if z < 5e-3 else None
            want = want or quadrature._quadrature_moments(spec, z)
            assert repr(moment_integrals(spec, z)) == repr(want)


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
        ("boson", 0.5), ("boson", 0.999), ("fermion", 2.0), ("fermion", 100.0),
        ("boson", 1e-3), ("fermion", 1e-3)])
    @pytest.mark.parametrize("dim", [3, 2])
    def test_est_error_bounds_true_error(self, stat, z, dim):
        # the reported error estimate covers the distance to the
        # polylogarithms, on the series route (z = 1e-3) its rounding too
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

    def test_tail_cutoff_on_moment_set(self):
        # the start ln(2 / ABS_TOL) + 5 where the bound certifies it; at
        # q = 0.5 near z = 1 the probe grows it twice by 1.25
        start = math.log(2.0 / quadrature.ABS_TOL) + quadrature._X_MAX_PAD
        assert moment_integrals(GasSpec("boson", 1.15, 2), 0.97).x_max == start
        assert moment_integrals(GasSpec("boson", 0.5, 2), 0.999).x_max > start
        assert moment_integrals(GasSpec("boson", 1.0, 2), 0.5).x_max == 0.0
        assert moment_integrals(GasSpec("boson", 1.15, 2), 1e-4).x_max == 0.0

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
        # at q = 0.5 near z = 1 the bound cannot certify the start, so the
        # flat kernel is probed
        with pytest.raises(ToleranceError, match=r"no integrand decay .* for GasSpec\(.*"
                           r"q=0\.5.*\) at z = 0\.999 by x = ") as info:
            moment_integrals(GasSpec("boson", 0.5, 2), 0.999)
        assert info.value.est_error == math.inf
        assert float(str(info.value).rsplit("x = ", 1)[1]) > 1e6

    @staticmethod
    def _kernel_calls(spec, z, monkeypatch):
        """The MomentSet at (spec, z) and the abscissa count of each kernel call."""
        calls = []
        kernel = quadrature.cumulant_kernel

        def counting_kernel(spec, z):
            lfun = kernel(spec, z)

            def f(x):
                calls.append(len(x))
                return lfun(x)

            return f

        monkeypatch.setattr(quadrature, "cumulant_kernel", counting_kernel)
        return moment_integrals(spec, z), calls

    def test_one_kernel_call_per_refinement_step(self, monkeypatch):
        m, calls = self._kernel_calls(GasSpec("boson", 1.15, 2), 0.97, monkeypatch)
        # the bound certifies the tail cutoff, so no probe: the first panel,
        # then both halves of every interval a step bisects in one call
        assert calls[0] == 21
        assert sum(calls) == m.neval
        assert all(n % 42 == 0 for n in calls[1:])

    def test_tail_cutoff_probes_where_the_bound_cannot_certify(self, monkeypatch):
        m, calls = self._kernel_calls(GasSpec("boson", 0.5, 2), 0.999, monkeypatch)
        # three one-abscissa probes grow x_max twice by 1.25, then the panels
        assert calls[:4] == [1, 1, 1, 21]
        assert sum(calls[3:]) == m.neval
        assert all(n % 42 == 0 for n in calls[4:])
