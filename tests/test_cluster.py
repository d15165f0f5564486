"""The small-z route of `moment_integrals`: moments summed from the cluster expansion."""

import dataclasses
import itertools
import math
from fractions import Fraction

import mp_oracle
import numpy as np
import pytest

from qgasgeo import (
    GasSpec,
    curvature_closed_form,
    curvature_from_moments,
    curvature_sign_boundary,
    moment_integrals,
    quadrature,
)
from qgasgeo.distributions import CLUSTER_ORDER, cluster_coefficients

GASES = [("boson", 2), ("boson", 3), ("fermion", 2), ("fermion", 3)]


def _boundary(dim):
    # the route changes where the first order of every moment, 2 Gamma(D/2) z,
    # reaches ABS_TOL / REL_TOL
    return quadrature.ABS_TOL / quadrature.REL_TOL / (2.0 * math.gamma(dim / 2.0))


def _rel(got, want):
    return abs(got - want) / abs(want)


class TestCoefficients:
    @pytest.mark.parametrize("stat,dim", GASES)
    def test_polylog_orders_at_q1(self, stat, dim):
        # at q = 1, ln F = -2 ln(1 - z e^(-x)) or 2 ln(1 + z e^(-x)), so
        # A_n = (+-1)^(n-1) 2 Gamma(D/2) / n^(D/2 + 1).  The partition sum
        # of order n cancels terms of total size up to about 3.4^n |A_n|, so
        # order n is allowed 4^n ulps (measured: 1e-15 at n <= 4, 6.5e-12 at n = 11)
        sign = 1.0 if stat == "boson" else -1.0
        n = np.arange(1, CLUSTER_ORDER + 2)
        want = sign ** (n - 1) * 2.0 * math.gamma(dim / 2.0) / n ** (dim / 2.0 + 1.0)
        got = cluster_coefficients(GasSpec(stat, 1.0, dim))
        assert (np.abs(got / want - 1.0) <= 4.0 ** n * np.finfo(float).eps).all()

    @pytest.mark.parametrize("stat,dim", GASES)
    def test_extreme_deformations_stay_finite(self, stat, dim):
        # {m} = inf past q^(2m) overflow and q^-2 = inf below 1.3e-154 drop their terms
        for q in (1e-160, 1e160):
            assert np.isfinite(cluster_coefficients(GasSpec(stat, q, dim))).all()


class TestCoefficientMemo:
    """The series route keeps its weights once per gas value in
    `quadrature._series_weights`; `cluster_coefficients` keeps nothing."""

    @pytest.mark.parametrize("stat,dim", GASES)
    def test_memo_is_bit_identical(self, stat, dim):
        for q in (1e-160, 1e-3, 0.5, 1.0, 1.15, 10.0, 1e3, 1e160):
            spec = GasSpec(stat, q, dim)
            quadrature._series_weights(spec)
            fresh = quadrature._series_weights.__wrapped__(spec)
            assert repr(quadrature._series_weights(spec)) == repr(fresh)

    def test_coefficients_are_fresh_and_writable(self):
        spec = GasSpec("boson", 1.15, 2)
        first, second = cluster_coefficients(spec), cluster_coefficients(spec)
        assert first is not second
        assert first.tobytes() == second.tobytes()
        assert first.flags.writeable and second.flags.writeable
        first[0] = 0.0
        assert second[0] != 0.0

    def test_keyed_by_spec_value(self):
        same = [quadrature._series_weights(GasSpec("fermion", q, 3))
                for q in (2, 2.0, np.float64(2.0))]
        assert same[1] is same[0] and same[2] is same[0]
        one = quadrature._series_weights(GasSpec("fermion", 1.0, 3))
        assert quadrature._series_weights(GasSpec("fermion", np.nextafter(1.0, 2.0), 3)) is not one

    def test_bounded(self):
        maxsize = quadrature._series_weights.cache_info().maxsize
        assert maxsize is not None
        for q in np.geomspace(0.5, 2.0, 1000):
            quadrature._series_weights(GasSpec("boson", float(q), 3))
        assert quadrature._series_weights.cache_info().currsize <= maxsize


class TestSeriesSums:
    """a and the excesses b - a, c - a, d - a, summed by Horner's rule in
    plain floats, against the same sums of the float A_n in exact rational
    arithmetic (measured: within 1.34 eps)."""

    @pytest.mark.parametrize("stat,dim", GASES)
    @pytest.mark.parametrize("q", [1e-3, 0.5, 1.15, 1e3])
    def test_within_four_eps_of_exact_sums(self, stat, dim, q):
        spec = GasSpec(stat, q, dim)
        A = [Fraction(x) for x in cluster_coefficients(spec)[:CLUSTER_ORDER]]
        for z in (1e-8, 1e-4, 4e-3):
            m = quadrature._series_moments(spec, z)
            for k, got in enumerate((m.a,) + m.excess):
                # weights n^k for a, n^k - 1 for the excesses
                exact = sum(a * (n ** k - (k > 0)) * Fraction(z) ** n for n, a in enumerate(A, 1))
                assert abs(Fraction(got) - exact) <= 4 * np.finfo(float).eps * abs(exact)


_ORACLE_CASES = (
    [(stat, dim, q, z) for (stat, dim), q, z in itertools.product(
        GASES, (0.5, 1.0, 1.15, 10.0), (1e-8, 1e-6, 1e-4))]
    # where the quadrature left R 7.8e-4 and 7.0e-6 off
    + [("fermion", 2, 1000.0, 1e-6), ("boson", 3, 10.0, 1e-6)]
    # the ROADMAP table, where R was 1.3e-7 to 1.9e-5 off
    + [("boson", 2, 1.15, 1e-8), ("boson", 3, 0.8, 1e-8), ("fermion", 3, 2.0, 1e-8)]
    # B(q) ~ q^-2 / 4 of the D = 2 fermion all but vanishes: summed in floats,
    # A_2 = -1 + 1 / (1 + q^-2) would leave R 3.2e-9 and 1.0e-8 off
    + [("fermion", 2, 1e4, 1e-8), ("fermion", 2, 1e6, 1e-8)])

# R is small against the moments it is formed from, so the rounding of the
# moments weighs more: next to the sign boundary at q* = 1.96 and where B(q)
# ~ q^-2 / 4 all but vanishes.  Measured 1.2e-14, 1.9e-14 and 4.7e-14.
_ILL_CONDITIONED = {("fermion", 3, 2.0, 1e-8), ("fermion", 2, 1e4, 1e-8),
                    ("fermion", 2, 1e6, 1e-8)}


class TestAgainstMpOracle:
    @pytest.mark.parametrize("stat,dim,q,z", _ORACLE_CASES)
    def test_curvature(self, stat, dim, q, z):
        r = curvature_closed_form(GasSpec(stat, q, dim), z)
        assert r.moments.route == "series"
        want = float(mp_oracle.curvature(stat, dim, q, z))
        rel = 1e-13 if (stat, dim, q, z) in _ILL_CONDITIONED else 1e-14
        assert r.R_reduced == pytest.approx(want, rel=rel, abs=0.0)


# Just above the boundary the quadrature misses the feature at x ~ q^-2
# (boson) or q^2 (fermion) at extreme q, with its error estimate inside the
# tolerance, where the series would be 2e-15 off.  Widening the series route
# past these z would mend them.
_ABOVE_BOUNDARY_MISSES = [
    pytest.param(stat, dim, q, z, marks=pytest.mark.xfail(
        strict=True, reason=f"R off by {miss} relative, no error raised"))
    for stat, dim, q, z, miss in [
        ("boson", 2, 1000.0, 5.05e-3, "3.0e-6"),
        ("fermion", 2, 0.001, 5.05e-3, "9.9e-7"),
        ("fermion", 2, 0.001, 0.01, "9.8e-7"),
        ("boson", 3, 1000.0, 5.7e-3, "4.1e-9"),
        ("fermion", 3, 0.001, 5.7e-3, "1.4e-9"),
    ]]


class TestRouteBoundary:
    @pytest.mark.parametrize("stat,dim", GASES)
    @pytest.mark.parametrize("q", [0.5, 1.15])
    @pytest.mark.parametrize("side,route", [(0.99, "series"), (1.01, "quadrature")])
    def test_routes_agree_and_are_named(self, stat, dim, q, side, route):
        spec = GasSpec(stat, q, dim)
        z = side * _boundary(dim)
        taken = moment_integrals(spec, z)
        assert taken.route == route
        series = quadrature._series_moments(spec, z)
        quad = quadrature._quadrature_moments(spec, z)
        assert (series.route, quad.route) == ("series", "quadrature")
        assert _rel(curvature_from_moments(series).R_reduced,
                    curvature_from_moments(quad).R_reduced) <= 1e-11
        for s, t in zip(series, quad):
            assert _rel(s, t) <= 1e-11

    @pytest.mark.parametrize("stat,dim,q,z", _ABOVE_BOUNDARY_MISSES)
    def test_quadrature_above_boundary_at_extreme_q(self, stat, dim, q, z):
        want = float(mp_oracle.curvature(stat, dim, q, z))
        got = curvature_closed_form(GasSpec(stat, q, dim), z).R_reduced
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("stat,dim", GASES)
    @pytest.mark.parametrize("q", [0.5, 1.15])
    def test_route_one_ulp_either_side(self, stat, dim, q):
        # the route test 2 Gamma(D/2) z < ABS_TOL / REL_TOL splits the floats
        # exactly where it is written to: the boundary itself is quadrature
        spec = GasSpec(stat, q, dim)
        z = _boundary(dim)
        routes = [moment_integrals(spec, np.nextafter(z, side)).route
                  for side in (0.0, z, 1.0)]
        assert routes == ["series", "quadrature", "quadrature"]

    def test_series_record(self):
        m = moment_integrals(GasSpec("boson", 1.15, 2), 1e-3)
        assert m.route == "series"
        assert (m.neval, m.intervals) == (0, 0)
        assert 0.0 < m.est_error < 2.0 ** -56 * m.a
        assert m.excess == pytest.approx((m.b - m.a, m.c - m.a, m.d - m.a), rel=1e-12)

    @pytest.mark.parametrize("z,route", [(1e-3, "series"), (0.5, "quadrature")])
    def test_records_are_immutable(self, z, route):
        r = curvature_closed_form(GasSpec("fermion", 2.0, 3), z)
        m = r.moments
        assert m.route == route
        assert tuple(m) == (m.a, m.b, m.c, m.d)
        for record, field in ((m, "a"), (m, "excess"), (m, "route"), (r, "R_reduced"),
                              (r, "moments")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, field)
        assert dataclasses.replace(m, z=m.z) == m
        assert dataclasses.replace(r, R_reduced=r.R_reduced) == r

    def test_quadrature_record(self):
        m = moment_integrals(GasSpec("boson", 1.15, 2), 0.5)
        assert m.route == "quadrature"
        assert m.neval > 0 and m.intervals > 0
        assert m.excess is None

    @pytest.mark.parametrize("stat,lo,hi,root", [
        ("boson", 1.1, 1.5, 1.2721679687500003),
        ("fermion", 1.5, 2.5, 1.97515869140625),
    ])
    def test_search_on_series_route(self, monkeypatch, stat, lo, hi, root):
        # at z = 10^-2.3 every evaluation of a D = 3 search is a series point
        def no_quadrature(spec, z):
            raise AssertionError(f"quadrature route taken for {spec} at z = {z}")

        monkeypatch.setattr(quadrature, "_quadrature_moments", no_quadrature)
        assert curvature_sign_boundary(GasSpec(stat, 1.0, 3), 10.0 ** -2.3, lo, hi) == root

    def test_unconverged_series_falls_back(self, monkeypatch):
        # a first omitted order that is not below the bound sends z to quadrature
        monkeypatch.setattr(quadrature, "_SERIES_REL", 0.0)
        m = moment_integrals(GasSpec("boson", 1.15, 2), 1e-3)
        assert m.route == "quadrature"
        assert m.neval > 0

