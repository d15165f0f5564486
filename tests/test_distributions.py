"""Series and closed-form integrand sums and their theta-cumulants."""

import math
import tracemalloc

import mp_oracle
import numpy as np
import pytest
from mpmath import mp, mpf

from qgasgeo import (
    DomainError,
    GasSpec,
    ToleranceError,
    cumulant_kernel,
    q_bracket,
)
from qgasgeo.core import LOG_MAX
from qgasgeo.distributions import (
    MAX_TERMS,
    SERIES_TOL,
    BosonThetaSeries,
    _fermion_excess_sums,
    _q1_sums,
    fermion_h_sums,
)
from qgasgeo.quadrature import _GK21_NODES


class TestBosonThetaSums:
    def test_x0_geometric_identity(self):
        # sum (m+1) t^m = (1-t)^(-2), so F0 - 1 = 3 at t = 1/2
        s0, _, _, _ = BosonThetaSeries(0.5, 0.7).excess_sums(0.0)[0]
        assert s0 == pytest.approx(3.0, rel=1e-14)

    def test_q1_derivative_geometric_sum(self):
        s0, _, _, _ = BosonThetaSeries(0.5, 1.0).excess_sums(1.0)[0]
        want = (1.0 - 0.5 * math.exp(-1.0)) ** -2
        assert 1.0 + s0 == pytest.approx(want, rel=1e-14)

    def test_q1_closed_form_absolute(self):
        # |F0 - (1 - z e^(-x))^(-2)| below 1e-12 across the working window
        for z in (0.1, 0.5, 0.9):
            series = BosonThetaSeries(z, 1.0)
            for x in np.linspace(0.0, 50.0, 26):
                s0, _, _, _ = series.excess_sums(float(x))[0]
                want = (1.0 - z * math.exp(-x)) ** -2
                assert abs(1.0 + s0 - want) < 1e-12

    def test_q2_brute_force_values(self):
        # 50-digit 300-term direct summation; {m} = (4^m - 1)/3 makes the
        # terms decay double-exponentially
        s0, f1, f2, f3 = BosonThetaSeries(0.5, 2.0).excess_sums(1.0)[0]
        want = (1.3729329017998844433, 0.37798636280745458643,
                0.38809328558085091545, 0.40830713340241170186)
        for g, w in zip((1.0 + s0, f1, f2, f3), want):
            assert g == pytest.approx(w, rel=1e-14)

    def test_large_q_bracket_overflow_is_benign(self):
        # {m} overflows to inf for q = 50 at modest m; e^(-x inf) = 0 terms
        F = BosonThetaSeries(0.9, 50.0).excess_sums(2.0)[0]
        assert all(math.isfinite(v) for v in F)
        assert F[0] >= 0.0

    def test_rejects_out_of_domain(self):
        with pytest.raises(DomainError):
            BosonThetaSeries(1.5, 0.5)
        with pytest.raises(DomainError):
            BosonThetaSeries(0.5, 0.5).excess_sums(-1.0)

    @pytest.mark.parametrize("q", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_q(self, q):
        with pytest.raises(DomainError, match="deformation parameter q must be finite and > 0"):
            BosonThetaSeries(0.5, q)

    def test_nonconvergence_raises(self):
        # the k = 3 terms peak near m = 4 / (1 - z) = 4e5 and are still above
        # SERIES_TOL of their sum at MAX_TERMS, and so close to q = 1 the head
        # length K (about 3.5e6 at q = 1.0001) does not stop the doubling first
        for q in (1.0001, 0.9999):
            with pytest.raises(ToleranceError):
                BosonThetaSeries(1.0 - 1e-5, q)

    def test_term_cap_error_has_no_estimate(self):
        with pytest.raises(ToleranceError, match="boson series") as info:
            BosonThetaSeries(1.0 - 1e-5, 1.0001)
        assert info.value.est_error == math.inf

    @pytest.mark.parametrize("q", [0.99963, 1.00035])
    def test_series_at_term_cap_still_converges(self, q):
        # just outside the term-cap band the doubling rule stops at
        # MAX_TERMS exactly: a SERIES_TOL of 2^-56 would need more terms here
        assert len(BosonThetaSeries(1.0 - 3.9e-5, q)._m) == MAX_TERMS


class TestFermionHSums:
    def test_x0_perfect_square(self):
        F0, F1, F2, F3 = fermion_h_sums(0.0, 3.0, 0.7)
        assert F0 == pytest.approx(16.0, rel=1e-15)  # (1+z)^2
        assert F1 == pytest.approx(2 * 3 + 2 * 9, rel=1e-15)

    def test_q1_single_species_square(self):
        F0, _, _, _ = fermion_h_sums(2.0, 0.5, 1.0)
        want = (1.0 + 0.5 * math.exp(-2.0)) ** 2
        assert abs(F0 - want) < 1e-14

    def test_q1_factorization_grid(self):
        for z in (0.1, 0.5, 2.0, 10.0):
            for x in np.linspace(0.0, 5.0, 11):
                F0, _, _, _ = fermion_h_sums(float(x), z, 1.0)
                want = (1.0 + z * math.exp(-x)) ** 2
                assert abs(F0 - want) < 1e-13 * max(1.0, want)

    def test_direct_substitution_q10(self):
        # u = 4 e^(-1), v = 4 e^(-1.01)
        F0, F1, F2, F3 = fermion_h_sums(1.0, 2.0, 10.0)
        u = 4.0 * math.exp(-1.0)
        v = 4.0 * math.exp(-1.01)
        assert F0 == pytest.approx(1.0 + u + v, rel=1e-15)
        assert F1 == pytest.approx(u + 2 * v, rel=1e-15)
        assert F2 == pytest.approx(u + 4 * v, rel=1e-15)
        assert F3 == pytest.approx(u + 8 * v, rel=1e-15)

    @pytest.mark.parametrize("z,q", [
        (0.5, -2.0), (0.5, 0.0), (0.5, math.nan), (-0.5, 2.0), (math.nan, 2.0), (1e160, 2.0),
    ])
    def test_rejects_what_the_kernel_rejects(self, z, q):
        def message(call):
            with pytest.raises(DomainError) as err:
                call()
            return str(err.value)

        want = message(lambda: cumulant_kernel(GasSpec("fermion", q, 2), z))
        assert message(lambda: fermion_h_sums(1.0, z, q)) == want

    @pytest.mark.parametrize("x", [np.array([1.0, 2.0]), np.array([1.0]), [1.0]])
    def test_rejects_non_scalar_abscissa(self, x):
        with pytest.raises(DomainError, match="x must be a scalar >= 0"):
            fermion_h_sums(x, 0.5, 1.0)


class TestLogMoments:
    def test_fermion_x0_mean_occupation(self):
        # F0 = (1+z)^2, F1 = 2z + 2z^2 so L1 = 2z/(1+z)
        for z in (0.2, 1.0, 5.0):
            L = cumulant_kernel(GasSpec("fermion", 1.3, 2), z)(np.array([0.0]))[0]
            assert L[1] == pytest.approx(2 * z / (1 + z), rel=1e-14)

    def test_boson_q1_log_closed_form(self):
        x = np.array([0.0, 0.7, 3.0])
        L0 = cumulant_kernel(GasSpec("boson", 1.0, 3), 0.5)(x)[:, 0]
        want = -2.0 * np.log1p(-0.5 * np.exp(-x))
        np.testing.assert_allclose(L0, want, rtol=1e-13, atol=0.0)

    def test_boson_brute_force_cumulants(self):
        # 50-digit 400-term direct summation at (x, z, q) = (1, 0.5, 0.5)
        L = cumulant_kernel(GasSpec("boson", 0.5, 2), 0.5)(np.array([1.0]))[0]
        assert L[0] == pytest.approx(0.64999672766858614045, rel=1e-13)
        assert L[1] == pytest.approx(1.178707415237278267, rel=1e-13)
        assert L[2] == pytest.approx(3.1221809579371459233, rel=1e-13)
        assert L[3] == pytest.approx(11.726584905927780901, rel=1e-13)

    @pytest.mark.parametrize("spec,z", [
        (GasSpec("boson", 0.5, 2), 0.3),
        (GasSpec("boson", 1.15, 3), 0.8),
        (GasSpec("fermion", 2.0, 3), 4.0),
        (GasSpec("fermion", 0.7, 2), 0.6),
    ])
    def test_theta_derivative_consistency(self, spec, z):
        # L_{k+1} must be the theta-derivative z d/dz of L_k
        h = 1e-5 * z
        x = np.array([0.0, 0.9, 2.5])
        up = cumulant_kernel(spec, z + h)(x)
        dn = cumulant_kernel(spec, z - h)(x)
        mid = cumulant_kernel(spec, z)(x)
        fd = z * (up[:, :3] - dn[:, :3]) / (2.0 * h)
        np.testing.assert_allclose(mid[:, 1:], fd, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("spec,z", [
        (GasSpec("boson", 0.5, 2), 0.9),
        (GasSpec("boson", 2.0, 3), 0.5),
        (GasSpec("fermion", 10.0, 3), 10.0),
        (GasSpec("fermion", 1.0, 2), 0.1),
    ])
    def test_positivity(self, spec, z):
        L = cumulant_kernel(spec, z)(np.array([0.0, 0.5, 2.0, 10.0]))
        assert np.all(L[:, 0] >= 0.0)
        assert np.all(L[:, 1] > 0.0)
        assert np.all(L[:, 2] >= 0.0)


def _raw_excess_sums(z, q, x, M):
    """(F0 - 1, F1, F2, F3) as plain exactly-rounded sums of the first M terms."""
    m = np.arange(M, dtype=float)
    with np.errstate(over="ignore"):
        t = (m + 1.0) * z ** m * np.exp(-x * np.asarray(q_bracket(m, q)))
    return (math.fsum(t[1:]), math.fsum(t * m), math.fsum(t * m * m), math.fsum(t * m ** 3))


class TestKernelTruncation:
    """BosonThetaSeries sums only what each abscissa needs (per-x cut, closed q = 1 form)."""

    @pytest.mark.parametrize("w", [1e-12, 1e-6, 0.01, 0.3, 0.9, 0.999])
    def test_q1_closed_form_matches_raw_series(self, w):
        got = BosonThetaSeries(w, 1.0).excess_sums(0.0)[0]
        want = _raw_excess_sums(w, 1.0, 0.0, _doubling_rule_length(w))
        for g, v in zip(got, want):
            assert g == pytest.approx(v, rel=1e-14, abs=0.0)
        # and at x > 0, where w = z e^(-x)
        got = BosonThetaSeries(0.9999, 1.0).excess_sums(-math.log(w / 0.9999))[0]
        for g, v in zip(got, want):
            assert g == pytest.approx(v, rel=1e-14, abs=0.0)

    def test_q1_excess_without_cancellation(self):
        # (1 - w)^(-2) - 1 would lose about 5e-5 relative at w = 1e-12
        w = 1e-12
        s0 = BosonThetaSeries(w, 1.0).excess_sums(0.0)[0, 0]
        assert s0 == pytest.approx(2.0 * w + 3.0 * w * w, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("q", [1.01, 1.15, 2.0, 1000.0])
    @pytest.mark.parametrize("z", [0.05, 0.999])
    def test_q_above_1_cut_drops_only_zeros(self, q, z):
        series = BosonThetaSeries(z, q)
        M = len(series._m)
        m = np.arange(M, dtype=float)
        br = np.asarray(q_bracket(m, q))
        for x in np.geomspace(1e-8, 50.0, 25):
            x = float(x)
            k = series.cut(np.array([x]))
            with np.errstate(over="ignore"):
                assert np.all(np.exp(-x * br[k:]) == 0.0)
            for g, v in zip(series.excess_sums(x)[0], _raw_excess_sums(z, q, x, M)):
                assert g == pytest.approx(v, rel=1e-14, abs=0.0)

    def test_cut_survives_overflowing_ratio(self):
        # 746 (q^2 - 1) / x overflows a float here
        series = BosonThetaSeries(0.5, 1000.0)
        x = 5e-324
        want = _raw_excess_sums(0.5, 1000.0, x, len(series._m))
        for g, v in zip(series.excess_sums(x)[0], want):
            assert g == pytest.approx(v, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("with_zero", [False, True])
    @pytest.mark.parametrize("q", [0.5, 0.8, 1.15, 2.0, 1000.0])
    @pytest.mark.parametrize("z", [0.05, 0.999])
    def test_block_cut_is_the_longest_row_cut(self, q, z, with_zero):
        # one head width per block: k at its smallest abscissa for q > 1 and
        # at its largest for q < 1, in any order of the rows
        series = BosonThetaSeries(z, q)
        x = np.geomspace(1e-12, 60.0, 50)
        if with_zero:
            x = np.append(x, 0.0)
        np.random.default_rng(7).shuffle(x)
        k = series.cut(x)
        assert type(k) is int
        assert k == max(series.cut(np.array([v])) for v in x)
        assert series.excess_sums(np.empty(0)).shape == (0, 4)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("q,x,want", [
        (1.15, [], 2),
        (0.5, [], 0),
        (1.15, [1.0, 0.0], "K"),
        (1.15, [5e-324], "K"),
        (1000.0, [5e-324, 1.0], "K"),
        (1e160, [1e-3, 1.0], "K"),
        (1e160, [], "K"),
        (0.5, [0.0, 0.0], 0),
    ])
    def test_cut_edges(self, q, x, want):
        # the float head width at the edges that the array formula left to
        # np.errstate: x = 0, an overflowing 746 (q^2 - 1) / x, an empty
        # block, and q^2 - 1 = inf above q = 1.34e154
        series = BosonThetaSeries(0.5, q)
        x = np.array(x, dtype=float)
        want = len(series._m) if want == "K" else want
        assert series.cut(x) == _array_cut(series, x) == want

    @pytest.mark.parametrize("q", [0.5, 0.8, 0.999, 1.001, 1.15, 1.4581597669054491, 7.0])
    def test_cut_at_integer_head_lengths(self, q):
        # abscissae where the unrounded head length t(x) is an integer, and
        # their float neighbours: a last-bit change in the logarithm moves
        # the width here, and with it the last bits of the matrix product
        series = BosonThetaSeries(0.5, q)
        x = []
        for k in range(1, min(len(series._m), 150)):
            if q > 1.0:
                x0 = series._cut_scale / math.expm1(k / series._cut_rate)
            else:
                x0 = math.exp((k - 2) / series._cut_rate - series._cut_log)
            x += [x0, math.nextafter(x0, 0.0), math.nextafter(x0, math.inf)]
        for v in x:
            block = np.array([v])
            assert series.cut(block) == _array_cut(series, block)

    @pytest.mark.parametrize("q", [0.5, 0.8, 0.99])
    @pytest.mark.parametrize("z", [0.9, 0.99])
    def test_q_below_1_tail_matches_mpmath(self, q, z):
        # head plus totals times e^(-x{inf}) against the oracle's raw series
        # at 30 digits
        series = BosonThetaSeries(z, q)
        with mp.workdps(30):
            for x in (1e-6, 0.01, 1.0, 30.0):
                want = mp_oracle.boson_sums(mpf(x), mpf(z), mpf(q) ** 2,
                                            mp.prec + mp_oracle.GUARD_BITS)
                for g, v in zip(series.excess_sums(x)[0], want):
                    assert g == pytest.approx(float(v), rel=1e-14, abs=0.0)


def _array_cut(series, x):
    """The head width of a block as the numpy array formula gave it, with
    its edges (x = 0, overflow, an empty block, inf / inf) in np.errstate."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if series.q > 1.0:
            t = np.log1p(series._cut_scale / x.min(initial=math.inf)) * series._cut_rate
        else:
            t = max((np.log(x.max(initial=0.0)) + series._cut_log) * series._cut_rate, -2.0)
    return int(min(len(series._m) - 2, t)) + 2


def _doubling_rule_length(z, tol=SERIES_TOL):
    """Series length M of the plain doubling loop that recomputes every term."""
    M = 64
    while True:
        m = np.arange(M, dtype=float)
        t3 = (m + 1.0) * m ** 3 * z ** m
        if t3[-1] == 0.0 or (t3[-1] < tol * t3.sum() and t3[-1] < t3[-2]):
            return M
        M *= 2


class TestArrayKernel:
    """One array evaluation serves every abscissa of a refinement step."""

    @pytest.mark.parametrize("z", [1.0 - 10.0 ** (-3.0 + 0.2 * i) for i in range(11)]
                             + [10.0 ** (-8.0 + 0.25 * i) for i in range(25)])
    def test_series_length_matches_doubling_rule(self, z):
        # the terms built: the doubling rule's M, capped at K, past which
        # q^(2m) overflows and no abscissa reads a term (K = 2,541 at q = 1.15)
        K = int(LOG_MAX / (2.0 * math.log(1.15))) + 2
        assert len(BosonThetaSeries(z, 1.15)._m) == min(K, _doubling_rule_length(z))

    @pytest.mark.parametrize("q", [0.5, 0.8, 1.0, 2.0])
    def test_no_array_of_series_length(self, q):
        # M = 65,536 at z = 0.999; only the first min(K, M) <= 1,682 terms are stored
        tracemalloc.start()
        try:
            BosonThetaSeries(0.999, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("q", [1.001, 0.999])
    def test_block_boundary_batch_matches_one_row_calls(self, q):
        # the abscissae of one 128-interval refinement step: 256 GK21 panels
        # over [0, 60], 5,376 rows, whose widest head spans several row blocks
        series = BosonThetaSeries(0.99, q)
        edges = np.linspace(0.0, 60.0, 257)
        c, h = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        x = (c[:, None] + h[:, None] * _GK21_NODES).ravel()
        assert len(x) * series.cut(x) > 4 * MAX_TERMS
        batch = series.excess_sums(x)
        rows = np.array([series.excess_sums(float(v))[0] for v in x])
        # BLAS orders a many-row product differently from a one-row product;
        # all terms are positive, so both lie within K ulps of the exact sum
        tol = len(series._m) * np.finfo(float).eps
        np.testing.assert_allclose(batch, rows, rtol=tol, atol=0.0)
        kernel = cumulant_kernel(GasSpec("boson", q, 2), 0.99)
        assert kernel(x).shape == (len(x), 4)

    def test_block_boundary_batch_takes_one_width_per_block(self, monkeypatch):
        # the last bits of a product depend on its width, so each row block
        # keeps the widest head of its own rows, not of the whole call
        series = BosonThetaSeries(0.99, 1.001)
        edges = np.linspace(0.0, 60.0, 257)
        c, h = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        x = (c[:, None] + h[:, None] * _GK21_NODES).ravel()
        rows = MAX_TERMS // series.cut(x)
        blocks = [x[lo:lo + rows] for lo in range(0, len(x), rows)]
        want = [(len(b), series.cut(b)) for b in blocks]
        assert len(blocks) > 4 and len(set(w for _, w in want)) > 1
        calls = []
        block_sums = series._block_sums

        def spy(x, width):
            calls.append((len(x), width))
            return block_sums(x, width)

        monkeypatch.setattr(series, "_block_sums", spy)
        series.excess_sums(x)
        assert calls == want

    @pytest.mark.parametrize("q", [0.5, 1.15, 1e160])
    def test_one_block_call_cuts_once(self, q, monkeypatch):
        # the head width of a one-block call is decided once, from all its rows
        series = BosonThetaSeries(0.999, q)
        x = np.linspace(0.0, 30.0, 42)
        want = series.excess_sums(x)
        calls = []
        cut = series.cut

        def spy(x):
            calls.append(len(x))
            return cut(x)

        monkeypatch.setattr(series, "cut", spy)
        assert series.excess_sums(x).tobytes() == want.tobytes()
        assert calls == [42]

    @pytest.mark.filterwarnings("error")
    def test_batch_with_x0_and_large_x(self):
        # at q > 1, x = 0 widens the head of the batch to all K terms, whose
        # brackets near 1e308 overflow x {m} to inf at x = 1000; e^(-inf) = 0
        # is right.  At q < 1, x = 1000 has the widest head
        x = np.logspace(-12, 3, 60)
        for q in (0.5, 2.0):
            series = BosonThetaSeries(0.9, q)
            sums = series.excess_sums(np.concatenate(([0.0], x)))
            np.testing.assert_array_equal(sums[0], _q1_sums(0.9))
            assert sums[1:].tobytes() == series.excess_sums(x).tobytes()

    @pytest.mark.parametrize("spec,z", [
        (GasSpec("boson", 0.5, 3), 0.9),
        (GasSpec("boson", 1.0, 2), 0.99),
        (GasSpec("boson", 2.0, 2), 0.5),
        (GasSpec("fermion", 1.3, 3), 4.0),
    ])
    def test_kernel_rows_equal_log_moments(self, spec, z):
        # each row of a batch equals the one-row evaluation at its abscissa
        kernel = cumulant_kernel(spec, z)
        x = np.array([0.0, 1e-9, 0.3, 2.0, 40.0])
        rows = kernel(x)
        for xi, row in zip(x, rows):
            want = kernel(np.array([xi]))[0]
            np.testing.assert_allclose(row, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("excess_sums", [BosonThetaSeries(0.9, q).excess_sums
                                             for q in (0.5, 1.0, 2.0)]
                             + [_fermion_excess_sums(0.9, 2.0)],
                             ids=["boson-0.5", "boson-1", "boson-2", "fermion-2"])
    @pytest.mark.parametrize("x", [0.0, 1e-9, 0.3, 40.0])
    def test_scalar_abscissa_is_one_row(self, excess_sums, x):
        # one calling convention: a float is the array of one abscissa
        got = excess_sums(x)
        assert isinstance(got, np.ndarray) and got.shape == (1, 4)
        assert got.tobytes() == excess_sums(np.array([x])).tobytes()

    def test_rejects_negative_or_nan_abscissa(self):
        kernel = cumulant_kernel(GasSpec("boson", 1.15, 2), 0.5)
        for bad in ([0.5, -1e-3], [math.nan]):
            with pytest.raises(DomainError):
                kernel(np.array(bad))

    @pytest.mark.parametrize("spec", [GasSpec("boson", q, 3) for q in (0.5, 1.0, 2.0)]
                             + [GasSpec("fermion", 2.0, 3)],
                             ids=["boson-0.5", "boson-1", "boson-2", "fermion-2"])
    def test_rejects_infinite_abscissa(self, spec):
        # x = inf gave NaN rows at q = 0.5 and 2, and zeros at q = 1 and for fermions
        kernel = cumulant_kernel(spec, 0.5)
        with pytest.raises(DomainError, match="x must be a scalar or 1-D array of values >= 0"):
            kernel(np.array([0.5, np.inf]))

    @pytest.mark.parametrize("q", [1e150, 1e160, 1e300])
    def test_huge_q_keeps_two_terms(self, q):
        # at these x only the m <= 1 terms survive, also above q = sqrt(float max)
        # where q^2 - 1 overflows
        series = BosonThetaSeries(0.5, q)
        x = np.array([1e-30, 1e-3, 1.0])
        want = 2.0 * 0.5 * np.exp(-x)
        np.testing.assert_array_equal(series.excess_sums(x), np.repeat(want[:, None], 4, axis=1))
