"""Domain types, the deformed bracket, and domain validation."""

import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest

from qgasgeo import (
    DomainError,
    GasSpec,
    curvature_closed_form,
    fugacity_from_density,
    metric_tensor,
    q_bracket,
    validate_domain,
)
from qgasgeo.core import bisect


class TestQBracket:
    def test_q1_limit_is_identity(self):
        assert q_bracket(3, 1.0) == 3.0
        assert q_bracket(0.75, 1.0) == 0.75

    def test_direct_formula_q2(self):
        # (1 - 16) / (1 - 4) = 5
        assert q_bracket(2, 2.0) == pytest.approx(5.0, rel=1e-14)

    def test_zero_argument_vanishes(self):
        for q in (0.3, 1.0, 1.0 + 1e-12, 7.0):
            assert q_bracket(0.0, q) == 0.0

    @pytest.mark.parametrize("q", [0.5, 0.9, 1.0, 1.0000001, 1.15, 2.0])
    def test_monotone_in_x(self, q):
        # strictly increasing while q^(2x) is resolvable; for q < 1 the float
        # value sits exactly at the 1/(1 - q^2) plateau once it underflows
        x = np.linspace(0.0, 50.0, 501)
        vals = q_bracket(x, q)
        assert np.all(np.diff(vals) >= 0.0)
        head = q_bracket(np.linspace(0.0, 10.0, 101), q)
        assert np.all(np.diff(head) > 0.0)

    def test_continuity_across_q1_small_x(self):
        # on x in [0, 10] the stated modulus 1e-6 holds outright
        x = np.linspace(0.0, 10.0, 101)
        for q in (1.0 - 1e-8, 1.0 + 1e-8):
            assert np.max(np.abs(q_bracket(x, q) - x)) < 1e-6

    def test_continuity_across_q1_drift_corrected(self):
        # the exact bracket drifts from x by x(x-1) ln q + O(ln^2 q), which
        # reaches 2.45e-5 at x = 50 for |q-1| = 1e-8; the bound must carry
        # that first-order term
        x = np.linspace(0.0, 50.0, 501)
        for q in (1.0 - 1e-8, 1.0 + 1e-8):
            bound = 1e-6 + 1.1 * np.abs(x * (x - 1.0)) * 1e-8
            assert np.all(np.abs(q_bracket(x, q) - x) < bound)

    def test_q_below_1_saturates_monotonically(self):
        q = 0.6
        limit = 1.0 / (1.0 - q * q)
        m = np.arange(60)
        vals = q_bracket(m, q)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all(np.diff(vals[:15]) > 0.0)
        assert np.all(vals <= limit)
        assert vals[-1] == pytest.approx(limit, rel=1e-12)

    def test_rejects_bad_q(self):
        with pytest.raises(DomainError):
            q_bracket(1.0, 0.0)
        with pytest.raises(DomainError):
            q_bracket(1.0, -2.0)
        with pytest.raises(DomainError):
            q_bracket(1.0, math.inf)

    def test_array_input(self):
        out = q_bracket(np.array([0.0, 1.0, 2.0]), 2.0)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("q", [1e154, 1e160, 1e300])
    def test_huge_q_without_overflow(self, q):
        # q^2 - 1 overflows above q = 1.34e154; {1/2} = 1/(q + 1) exactly
        out = q_bracket(np.array([0.0, 0.5, 1.0, 2.0]), q)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(1.0 / (q + 1.0), rel=1e-14)
        assert out[2] == 1.0
        assert out[3] > 1e300


class TestBisect:
    @staticmethod
    def cubic(x):
        return x ** 3 - 2.0

    def test_root_and_tolerance(self):
        root = bisect(self.cubic, 0.0, 2.0, xtol=1e-12)
        assert abs(root - 2.0 ** (1.0 / 3.0)) < 2e-12

    def test_same_root_as_scipy_bisect(self):
        optimize = pytest.importorskip("scipy.optimize")
        for a, b, xtol in ((0.0, 2.0, 1e-12), (1.0, 1.5, 1e-4), (-3.0, 7.0, 1e-300)):
            got = bisect(self.cubic, a, b, xtol)
            assert got == optimize.bisect(self.cubic, a, b, xtol=xtol)

    def test_same_sign_ends_return_none(self):
        assert bisect(self.cubic, 2.0, 3.0, xtol=1e-12) is None
        assert bisect(self.cubic, -3.0, 1.0, xtol=1e-12) is None

    def test_zero_at_an_end_is_returned(self):
        assert bisect(lambda x: x - 1.0, 1.0, 3.0, xtol=1e-12) == 1.0
        assert bisect(lambda x: x - 3.0, 1.0, 3.0, xtol=1e-12) == 3.0

    def test_nan_raises(self):
        # NaN at both ends, at one end, and at the first midpoint only
        for f in (lambda x: math.nan,
                  lambda x: math.nan if x == 1.0 else x - 0.5,
                  lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5):
            with pytest.raises(RuntimeError):
                bisect(f, 0.0, 1.0, xtol=1e-6)

    def test_step_budget_raises(self):
        # 100 halvings of a 1e300-wide bracket leave a step far above 4 eps |x|
        with pytest.raises(RuntimeError):
            bisect(lambda x: x - 1e-300, 0.0, 1e300, xtol=0.0)


class TestGasSpec:
    def test_nu_and_p(self):
        assert GasSpec("boson", 1.0, 3).nu == 0.5
        assert GasSpec("boson", 1.0, 3).p == 1.5
        assert GasSpec("fermion", 1.0, 2).nu == 0.0
        assert GasSpec("fermion", 1.0, 2).p == 1.0

    @pytest.mark.parametrize("bad", [
        dict(statistics="anyon", q=1.0, dimension=3),
        dict(statistics="boson", q=0.0, dimension=3),
        dict(statistics="boson", q=-1.0, dimension=3),
        dict(statistics="boson", q=math.nan, dimension=3),
        dict(statistics="boson", q=1.0, dimension=4),
    ])
    def test_rejects_invalid_fields(self, bad):
        with pytest.raises(DomainError):
            GasSpec(**bad)

    def test_keyword_and_positional_construction(self):
        spec = GasSpec("fermion", 2.0, 3)
        assert GasSpec(statistics="fermion", q=2.0, dimension=3) == spec
        assert GasSpec("fermion", 2.0, dimension=3) == spec
        assert (spec.statistics, spec.q, spec.dimension) == ("fermion", 2.0, 3)
        with pytest.raises(TypeError):
            GasSpec("fermion", 2.0)

    def test_replace_validates(self):
        spec = GasSpec("boson", 1.15, 2)
        assert dataclasses.replace(spec, q=2.0) == GasSpec("boson", 2.0, 2)
        with pytest.raises(DomainError, match="deformation parameter q"):
            dataclasses.replace(spec, q=0.0)
        with pytest.raises(DomainError, match="dimension"):
            dataclasses.replace(spec, dimension=4)

    def test_equal_values_hash_equal(self):
        specs = [GasSpec("fermion", q, 3) for q in (2, 2.0, np.float64(2.0))]
        assert specs[0] == specs[1] == specs[2]
        assert len({hash(s) for s in specs}) == 1
        assert len(set(specs)) == 1
        assert GasSpec("fermion", 2.0, 3) != GasSpec("fermion", 2.0, 2)

    def test_repr_and_pickle(self):
        spec = GasSpec("boson", 1.15, 2)
        assert repr(spec) == "GasSpec(statistics='boson', q=1.15, dimension=2)"
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestValidateDomain:
    def test_boson_inside(self):
        validate_domain(GasSpec("boson", 0.5, 3), 0.99)

    def test_boson_rejects_z_above_1(self):
        with pytest.raises(DomainError, match="z < 1"):
            validate_domain(GasSpec("boson", 0.5, 3), 1.1)

    def test_fermion_accepts_large_z(self):
        validate_domain(GasSpec("fermion", 10.0, 3), 10.0)

    def test_bare_fugacity_accepted(self):
        validate_domain(GasSpec("fermion", 1.0, 2), 3.0)
        with pytest.raises(DomainError):
            validate_domain(GasSpec("boson", 1.0, 2), 1.0)

    def test_rejects_nonpositive_z(self):
        # beta is checked by metric_tensor and determinant_curvature_oracle
        # (tests/test_geometry.py::TestMetricTensor::test_rejects_bad_beta)
        with pytest.raises(DomainError, match="fugacity z"):
            validate_domain(GasSpec("fermion", 1.0, 3), -0.5)

    def test_returns_z_as_float(self):
        z = validate_domain(GasSpec("fermion", 1.0, 3), np.int64(3))
        assert type(z) is float and z == 3.0


@pytest.mark.parametrize("value,accepted", [
    (np.int64(2), True), (np.float32(1.5), True), (True, False), (math.nan, False),
    ("0.5", False), (10 ** 400, False), (10 ** 5000, False), (-10 ** 5000, False),
], ids=["int64", "float32", "bool", "nan", "str", "huge_int", "unprintable_int",
        "unprintable_negative_int"])
def test_positive_real_parameters(value, accepted):
    # q of q_bracket and GasSpec, the density of fugacity_from_density, the
    # fugacity z and beta share one check: any real number but a bool,
    # finite and > 0; an int beyond the double range is not finite, and one
    # too long for repr still raises DomainError
    fermion = GasSpec("fermion", 1.0, 3)
    entries = (lambda v: q_bracket(1.0, v),
               lambda v: GasSpec("boson", v, 3),
               lambda v: fugacity_from_density(GasSpec("boson", 1.0, 3), v),
               lambda v: curvature_closed_form(fermion, v),
               lambda v: metric_tensor(fermion, v, 0.5))
    for entry in entries:
        if accepted:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                entry(value)
        else:
            with pytest.raises(DomainError, match="must be finite and > 0"):
                entry(value)
    if accepted:
        # and a numpy q, z or beta gives the result of the same float
        r = curvature_closed_form(GasSpec("fermion", value, 3), 0.5).R_reduced
        assert r == curvature_closed_form(GasSpec("fermion", float(value), 3), 0.5).R_reduced
        r = curvature_closed_form(fermion, value).R_reduced
        assert r == curvature_closed_form(fermion, float(value)).R_reduced
        assert metric_tensor(fermion, value, 0.5) == metric_tensor(fermion, float(value), 0.5)
