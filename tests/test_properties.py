"""Seeded property tests of R over statistics, dimension, q and z.

q is drawn log-uniform in [1e-3, 1e3]; z in [1e-6, 1 - 1e-3] for bosons and
log-uniform in [1e-6, 1e6] for fermions.  At every drawn point R is finite
or one of the documented exceptions is raised; where R is returned, det g > 0
and the closed form agrees with the determinant oracle to the 1e-5 of
`qgasgeo.checks`.  At log10 z in [-150, -20], R is its z -> 0 limit
-(1 + D/2) B(q); at z <= 2^-511 it raises DomainError.  At x log-uniform
in [1e-8, 1e3], `distributions.cumulant_bound` bounds max_k |L_k(x)|.
"""

import math
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qgasgeo import (  # noqa: E402
    ConvergenceError,
    DomainError,
    GasSpec,
    ToleranceError,
    alpha,
    curvature_closed_form,
    delta,
    determinant_curvature_oracle,
    eta,
    metric_tensor,
    zeta_fermion_d2,
)
from qgasgeo.distributions import cumulant_bound, cumulant_kernel  # noqa: E402

_LOG10_Q = st.floats(min_value=-3.0, max_value=3.0)
_BOSON_Z = st.floats(min_value=1e-6, max_value=1.0 - 1e-3)
_FERMION_Z = st.floats(min_value=-6.0, max_value=6.0).map(lambda u: 10.0 ** u)
_DILUTE_Z = st.floats(min_value=-150.0, max_value=-20.0).map(lambda u: 10.0 ** u)
_X = st.floats(min_value=-8.0, max_value=3.0).map(lambda u: 10.0 ** u)
# z at or below 2^-511, down to the smallest subnormal
_Z_LIMIT = 2.0 ** -511
_BELOW_LIMIT_Z = st.floats(min_value=-1074.0, max_value=-511.0).map(lambda u: 2.0 ** u)
# second virial coefficient B(q) of each (statistics, D)
_B = {("fermion", 3): alpha, ("boson", 3): delta, ("boson", 2): eta, ("fermion", 2): zeta_fermion_d2}


@st.composite
def _specs(draw):
    statistics = draw(st.sampled_from(("boson", "fermion")))
    dimension = draw(st.sampled_from((2, 3)))
    return GasSpec(statistics, 10.0 ** draw(_LOG10_Q), dimension)


@st.composite
def _points(draw):
    spec = draw(_specs())
    return spec, draw(_BOSON_Z if spec.statistics == "boson" else _FERMION_Z)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_points())
# A fixed seed, the one derandomize=True derived from an earlier source of this
# test, so that editing the body does not redraw the 200 points it checks.
# Hypothesis also mixes literal constants of the library into its draws, so
# a change of the library's literals can redraw a few of them.
@seed(38989246768101620029459071379097188770692265410635301163739142683764624896443163432099991638792759566960073809628951)  # noqa: E501
# Other draws reach the D = 2 fermion at large q and small z, where the z^2
# term of h all but cancels.  The closed form, summed from the cluster series
# there, is 3.9e-16 and 6.7e-16 off tests/mp_oracle.py at q = 1000 and
# q = 10^2.5, both at z = 1e-7; the determinant oracle, which takes det g and
# its 3x3 determinant from the rounded moments, is 3.3e-3 and 3.8e-4 off, so
# the two differ by 330 and 38 times the 1e-5 tolerance.  The oracle's error
# is the last bits of the moments amplified by that cancellation, so a pin
# needs that margin: at q = 10^2.5, z = 1e-6 it is 1.27e-5 off, only 27%
# above the tolerance, and at q = 1000, z = 1e-6 a one-ulp change of a moves
# it between 4.5e-4 and 9.7e-7.
@example(point=(GasSpec("fermion", 1000.0, 2), 1e-7)).xfail(
    raises=AssertionError, reason="the determinant oracle is 3.3e-3 off; the closed form is right")
@example(point=(GasSpec("fermion", 10.0 ** 2.5, 2), 1e-7)).xfail(
    raises=AssertionError, reason="the determinant oracle is 3.8e-4 off; the closed form is right")
def test_curvature_properties(point):
    spec, z = point
    try:
        r = curvature_closed_form(spec, z).R_reduced
    except (DomainError, ConvergenceError, ToleranceError):
        return
    assert math.isfinite(r)
    assert metric_tensor(spec, 1.0, z).det > 0.0
    oracle = determinant_curvature_oracle(spec, 1.0, z)
    assert abs(r - oracle) <= 1e-5 * abs(oracle)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_specs(), _DILUTE_Z)
@seed(20231)
def test_dilute_limit(spec, z):
    # R underflowed to 0.0 at z ~ 1e-81 and raised ZeroDivisionError below;
    # the absolute floor covers q near a root of B, where R -> 0
    r = curvature_closed_form(spec, z).R_reduced
    want = -(1.0 + spec.p) * _B[spec.statistics, spec.dimension](spec.q)
    assert abs(r - want) <= max(1e-12 * abs(want), 1e-15)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_specs(), _BELOW_LIMIT_Z)
@seed(20232)
@example(spec=GasSpec("boson", 1.0, 2), z=_Z_LIMIT)
@example(spec=GasSpec("fermion", 1000.0, 3), z=5e-324)
def test_at_or_below_z_limit_raises(spec, z):
    with pytest.raises(DomainError, match="R needs z > 1.492e-154"):
        curvature_closed_form(spec, z)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_points(), _X)
@seed(20233)
@example(point=(GasSpec("fermion", 1000.0, 2), 4.74e153), x=1e-8)
def test_cumulant_bound_holds(point, x):
    # the tail cutoff keeps its start without a kernel call where this bound
    # is below ABS_TOL / 2.  The kernel's brackets carry a few ulps, which
    # e^(-x {m}) turns into a few x ulps of L_k; a subnormal bound has too
    # few digits to compare, and past E_k = 1 the bound is inf
    spec, z = point
    bound = cumulant_bound(spec, z, x)
    if bound < sys.float_info.min:
        return
    largest = np.abs(cumulant_kernel(spec, z)(x)).max()
    assert largest <= bound * (1.0 + 4.0 * (1.0 + x) * sys.float_info.epsilon)
