"""Seeded property tests of R over statistics, dimension, q and z.

q is drawn log-uniform in [1e-3, 1e3]; z in [1e-6, 1 - 1e-3] for bosons and
log-uniform in [1e-6, 1e6] for fermions.  At every drawn point R is finite
or one of the documented exceptions is raised; where R is returned, det g > 0,
the paper normalisation is exactly twice the raw one, and the closed form
agrees with the determinant oracle to the 1e-5 of `qgasgeo.checks`.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qgasgeo import (  # noqa: E402
    NORM_RAW,
    ConvergenceError,
    DomainError,
    GasSpec,
    ToleranceError,
    curvature_closed_form,
    curvature_from_moments,
    determinant_curvature_oracle,
    metric_tensor,
)

_LOG10_Q = st.floats(min_value=-3.0, max_value=3.0)
_BOSON_Z = st.floats(min_value=1e-6, max_value=1.0 - 1e-3)
_FERMION_Z = st.floats(min_value=-6.0, max_value=6.0).map(lambda u: 10.0 ** u)


@st.composite
def _points(draw):
    statistics = draw(st.sampled_from(("boson", "fermion")))
    dimension = draw(st.sampled_from((2, 3)))
    q = 10.0 ** draw(_LOG10_Q)
    z = draw(_BOSON_Z if statistics == "boson" else _FERMION_Z)
    return GasSpec(statistics, q, dimension), z


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_points())
def test_curvature_properties(point):
    spec, z = point
    try:
        paper = curvature_closed_form(spec, z)
    except (DomainError, ConvergenceError, ToleranceError):
        return
    assert math.isfinite(paper.R_reduced)
    raw = curvature_from_moments(spec, paper.moments, NORM_RAW).R_reduced
    assert paper.R_reduced == 2.0 * raw
    assert metric_tensor(spec, 1.0, z).det > 0.0
    oracle = determinant_curvature_oracle(spec, 1.0, z)
    assert abs(raw - oracle) <= 1e-5 * abs(oracle)
