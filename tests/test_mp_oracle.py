"""The mpmath oracle (tests/mp_oracle.py) against answers known in closed form.

Criterion 06 takes its expected signs from this oracle, so the oracle is
checked on its own: against polylogarithm moments at q = 1, and against the
second virial coefficient eta(q) as z -> 0.
"""

import mp_oracle
import pytest
from mpmath import mp, mpf

from qgasgeo import eta


@pytest.mark.parametrize("statistics, dimension, z", [
    ("boson", 2, 0.97),      # the top of the criterion 06 grid
    ("fermion", 3, 2.0),
])
def test_matches_polylog_at_q1(statistics, dimension, z):
    with mp.workdps(40):
        want = mp_oracle.polylog_moments(statistics, dimension, z)
        got = mp_oracle.moments(statistics, dimension, 1.0, z)
        assert max(abs(g - w) / abs(w) for g, w in zip(got, want)) < 1e-20
        # N cancels, so R is checked on its own
        r_want = mp_oracle.curvature_from_moments(dimension, *want)
        r_got = mp_oracle.curvature_from_moments(dimension, *got)
        assert abs(r_got - r_want) < mpf("1e-20") * abs(r_want)


@pytest.mark.parametrize("q", [1.30, 1.40, 1.43, 1.55])
def test_small_z_limit_follows_eta(q):
    # With a = A1 z + A2 z^2 + ..., b, c, d carrying 2^k A2 at second order,
    # N = A1^2 A2 z^4 + O(z^5) and 2ac - b^2 = A1^2 z^2 + O(z^3), so the D = 2
    # curvature tends to 2 A2 / A1^2.  For the boson A1 = 2 and
    # A2 = 3 / (1 + q^2) - 1, so R -> -2 eta(q): boson-like (R > 0) below the
    # root sqrt(2) of eta and fermion-like above it.  q = 1.40 and 1.43 sit
    # 0.014 and 0.016 from the root.
    limit = -2.0 * eta(q)
    for z in (1e-4, 1e-6):
        r = float(mp_oracle.curvature("boson", 2, q, z))
        assert (r > 0.0) == (limit > 0.0)
        assert abs(r - limit) < z
