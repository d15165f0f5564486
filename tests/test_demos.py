"""Each demo script runs to completion and prints one known line."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# one printed line per script, each a value checked elsewhere: the crossing
# agrees with the mp oracle's z* = 0.70967913, the q = 1 virial row is
# alpha = 2^-3.5, delta = -2^-3.5, eta = -1/8, zeta = 1/8, and z = n/2 is the
# planar boson at q = sqrt(2)
_EXPECTED = {
    "anyonic_window.py": "q = 1.15 crossing at z = 0.709679",
    "curvature_vs_deformation.py": "D=3 boson    q* = 1.2633",
    "curvature_vs_fugacity.py": "q = 1.15  sign pattern: +++++++++++++++----------",
    "transmutation_thresholds.py":
        "boson D=2 at q = sqrt(2): z(n=0.3) = 0.150000000000000 (= n/2 exactly)",
    "virial_coefficients.py": "1.000    +0.088388    -0.088388    -0.125000    +0.125000",
}


def test_every_demo_is_covered():
    scripts = {f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py")}
    assert scripts == set(_EXPECTED)


@pytest.mark.parametrize("script", sorted(_EXPECTED))
def test_demo_runs(script, tmp_path):
    # run in a scratch directory: with matplotlib installed a demo writes a plot
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert _EXPECTED[script] in [line.strip() for line in proc.stdout.splitlines()]
