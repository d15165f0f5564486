"""
The anyonic window of the planar deformed boson
===============================================

Slightly below the eta-threshold sqrt(2), at q = 1.15, the D = 2 boson is
boson-like (R > 0) at small fugacity and turns fermion-like (R < 0) beyond
z of about 0.71, staying negative up to the domain edge: one crossing.  Just
past the threshold, at q = 1.5, it is fermion-like over the whole grid, so
its sign row is all minus.  The boundary in q moves down as z grows, from
about 1.40 at z = 0.05 to about 1.07 at z = 0.9, which is why the q = 1.15
isotherm crosses.
"""

from dataclasses import replace

import numpy as np

from qgasgeo import GasSpec, curvature_closed_form, curvature_sign_boundary
from qgasgeo.core import bisect

zs = np.linspace(0.05, 0.97, 24)
rows = {}
for q in (1.15, 1.5):
    rows[q] = [curvature_closed_form(GasSpec("boson", q, 2), float(z)).R_reduced for z in zs]
    print(f"q = {q:<5g} sign(R):", "".join("+" if r > 0 else "-" for r in rows[q]))

# bisect the crossing of the q = 1.15 isotherm in the grid cell where R changes sign
spec = GasSpec("boson", 1.15, 2)
rs = rows[1.15]
for z1, z2, r1, r2 in zip(zs, zs[1:], rs, rs[1:]):
    if r1 * r2 < 0:
        z_star = bisect(lambda z: curvature_closed_form(spec, z).R_reduced,
                        float(z1), float(z2), xtol=1e-9)
        print(f"\nq = 1.15 crossing at z = {z_star:.6f}")

# and the crossing in q at fixed z, on both sides of the window
for z in (0.05, 0.9):
    q_star = curvature_sign_boundary(replace(spec, q=1.0), z, 1.0, 2.0)
    label = f"{q_star:.4f}" if q_star is not None else "None"
    print(f"z = {z:<4g} boundary in q on [1, 2]: {label}")
