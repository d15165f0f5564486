"""
Second-order virial coefficients and their roots
================================================

alpha (fermion D=3), delta (boson D=3), eta (boson D=2) each change sign at
one deformation value; zeta (fermion D=2) stays positive.  A positive
coefficient raises the fugacity needed for a given density, the classic
fermion signature, so the roots are the virial picture of transmutation.
"""

import numpy as np

from qgasgeo import (
    alpha,
    closed_form_threshold,
    delta,
    eta,
    virial_threshold,
    zeta_fermion_d2,
)

qs = np.linspace(0.2, 3.0, 15)
print("      q       alpha        delta          eta         zeta")
for q in qs:
    print(f"{q:7.3f} {alpha(q):+12.6f} {delta(q):+12.6f} "
          f"{eta(q):+12.6f} {zeta_fermion_d2(q):+12.6f}")

print("\nroots, bisection vs closed form:")
for kind in ("alpha", "delta", "eta", "zeta"):
    num = virial_threshold(kind)
    exact = closed_form_threshold(kind)
    if exact is None:
        print(f"  {kind:<6} no sign change (bisection agrees: {num})")
    else:
        print(f"  {kind:<6} {num:.10f}  (closed form {exact:.10f}, "
              f"dev {abs(num - exact):.2e})")

try:
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    dense = np.linspace(0.2, 3.0, 200)
    for f, name in ((alpha, "alpha"), (delta, "delta"),
                    (eta, "eta"), (zeta_fermion_d2, "zeta")):
        plt.plot(dense, [f(q) for q in dense], label=name)
    plt.axhline(0.0, color="k", lw=0.5)
    plt.xlabel("deformation q")
    plt.ylabel("second-order coefficient")
    plt.legend()
    plt.tight_layout()
    plt.savefig("virial_coefficients.png", dpi=150)
    print("\nwrote virial_coefficients.png")
