"""
Transmutation thresholds: curvature vs virial
=============================================

Two independent definitions of "where the gas changes statistical character":
the zero of the scalar curvature at small fugacity, and the zero of the
second-order virial coefficient.  They agree to a few percent at z = 0.01,
and the virial roots are exact limits of the curvature boundaries as z -> 0.
"""

from qgasgeo import GasSpec, closed_form_threshold, curvature_sign_boundary, fugacity_from_density

z = 0.01
cases = [
    ("boson", 3, "delta", 1.0, 1.6),
    ("boson", 2, "eta", 1.0, 2.0),
    ("fermion", 3, "alpha", 1.0, 3.0),
]

print(f"curvature sign boundary at z = {z:g} vs virial root")
for stat, dim, kind, lo, hi in cases:
    q_curv = curvature_sign_boundary(GasSpec(stat, 1.0, dim), z, lo, hi)
    q_vir = closed_form_threshold(kind)
    print(f"  {stat:<8} D={dim}  q*(R) = {q_curv:.5f}   "
          f"q*({kind}) = {q_vir:.5f}   dev = {abs(q_curv - q_vir):.4f}")

q_d2f = curvature_sign_boundary(GasSpec("fermion", 1.0, 2), z, 0.3, 8.0)
print(f"  fermion  D=2  q*(R) = {q_d2f} (always fermion-like, as is zeta > 0)")

# at the eta root the D=2 boson is ideal through second order: z(n) = n/2
q_star = closed_form_threshold("eta")
n = 0.3
z_at_root = fugacity_from_density(GasSpec("boson", q_star, 2), n)
print(f"\nboson D=2 at q = sqrt(2): z(n={n:g}) = {z_at_root:.15f} (= n/2 exactly)")
