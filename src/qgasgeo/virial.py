"""Second-order virial coefficients, their sign thresholds, and z(n) inversions.

Expanding the mean density in powers of the fugacity and inverting to second
order yields one coefficient per gas: alpha (fermion, D=3), delta (boson,
D=3), eta (boson, D=2), zeta (fermion, D=2).  A positive coefficient pushes
z above its ideal value at fixed density (fermion-like pressure enhancement),
matching R < 0 at small z; a negative one is boson-like.  All densities are
in reduced units (thermal wavelength 1).
"""

import math

from .core import BOSON, FERMION, DomainError, bisect

__all__ = [
    "KINDS",
    "OutOfVirialRangeError",
    "alpha",
    "delta",
    "eta",
    "fugacity_from_density",
    "closed_form_threshold",
    "virial_threshold",
    "zeta_fermion_d2",
]

KINDS = ("alpha", "delta", "eta", "zeta")


class OutOfVirialRangeError(ValueError):
    """Density too large for the second-order expansion to be meaningful."""


def alpha(q):
    """Fermion D=3 coefficient: (1/2)(2^(-3/2) - 1/(2 (q^-2 + 1)^(3/2))).

    Positive below the root (2^(1/3) - 1)^(-1/2) = 1.961..., negative above.
    alpha(1) = 1/(8 sqrt(2)).
    """
    return 0.5 * (2.0 ** -1.5 - 0.5 * (q ** -2 + 1.0) ** -1.5)


def delta(q):
    """Boson D=3 coefficient: -(1/4)(3/(1 + q^2)^(3/2) - 1/sqrt(2)).

    Negative below the root ((3 sqrt(2))^(2/3) - 1)^(1/2) = 1.273..., positive
    above.  delta(1) = -1/(8 sqrt(2)).
    """
    return -0.25 * (3.0 * (1.0 + q * q) ** -1.5 - 2.0 ** -0.5)


def eta(q):
    """Boson D=2 coefficient: -(2 - q^2)/(4 (1 + q^2)).

    Negative below sqrt(2), positive above.  eta(1) = -1/8.
    """
    return -(2.0 - q * q) / (4.0 * (1.0 + q * q))


def zeta_fermion_d2(q):
    """Fermion D=2 coefficient: -1/(4 (1 + q^2)), negative for every q.

    The O(z^2) expansion of the D=2 fermion cell integral gives a z^2
    coefficient proportional to -1/(1 + q^2); the prefactor is fixed so that
    zeta(1) = -1/8, mirroring eta(1) across statistics at q = 1.  It rises to
    0 from below as q grows, so this gas never changes character.
    """
    return -1.0 / (4.0 * (1.0 + q * q))


_COEFFICIENTS = {
    "alpha": alpha,
    "delta": delta,
    "eta": eta,
    "zeta": zeta_fermion_d2,
}


def closed_form_threshold(kind):
    """Exact root of the named coefficient, or None if it has no sign change.

    alpha: (2^(1/3) - 1)^(-1/2); delta: ((3 sqrt(2))^(2/3) - 1)^(1/2);
    eta: sqrt(2); zeta: None.
    """
    if kind == "alpha":
        return (2.0 ** (1.0 / 3.0) - 1.0) ** -0.5
    if kind == "delta":
        return ((3.0 * math.sqrt(2.0)) ** (2.0 / 3.0) - 1.0) ** 0.5
    if kind == "eta":
        return math.sqrt(2.0)
    if kind == "zeta":
        return None
    raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def virial_threshold(kind, q_lo=0.5, q_hi=5.0):
    """Bisection root of the named coefficient over [q_lo, q_hi], or None.

    Bisection runs to |dq| < 1e-10 (the closed forms double as the oracle for
    this).  Returns None when the coefficient does not change sign on the
    bracket, which is the case for zeta at any bracket.
    """
    f = _COEFFICIENTS.get(kind)
    if f is None:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    lo, hi = f(q_lo), f(q_hi)
    if lo == 0.0:
        return float(q_lo)
    if hi == 0.0:
        return float(q_hi)
    if math.copysign(1.0, lo) == math.copysign(1.0, hi):
        return None
    return float(bisect(f, q_lo, q_hi, lo, xtol=1e-10))


def fugacity_from_density(spec, density):
    """Second-order fugacity z(n) at reduced density n (thermal wavelength 1).

    Implemented for the three gases with a closed second-order relation:

        fermion D=3:  z = n / (pi^(3/2) 2^(5/2)) + alpha(q) n^2 / (pi^2 2^4)
        boson   D=3:  z = n / 2 + delta(q) n^2
        boson   D=2:  z = n / 2 + eta(q) n^2

    The D=2 fermion gas has no such relation here; only the sign of its
    coefficient is defined (zeta_fermion_d2).  Raises OutOfVirialRangeError
    when the second-order term reaches half the first (expansion no longer
    trustworthy).
    """
    if not (isinstance(density, (int, float)) and math.isfinite(density) and density > 0):
        raise DomainError(f"density must be finite and > 0, got {density!r}")
    n = float(density)
    if spec.statistics == FERMION and spec.dimension == 3:
        first = n / (math.pi ** 1.5 * 2.0 ** 2.5)
        second = alpha(spec.q) * n * n / (math.pi ** 2 * 2.0 ** 4)
    elif spec.statistics == BOSON and spec.dimension == 3:
        first = 0.5 * n
        second = delta(spec.q) * n * n
    elif spec.statistics == BOSON and spec.dimension == 2:
        first = 0.5 * n
        second = eta(spec.q) * n * n
    else:
        raise DomainError(
            "no second-order fugacity relation for the D=2 fermion gas; "
            "see zeta_fermion_d2 for its coefficient sign")
    if abs(second) >= 0.5 * abs(first):
        raise OutOfVirialRangeError(
            f"second-order term {second:.3e} is not small against {first:.3e}; "
            f"density {n} is outside the virial range")
    return first + second
