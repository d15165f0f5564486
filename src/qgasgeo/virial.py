"""Second-order virial coefficients, their sign thresholds, and z(n) inversions.

To order z^2 the log of the cell integrand is, for both statistics,

    ln F(x) = 2 z e^(-x) + z^2 (c e^(-Lambda x) - 2 e^(-2x)),

with (c, Lambda) = (3, 1 + q^2) for bosons and (1, 1 + q^-2) for fermions.
In the library's reduced units the density is n = K b = g12 / p at beta = 1,
so n = 2z + 2z^2 (c Lambda^(-D/2) - 2^(1 - D/2)) + O(z^3), and inverting

    z(n) = n/2 + B n^2,    B(q) = (1/4) (2^(1 - D/2) - c Lambda^(-D/2)).

B is called alpha (fermion, D=3), delta (boson, D=3), eta (boson, D=2) and
zeta (fermion, D=2).  A positive coefficient pushes z above its ideal value
at fixed density (fermion-like pressure enhancement), a negative one is
boson-like; the curvature agrees, R -> -(1 + D/2) B (paper normalization)
as z -> 0.  B vanishes at Lambda* = (c 2^(D/2 - 1))^(2/D), which is a
deformation q* = sqrt(Lambda* - 1) for bosons and (Lambda* - 1)^(-1/2) for
fermions; the D=2 fermion has Lambda* = 1 and so no root, zeta > 0 for every q.
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

# (statistics, D) of the gas each coefficient belongs to
_GASES = {"alpha": (FERMION, 3), "delta": (BOSON, 3), "eta": (BOSON, 2), "zeta": (FERMION, 2)}
KINDS = tuple(_GASES)

# weight c of the z^2 exchange term e^(-Lambda x)
_EXCHANGE = {BOSON: 3.0, FERMION: 1.0}


class OutOfVirialRangeError(ValueError):
    """Density too large for the second-order expansion to be meaningful."""


def _second_virial(statistics, dimension):
    """B(q) = (1/4) (2^(1 - D/2) - c Lambda^(-D/2)) of one gas, as a function of q."""
    c, p = _EXCHANGE[statistics], dimension / 2.0
    ideal = 2.0 ** (1.0 - p)
    inverse = statistics == FERMION

    def coefficient(q):
        if not 0.0 < q < math.inf:
            raise DomainError(f"deformation parameter q must be finite and > 0, got {q!r}")
        t = 1.0 / float(q) if inverse else float(q)
        # t * t overflows to inf for t > 1.3e154, and inf ** -p is 0.0; as a
        # Python float, not a numpy scalar, t overflows without a warning
        return 0.25 * (ideal - c * (1.0 + t * t) ** -p)

    return coefficient


# B(q) of each (statistics, D)
_B = {gas: _second_virial(*gas) for gas in _GASES.values()}


def _gas(kind):
    try:
        return _GASES[kind]
    except KeyError:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}") from None


def alpha(q):
    """Fermion D=3 coefficient: > 0 below q* = 1.961..., alpha(1) = 1/(8 sqrt(2))."""
    return _B[FERMION, 3](q)


def delta(q):
    """Boson D=3 coefficient: < 0 below q* = 1.273..., delta(1) = -1/(8 sqrt(2))."""
    return _B[BOSON, 3](q)


def eta(q):
    """Boson D=2 coefficient -(2 - q^2)/(4 (1 + q^2)): < 0 below sqrt(2), eta(1) = -1/8."""
    return _B[BOSON, 2](q)


def zeta_fermion_d2(q):
    """Fermion D=2 coefficient 1/(4 (1 + q^2)): > 0 for every q, zeta(1) = 1/8."""
    return _B[FERMION, 2](q)


def closed_form_threshold(kind):
    """Exact root q* of the named coefficient, or None if it has no sign change.

    alpha: (2^(1/3) - 1)^(-1/2); delta: ((3 sqrt(2))^(2/3) - 1)^(1/2);
    eta: sqrt(2); zeta: None.
    """
    statistics, dimension = _gas(kind)
    lam = (_EXCHANGE[statistics] * 2.0 ** (dimension / 2.0 - 1.0)) ** (2.0 / dimension)
    if lam <= 1.0:
        return None
    return (lam - 1.0) ** (0.5 if statistics == BOSON else -0.5)


def virial_threshold(kind, q_lo=0.5, q_hi=5.0):
    """Bisection root of the named coefficient over [q_lo, q_hi], or None.

    Bisection runs to |dq| < 1e-10 (the closed forms double as the oracle for
    this).  Returns None when the coefficient does not change sign on the
    bracket, which is the case for zeta at any bracket.
    """
    return bisect(_B[_gas(kind)], q_lo, q_hi, xtol=1e-10)


def fugacity_from_density(spec, density):
    """Second-order fugacity z(n) = n/2 + B(q) n^2 at density n = g12 / p (beta = 1).

    B is the coefficient of spec's gas (alpha, delta, eta or zeta).  Raises
    OutOfVirialRangeError when the second-order term reaches half the first
    (expansion no longer trustworthy).
    """
    if not (isinstance(density, (int, float)) and math.isfinite(density) and density > 0):
        raise DomainError(f"density must be finite and > 0, got {density!r}")
    n = float(density)
    first = 0.5 * n
    second = _B[spec.statistics, spec.dimension](spec.q) * n * n
    if abs(second) >= 0.5 * abs(first):
        raise OutOfVirialRangeError(
            f"second-order term {second:.3e} is not small against {first:.3e}; "
            f"density {n} is outside the virial range")
    return first + second
