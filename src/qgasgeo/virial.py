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
fermions; the D=2 fermion has Lambda* = 1 and so no root, zeta > 0 for every q
(up to 2.8e161, where zeta underflows).
`virial_threshold` returns q* from this closed form, evaluated once per gas
when the module loads, so a call is a table lookup; `checks.virial_thresholds`
cross-checks it against a numerical bisection of B(q).
"""

import math

from .core import BOSON, FERMION, _require_positive

__all__ = [
    "KINDS",
    "OutOfVirialRangeError",
    "alpha",
    "delta",
    "eta",
    "fugacity_from_density",
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


def _second_virial(statistics, dimension, q):
    """B(q) = (1/4) (2^(1 - D/2) - c Lambda^(-D/2)) of one gas; raises
    DomainError unless q is a finite real > 0 (not a bool)."""
    _require_positive(q, "deformation parameter q")
    c, p = _EXCHANGE[statistics], dimension / 2.0
    ideal = 2.0 ** (1.0 - p)
    t = 1.0 / float(q) if statistics == FERMION else float(q)
    # t * t overflows to inf for t > 1.3e154, and inf ** -p is 0.0; as a
    # Python float, not a numpy scalar, t overflows without a warning
    if ideal == c:  # D = 2 fermion: no difference to cancel to 0.0 at large q
        return -0.25 * c * math.expm1(-p * math.log1p(t * t))
    return 0.25 * (ideal - c * (1.0 + t * t) ** -p)


def alpha(q):
    """Fermion D=3 coefficient: > 0 below q* = 1.961..., alpha(1) = 1/(8 sqrt(2))."""
    return _second_virial(FERMION, 3, q)


def delta(q):
    """Boson D=3 coefficient: < 0 below q* = 1.273..., delta(1) = -1/(8 sqrt(2))."""
    return _second_virial(BOSON, 3, q)


def eta(q):
    """Boson D=2 coefficient -(2 - q^2)/(4 (1 + q^2)): < 0 below sqrt(2), eta(1) = -1/8."""
    return _second_virial(BOSON, 2, q)


def zeta_fermion_d2(q):
    """Fermion D=2 coefficient 1/(4 (1 + q^2)): > 0 for every q, zeta(1) = 1/8."""
    return _second_virial(FERMION, 2, q)


def _threshold(statistics, dimension):
    """Root q* of B(q), or None where Lambda* <= 1 (no sign change)."""
    lam = (_EXCHANGE[statistics] * 2.0 ** (dimension / 2.0 - 1.0)) ** (2.0 / dimension)
    if lam <= 1.0:
        return None
    return (lam - 1.0) ** (0.5 if statistics == BOSON else -0.5)


# q* of each kind
_THRESHOLDS = {kind: _threshold(*gas) for kind, gas in _GASES.items()}


def virial_threshold(kind):
    """Root q* of the named coefficient in closed form, or None if it has no sign change.

    q* = (Lambda* - 1)^(1/2) for bosons and (Lambda* - 1)^(-1/2) for
    fermions, Lambda* = (c 2^(D/2 - 1))^(2/D): alpha (2^(1/3) - 1)^(-1/2),
    delta ((3 sqrt(2))^(2/3) - 1)^(1/2), eta sqrt(2), each within an ulp of
    the exact root; zeta None.  Raises ValueError for any other kind.
    """
    try:
        return _THRESHOLDS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind, such as a list
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}") from None


def fugacity_from_density(spec, density):
    """Second-order fugacity z(n) = n/2 + B(q) n^2 at density n = g12 / p (beta = 1).

    B is the coefficient of spec's gas (alpha, delta, eta or zeta).  Raises
    OutOfVirialRangeError when the second-order term reaches half the first
    (expansion no longer trustworthy).
    """
    _require_positive(density, "density")
    n = float(density)
    first = 0.5 * n
    second = _second_virial(spec.statistics, spec.dimension, spec.q) * n * n
    if abs(second) >= 0.5 * abs(first):
        raise OutOfVirialRangeError(
            f"second-order term {second:.3e} is not small against {first:.3e}; "
            f"density {n} is outside the virial range")
    return first + second
