"""The smoothing kernel phi and the smoothed count: sum_{n <= x} of a
product of C^2 bumps of the distances ||f_i(n)|| / eps_i.

The count sits between the strict hit counts at eps/2 and at eps, which the
kernel and scan tests check; the solver itself counts hits without a kernel.
"""

import math
from fractions import Fraction

from fracparts.core import (
    DEFAULT_ENUM_CAP,
    Epsilons,
    PolySystem,
    _check_cap,
    _sieved,
    _strict_thresholds,
)

# Transition profile T on [0,1]: T(0)=1, T(1)=0, C^2 with vanishing first and
# second derivatives at both ends; piecewise cubic with knots at 1/3, 2/3
# (the integral of a quadratic B-spline).
_THIRD = Fraction(1, 3)
_TWO_THIRDS = Fraction(2, 3)


def _transition(s: Fraction) -> Fraction:
    if s <= 0:
        return Fraction(1)
    if s >= 1:
        return Fraction(0)
    if s <= _THIRD:
        return 1 - Fraction(9, 2) * s ** 3
    if s <= _TWO_THIRDS:
        return Fraction(1, 2) + Fraction(9, 2) * s - Fraction(27, 2) * s ** 2 + 9 * s ** 3
    return Fraction(9, 2) * (1 - s) ** 3


def phi(u) -> Fraction:
    """The kernel: an even bump, 1 on |u| <= 1/2, supported on |u| < 1, C^2
    throughout, with `_transition` on 1/2 < |u| < 1."""
    u = abs(Fraction(u))
    if u <= Fraction(1, 2):
        return Fraction(1)
    if u >= 1:
        return Fraction(0)
    return _transition(2 * u - 1)


def smoothed_count(system: PolySystem, eps: Epsilons, x,
                   enum_cap: int = DEFAULT_ENUM_CAP) -> Fraction:
    """sum_{n <= x} prod_i Phi_i(f_i(n)), exactly, with Phi_i(t) =
    phi(||t|| / eps_i), ||t|| the distance from t to the nearest integer.

    Sandwiched between the strict hit counts at eps/2 and eps because the
    kernel's plateau covers |u| <= 1/2 and its support is |u| < 1.
    """
    last = math.floor(x)
    _check_cap(last, system.k, enum_cap)
    D, nums = system.numerators
    # in units of 1/D: the support is the strict hit region, and the
    # plateau is 2*m*den <= num*D
    support = _strict_thresholds(eps, D)
    plateau = [e.numerator * D // (2 * e.denominator) for e in eps.eps]
    total = Fraction(0)
    for _hits, rows in _sieved(D, nums, last, support):
        for dists in rows:
            prod = Fraction(1)
            for m, e, flat in zip(dists, eps.eps, plateau):
                if m > flat:  # transition band
                    prod *= _transition(2 * Fraction(m, D) / e - 1)
            total += prod
    return total
