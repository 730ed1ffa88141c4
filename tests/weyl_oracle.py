"""The mpmath reference for the phase sums.

`diophantine._abs_sum_exact_phase` adds e(P(n)) in floats over the residue
stream of the phase polynomial P = sum_i h_i f_i.  `weyl_sum` here takes the
same sum in mpmath at a chosen working precision, over the same stream, and
`exp_sum` is its loop over any residues, so that a per-n reference can run
it too.  mpmath is a test dependency only.
"""

import math

import mpmath

from fracparts.core import DEFAULT_ENUM_CAP, DEFAULT_PRECISION_BITS, _check_cap
from fracparts.diophantine import _phase_coefficients, _phase_residues


def exp_sum(residues, bits: int = DEFAULT_PRECISION_BITS) -> mpmath.mpc:
    """The sum of e(r / D) over the (r, D) pairs, in order, at ``bits`` + 16
    working bits; each distinct pair's exponential is taken once."""
    with mpmath.workprec(bits + 16):
        total, values = mpmath.mpc(0), {}
        for r, D in residues:
            if (r, D) not in values:
                values[r, D] = mpmath.expjpi(mpmath.mpf(2 * r) / D)
            total += values[r, D]
        return total


def weyl_sum(system, h, x, bits: int = DEFAULT_PRECISION_BITS) -> mpmath.mpc:
    """sum_{n <= x} e(sum_i h_i f_i(n)) at ``bits`` working precision.

    Each phase is an exact rational reduced mod 1 before the complex
    exponential is taken, so results at different precisions agree to the
    smaller precision's rounding.  Raises HorizonCapError when floor(x)
    exceeds the default enumeration cap.
    """
    last = math.floor(x)
    _check_cap(last, 1, DEFAULT_ENUM_CAP)
    sigma = _phase_coefficients(system, h)
    if not any(sigma):
        return mpmath.mpc(last, 0)
    D, chunks = _phase_residues(sigma, last)
    return exp_sum(((r % D, D) for col in chunks for r in col), bits)
