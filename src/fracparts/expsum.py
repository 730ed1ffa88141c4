"""The equidistribution dichotomy's hit-density gate, the one piece of it the
solver runs.

`density_gate` checks the dichotomy's preconditions, sizes its frequency box
and counts the strict hits in one pass.  Dense hits take the hit-density
branch; otherwise the large-coefficients branch is left for the box scan,
`diophantine.large_coefficients`, which finds its witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

from .core import DEFAULT_ENUM_CAP, Epsilons, PolySystem, hit_count

DEFAULT_MAX_BOX = 20000

# relative margin from an integer within which a float cap estimate is
# checked exactly
CAP_REL_TOL = 1e-9

FrequencyVector = Tuple[int, ...]

HIT_DENSITY = "hit-density"
LARGE_COEFFICIENTS = "large-coefficients"


class BoxTooLargeError(Exception):
    """The frequency box exceeds the enumeration cap."""


@dataclass
class FourierDichotomy:
    branch: str
    x_floor: int
    h_caps: Tuple[int, ...]
    density_count: Optional[int] = None
    density_threshold: Optional[float] = None
    Q: Optional[int] = None
    witnesses: List[Tuple[FrequencyVector, float]] = field(default_factory=list)
    flagged: bool = False
    flag_reason: str = ""

    def to_dict(self) -> dict:
        return {
            "branch": self.branch,
            "x_floor": self.x_floor,
            "h_caps": list(self.h_caps),
            "density_count": self.density_count,
            "density_threshold": self.density_threshold,
            "Q": self.Q,
            "witnesses": [[list(h), s] for h, s in self.witnesses],
            "flagged": self.flagged,
            "flag_reason": self.flag_reason,
        }

    @staticmethod
    def from_dict(d: dict) -> "FourierDichotomy":
        """Inverse of `to_dict`; raises TypeError on a field of the wrong type."""
        branch, x_floor = d["branch"], d["x_floor"]
        h_caps = _int_tuple(d["h_caps"], "h_caps")
        if not _is_int(x_floor):
            raise TypeError("x_floor must be an integer")
        witnesses = [(_int_tuple(h, "a witness vector"), s) for h, s in d.get("witnesses", [])]
        if not all(isinstance(s, float) or _is_int(s) for _h, s in witnesses):
            raise TypeError("a witness score must be a number")
        return FourierDichotomy(
            branch=branch, x_floor=x_floor, h_caps=h_caps,
            density_count=d.get("density_count"),
            density_threshold=d.get("density_threshold"), Q=d.get("Q"),
            witnesses=witnesses,
            flagged=d.get("flagged", False), flag_reason=d.get("flag_reason", ""))


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _int_tuple(values, name: str) -> Tuple[int, ...]:
    if not isinstance(values, list) or not all(map(_is_int, values)):
        raise TypeError(f"{name} must be a list of integers")
    return tuple(values)


def _delta_scaled_caps(eps: Epsilons, exponent: Fraction) -> List[int]:
    """floor(eps_i^-1 * Delta^(-exponent)) for each i, exactly.

    A float estimate from logs settles each cap whose value lies clear of an
    integer by CAP_REL_TOL (relative); the few that do not are decided
    exactly: with exponent = p/q, c qualifies iff (c * eps_i)^q * Delta^p <= 1.
    """
    delta = eps.delta_product
    p, q = exponent.numerator, exponent.denominator
    log2_num, log2_den = math.log2(delta.numerator), math.log2(delta.denominator)
    log2_factor = -float(exponent) * (log2_num - log2_den)
    caps = []
    for e in eps.eps:
        log2_e_num, log2_e_den = math.log2(e.numerator), math.log2(e.denominator)
        log2v = log2_factor + log2_e_den - log2_e_num
        # each log is good to an ulp of its own size, so widen the margin with them
        tol = CAP_REL_TOL + 2.0 ** -48 * (float(exponent) * (log2_num + log2_den)
                                          + log2_e_num + log2_e_den)
        shift = max(0, math.floor(log2v) - 52)  # so that mant < 2^53
        mant = 2.0 ** (log2v - shift)
        lo = math.floor(mant * (1 - tol)) << shift
        hi = ((math.floor(mant * (1 + tol)) + 1) << shift) - 1
        if lo < hi:  # lo <= cap <= hi: bisect for the largest c that qualifies
            lhs, rhs = delta.numerator ** p, e.denominator ** q * delta.denominator ** p
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if (mid * e.numerator) ** q * lhs <= rhs:
                    lo = mid
                else:
                    hi = mid - 1
        caps.append(lo)
    return caps


def frequency_caps(eps: Epsilons) -> Tuple[int, ...]:
    """h_cap_i = floor(eps_i^-1 * Delta^(-1/(2k)^4))."""
    return tuple(_delta_scaled_caps(eps, Fraction(1, (2 * eps.k) ** 4)))


def density_gate(system: PolySystem, eps: Epsilons, x, c_hit: float = 0.05,
                 max_box: int = DEFAULT_MAX_BOX,
                 enum_cap: int = DEFAULT_ENUM_CAP) -> Tuple[FourierDichotomy, Optional[int]]:
    """The dichotomy's preconditions and its hit-density test.

    Raises ValueError unless Delta <= 1/4 and floor(x) >= 2, and
    BoxTooLargeError when the frequency box exceeds ``max_box``.  The branch
    is HIT_DENSITY when the strict hit count reaches c_hit * Delta * floor(x),
    else LARGE_COEFFICIENTS with Q and witnesses left for the box scan.
    The count's pass also returns the smallest hit n < x, or None.
    """
    delta = eps.delta_product
    if delta > Fraction(1, 4):
        raise ValueError(f"Delta = {delta} exceeds 1/4")
    N = math.floor(x)
    if N < 2:
        raise ValueError("need floor(x) >= 2")

    caps = frequency_caps(eps)
    box = math.prod(2 * c + 1 for c in caps)
    if box > max_box:
        raise BoxTooLargeError(f"frequency box {box} exceeds cap {max_box}")

    hits, first = hit_count(system, eps, x, enum_cap=enum_cap)
    threshold = Fraction(c_hit) * delta * N
    if hits < threshold:
        return FourierDichotomy(branch=LARGE_COEFFICIENTS, x_floor=N, h_caps=caps), first
    return FourierDichotomy(branch=HIT_DENSITY, x_floor=N, h_caps=caps, density_count=hits,
                            density_threshold=float(threshold)), first
