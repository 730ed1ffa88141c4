"""The equidistribution dichotomy's hit-density gate, the one piece of it the
solver runs.

`density_gate` checks the dichotomy's preconditions, sizes its frequency box
and counts the strict hits in one pass.  Dense hits take the hit-density
branch; otherwise the large-coefficients branch is left for the box scan,
`diophantine.large_coefficients`, which finds its witnesses.  When
c_hit * Delta > 1 no count of n <= x can reach the threshold, so the gate
takes the large-coefficients branch without counting.  On the solve path
the count stops once it reaches the threshold and the smallest hit n < x is
known, since only the branch and that hit are used; the box scan and
`fourier-scan` record the full count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

from .core import (
    DEFAULT_ENUM_CAP,
    Epsilons,
    PolySystem,
    _check_cap,
    _delta_scaled_caps,
    hit_count,
)

DEFAULT_MAX_BOX = 20000

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


def frequency_caps(eps: Epsilons) -> Tuple[int, ...]:
    """h_cap_i = floor(eps_i^-1 * Delta^(-1/(2k)^4))."""
    return tuple(_delta_scaled_caps(eps, Fraction(1, (2 * eps.k) ** 4)))


def density_gate(system: PolySystem, eps: Epsilons, x, c_hit: float = 0.05,
                 max_box: int = DEFAULT_MAX_BOX, enum_cap: int = DEFAULT_ENUM_CAP,
                 count_all: bool = True
                 ) -> Tuple[FourierDichotomy, Optional[Tuple[int, Optional[int]]]]:
    """The dichotomy's preconditions and its hit-density test.

    Raises ValueError unless Delta <= 1/4 and floor(x) >= 2,
    BoxTooLargeError when the frequency box exceeds ``max_box``, and
    HorizonCapError when a scan of floor(x) points would exceed
    ``enum_cap``.  The branch is HIT_DENSITY when the strict hit count
    reaches c_hit * Delta * floor(x), else LARGE_COEFFICIENTS with Q and
    witnesses left for the box scan.  Returns the dichotomy and
    `hit_count`'s (count, smallest hit n < x), or None in its place when
    c_hit * Delta > 1: no count could reach the threshold, so none is made.

    Unless ``count_all``, the count stops at the end of the first chunk
    after which it has reached the threshold and a hit n < x is known (see
    `hit_count`): the branch and the smallest hit are the full count's, but
    a HIT_DENSITY count, ``density_count`` included, covers only the chunks
    scanned.
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

    threshold = Fraction(c_hit) * delta * N
    if threshold > N:
        # the count could not reach it; the cap is checked as the count would
        _check_cap(N, system.k, enum_cap)
        return FourierDichotomy(branch=LARGE_COEFFICIENTS, x_floor=N, h_caps=caps), None
    counted = hit_count(system, eps, x, enum_cap=enum_cap,
                        stop_at=None if count_all else math.ceil(threshold))
    if counted[0] < threshold:
        return FourierDichotomy(branch=LARGE_COEFFICIENTS, x_floor=N, h_caps=caps), counted
    return FourierDichotomy(branch=HIT_DENSITY, x_floor=N, h_caps=caps, density_count=counted[0],
                            density_threshold=float(threshold)), counted
