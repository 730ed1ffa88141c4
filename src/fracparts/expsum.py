"""Exponential sums, smoothed counting, and the equidistribution dichotomy.

Phase discipline: every phase polynomial is reduced mod 1 in exact rational
arithmetic before exponentiation, so the only floating error is the final
rounding of an exact rational phase into a float (or an mpmath float at the
requested precision).  The box scan uses numpy doubles on those exactly
reduced phase coefficients; selected witnesses are re-evaluated with per-n
exact phase reduction before they are reported.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import add
from typing import List, Optional, Sequence, Tuple

import mpmath
import numpy as np

from .core import (
    DEFAULT_ENUM_CAP,
    DEFAULT_PRECISION_BITS,
    Epsilons,
    Poly,
    PolySystem,
    _check_cap,
    _hits,
    _residues,
    _strict_thresholds,
    coefficient_sums,
    frac_dist,
    hit_count,
)

DEFAULT_MAX_BOX = 20000

FrequencyVector = Tuple[int, ...]

HIT_DENSITY = "hit-density"
LARGE_COEFFICIENTS = "large-coefficients"

# additive slack, relative to floor(x), for the dyadic window membership of
# re-evaluated witnesses
WINDOW_REL_TOL = Fraction(1, 2 ** 40)


class BoxTooLargeError(Exception):
    """The frequency box exceeds the enumeration cap."""


class InvalidApproximationError(Exception):
    """Declared rational approximation fails its own quality precondition."""


# ---------------------------------------------------------------------------
# Smoothing kernel.
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class SmoothingKernel:
    """Fixed even bump: 1 on |t| <= 1/2, supported on |t| < 1, C^2 throughout.

    The transition on [1/2, 1] is a three-piece cubic spline.  Fourier data
    is computed numerically on demand.
    """

    def phi(self, u) -> Fraction:
        u = abs(Fraction(u))
        if u <= Fraction(1, 2):
            return Fraction(1)
        if u >= 1:
            return Fraction(0)
        return _transition(2 * u - 1)

    def periodized(self, t, eps) -> Fraction:
        """Phi(t) = sum_m phi((t+m)/eps); equals phi(frac_dist(t)/eps) for eps <= 1/2."""
        if not (0 < eps <= Fraction(1, 2)):
            raise ValueError("kernel width must lie in (0, 1/2]")
        return self.phi(frac_dist(t) / eps)

    def phi_hat(self, u: float) -> float:
        """Fourier transform integral phi(t) e(-ut) dt (real since phi is even)."""
        pieces = [(0, 0.5), (0.5, 0.5 + 1 / 6), (0.5 + 1 / 6, 0.5 + 1 / 3), (0.5 + 1 / 3, 1.0)]
        total = mpmath.mpf(0)
        for lo, hi in pieces:
            total += mpmath.quad(
                lambda t: float(self.phi(Fraction(float(t))))
                * mpmath.cos(2 * mpmath.pi * u * t), [lo, hi])
        return float(2 * total)

    def fourier_coefficient(self, eps, h: int) -> float:
        """Coefficient of e(h t) in the Fourier series of the eps-periodization."""
        e = float(eps)
        return e * self.phi_hat(e * h)


# ---------------------------------------------------------------------------
# Weyl sums.
# ---------------------------------------------------------------------------


def _phase_coefficients(system: PolySystem, h: Sequence[int]) -> List[Fraction]:
    """sigma_j = sum_i h_i f_{i,j}, reduced mod 1, for j = 1..d."""
    return [s.value - s.value.__floor__() for s in coefficient_sums(system, h)]


def _phase_residues(sigma: Sequence[Fraction], last: int):
    """D and the residue stream of the phase polynomial sum_j sigma_j n^j."""
    return _residues(PolySystem((Poly(tuple(sigma)),)), last)


def weyl_sum(system: PolySystem, h: Sequence[int], x,
             bits: int = DEFAULT_PRECISION_BITS) -> mpmath.mpc:
    """sum_{n <= x} e(sum_i h_i f_i(n)) at ``bits`` working precision.

    Each phase is an exact rational reduced mod 1 before the complex
    exponential is taken, so results at different precisions agree to the
    smaller precision's rounding.  Raises HorizonCapError when floor(x)
    exceeds the default enumeration cap.
    """
    last = math.floor(x)
    _check_cap(last, 1, DEFAULT_ENUM_CAP)
    sigma = _phase_coefficients(system, h)
    with mpmath.workprec(bits + 16):
        if not any(sigma):
            return mpmath.mpc(last, 0)
        D, chunks = _phase_residues(sigma, last)
        cache = {}
        total = mpmath.mpc(0)
        for _n0, (col,) in chunks:
            for r in col:
                val = cache.get(r)
                if val is None:
                    val = mpmath.expjpi(mpmath.mpf(2 * r) / D)
                    if D <= 65536:
                        cache[r] = val
                total += val
        return total


def _abs_sum_exact_phase(sigma: Sequence[Fraction], last: int) -> float:
    """|sum_{n<=last} e(P(n))| with exact per-n phase reduction, float arithmetic.

    The phase handed to cos/sin is an exact rational in [0,1), so the float
    error is bounded by last * 2pi * 2^-52.  The cosines and sines are added
    one n at a time, in order: `reduce`, since `sum` of floats is
    compensated from Python 3.12 on.
    """
    if not any(sigma):
        return float(last)
    D, chunks = _phase_residues(sigma, last)
    re = 0.0
    im = 0.0
    tau = 2 * math.pi
    invD = 1.0 / D
    for _n0, (col,) in chunks:
        angles = [tau * (r * invD) for r in col]
        re = reduce(add, map(math.cos, angles), re)
        im = reduce(add, map(math.sin, angles), im)
    return math.hypot(re, im)


# ---------------------------------------------------------------------------
# Smoothed counting.
# ---------------------------------------------------------------------------


def smoothed_count(system: PolySystem, eps: Epsilons, x,
                   enum_cap: int = DEFAULT_ENUM_CAP) -> Fraction:
    """sum_{n <= x} prod_i Phi_i(f_i(n)), exactly, with `SmoothingKernel`'s Phi.

    Sandwiched between the strict hit counts at eps/2 and eps because the
    kernel's plateau covers |u| <= 1/2 and its support is |u| < 1.
    """
    last = math.floor(x)
    _check_cap(last, system.k, enum_cap)
    D, chunks = _residues(system, last)
    # in D * frac_dist units: the support is the strict hit region, and the
    # plateau is 2*m*den <= num*D
    support = _strict_thresholds(eps, D)
    plateau = [e.numerator * D // (2 * e.denominator) for e in eps.eps]
    total = Fraction(0)
    for _n0, cols in chunks:
        for j in _hits(cols, D, support):
            prod = Fraction(1)
            for col, e, flat in zip(cols, eps.eps, plateau):
                m = min(col[j], D - col[j])
                if m > flat:  # transition band
                    prod *= _transition(2 * Fraction(m, D) / e - 1)
            total += prod
    return total


# ---------------------------------------------------------------------------
# The dichotomy.
# ---------------------------------------------------------------------------


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
        return FourierDichotomy(
            branch=d["branch"], x_floor=d["x_floor"], h_caps=tuple(d["h_caps"]),
            density_count=d.get("density_count"),
            density_threshold=d.get("density_threshold"), Q=d.get("Q"),
            witnesses=[(tuple(h), s) for h, s in d.get("witnesses", [])],
            flagged=d.get("flagged", False), flag_reason=d.get("flag_reason", ""))


def _delta_scaled_caps(eps: Epsilons, exponent: Fraction) -> List[int]:
    """floor(eps_i^-1 * Delta^(-exponent)) for each i, at 96 bits."""
    delta = eps.delta_product
    with mpmath.workprec(96):
        factor = mpmath.power(mpmath.mpf(delta.numerator) / delta.denominator,
                              -float(exponent))
        return [int(mpmath.floor(factor / (mpmath.mpf(e.numerator) / e.denominator)))
                for e in eps.eps]


def frequency_caps(eps: Epsilons) -> Tuple[int, ...]:
    """h_cap_i = floor(eps_i^-1 * Delta^(-1/(2k)^4))."""
    return tuple(_delta_scaled_caps(eps, Fraction(1, (2 * eps.k) ** 4)))


def _half_box(caps: Sequence[int]):
    """Nonzero h with first nonzero coordinate positive (conjugate halving)."""
    ranges = [range(-c, c + 1) for c in caps]
    for h in itertools.product(*ranges):
        for v in h:
            if v > 0:
                yield h
                break
            if v < 0:
                break


def _dyadic_index(s: float, N: int) -> Optional[int]:
    """Smallest j >= 1 with N/2^j <= s; then s <= 2N/2^j automatically."""
    if s <= 0:
        return None
    j = max(1, math.ceil(math.log2(N / s)))
    while (1 << j) * s < N:  # fix float boundary wobble
        j += 1
    while j > 1 and (1 << (j - 1)) * s >= N:
        j -= 1
    return j


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


def large_coefficients(system: PolySystem, eps: Epsilons, x, c_hit: float = 0.05,
                       max_box: int = DEFAULT_MAX_BOX) -> FourierDichotomy:
    """Hit-density versus many-large-Fourier-coefficients dichotomy.

    Branch 1 fires when `density_gate` finds the hits dense.  Otherwise all
    nonzero h in the frequency box are scanned, |S(h)| values are bucketed
    into dyadic classes [x/Q, 2x/Q] with Q = 2^j, and the smallest Q whose
    class (after precise re-evaluation of its members) holds at least
    sqrt(Q) vectors wins.  If no class qualifies, the most populated one is
    returned with a diagnostic flag.
    """
    gate, _first = density_gate(system, eps, x, c_hit=c_hit, max_box=max_box)
    if gate.branch == HIT_DENSITY:
        return gate
    N, caps = gate.x_floor, gate.h_caps

    # fast pass: numpy doubles on exactly reduced phase coefficients
    n = np.arange(1, N + 1, dtype=np.float64)
    npow = [n ** j for j in range(1, system.d + 1)]
    classes: dict = {}
    fast_abs: dict = {}
    for h in _half_box(caps):
        sigma = _phase_coefficients(system, h)
        ph = np.zeros_like(n)
        for j, s in enumerate(sigma):
            if s:
                ph += float(s) * npow[j]
        s_abs = float(np.abs(np.exp(2j * np.pi * ph).sum()))
        fast_abs[h] = s_abs
        j = _dyadic_index(s_abs, N)
        if j is not None:
            classes.setdefault(j, []).append(h)

    tol = Fraction(N) * WINDOW_REL_TOL
    WITNESS_EMIT_CAP = 32  # canonical members; each implies its mirror too

    def precise(h):
        return _abs_sum_exact_phase(_phase_coefficients(system, h), N)

    def window_members(j, members, stop_at=None):
        # strongest members first so truncation keeps the largest sums
        Q = 1 << j
        lo, hi = Fraction(N, Q) - tol, Fraction(2 * N, Q) + tol
        kept = []
        for h in sorted(members, key=lambda hh: (-fast_abs[hh], hh)):
            s_precise = precise(h)
            if lo <= Fraction(s_precise) <= hi:
                kept.append((h, s_precise))
                if stop_at is not None and len(kept) >= stop_at:
                    break
        return kept

    def mirrored(kept):
        # each kept h stands for itself and its conjugate -h, sorted by h
        return sorted(((hh, s) for h, s in kept for hh in (h, tuple(-v for v in h))),
                      key=lambda w: w[0])

    for j in sorted(classes):
        Q = 1 << j
        need = math.isqrt(Q)
        if need * need < Q:
            need += 1
        if 2 * len(classes[j]) < need:
            continue
        canonical_need = max((need + 1) // 2, 1)
        kept = window_members(j, classes[j],
                              stop_at=max(canonical_need, WITNESS_EMIT_CAP))
        if 2 * len(kept) >= need:
            return FourierDichotomy(branch=LARGE_COEFFICIENTS, x_floor=N,
                                    h_caps=caps, Q=Q, witnesses=mirrored(kept))

    # nothing met its sqrt(Q) threshold: report the fullest class, flagged
    if classes:
        j = max(sorted(classes), key=lambda jj: len(classes[jj]))
        kept = window_members(j, classes[j], stop_at=WITNESS_EMIT_CAP) \
            or [(h, fast_abs[h]) for h in classes[j][:WITNESS_EMIT_CAP]]
        return FourierDichotomy(branch=LARGE_COEFFICIENTS, x_floor=N, h_caps=caps,
                                Q=1 << j, witnesses=mirrored(kept), flagged=True,
                                flag_reason="no dyadic class met its sqrt(Q) threshold")
    return FourierDichotomy(branch=LARGE_COEFFICIENTS, x_floor=N, h_caps=caps,
                            Q=2, witnesses=[], flagged=True,
                            flag_reason="all box exponential sums vanish")


# ---------------------------------------------------------------------------
# Empirical exponential-sum bound probe.
# ---------------------------------------------------------------------------


@dataclass
class WeylBoundReport:
    lhs: float
    rhs: float
    passed: bool
    q: int
    c_d: float
    C_check: float

    def to_dict(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "passed": self.passed,
                "q": self.q, "c_d": self.c_d, "C_check": self.C_check}


def verify_weyl_bound(poly: Poly, alpha, a: int, q: int, Q: int, x,
                      c_d: float, C_check: float) -> WeylBoundReport:
    """Empirical probe of |sum_{n<=x} e(f(n) alpha)| <= C (x/q^c + x/(x^d/q)^c).

    Requires a monic f, gcd(a, q) = 1 and |alpha - a/q| <= 1/(qQ) with Q >= q.
    This checks an instance of the bound numerically; it proves nothing.
    """
    if poly.coeffs[-1].value != 1:
        raise ValueError("polynomial must be monic (lead coefficient exactly 1)")
    if q < 1 or math.gcd(a, q) != 1:
        raise InvalidApproximationError(f"gcd({a},{q}) != 1 or q < 1")
    if Q < q:
        raise InvalidApproximationError(f"declared Q = {Q} below q = {q}")
    if abs(alpha - Fraction(a, q)) > Fraction(1, q * Q):
        raise InvalidApproximationError(
            f"|alpha - {a}/{q}| exceeds 1/(qQ) = 1/{q * Q}")
    N = math.floor(x)
    d = poly.d
    sigma = [(c.value * alpha) % 1 for c in poly.coeffs]
    lhs = _abs_sum_exact_phase(sigma, N)
    xf = float(x)
    rhs = C_check * (xf / q ** c_d + xf / (xf ** d / q) ** c_d)
    return WeylBoundReport(lhs=lhs, rhs=rhs, passed=lhs <= rhs, q=q,
                           c_d=c_d, C_check=C_check)
