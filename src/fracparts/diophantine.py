"""The analytic toolkit behind the CLI chain ``fourier-scan | relations``:
phase sums, the smoothed count, the large-coefficients box scan, best
rational approximation and relation triples.  The solver imports none of it.

Phase discipline: every phase polynomial is reduced mod 1 in exact rational
arithmetic before exponentiation, so the only floating error is the final
rounding of an exact rational phase into a float (or an mpmath float at the
requested precision).  The box scan uses numpy doubles on those exactly
reduced phase coefficients; selected witnesses are re-evaluated with per-n
exact phase reduction before they are reported.

Relations: coefficient values are known numerically, so the per-coefficient
rationals are recovered directly by continued fractions instead of through
exponential sums over sub-progressions; the output contract (per-slot
rationals with bounded denominators attached to each witness) is unchanged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, mod
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
)
from .expsum import (
    DEFAULT_MAX_BOX,
    HIT_DENSITY,
    LARGE_COEFFICIENTS,
    FourierDichotomy,
    density_gate,
)
from .reduction import C_CFG

# additive slack, relative to floor(x), for the dyadic window membership of
# re-evaluated witnesses
WINDOW_REL_TOL = Fraction(1, 2 ** 40)

# the residual filter's multiplier of Q_rel^C / x^j
TOL_REL = 1
Q_REL_HARD_CAP = 10 ** 6


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


def phi(u) -> Fraction:
    """The kernel: an even bump, 1 on |u| <= 1/2, supported on |u| < 1, C^2
    throughout, with `_transition` on 1/2 < |u| < 1."""
    u = abs(Fraction(u))
    if u <= Fraction(1, 2):
        return Fraction(1)
    if u >= 1:
        return Fraction(0)
    return _transition(2 * u - 1)


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
            for r in map(mod, col, itertools.repeat(D)):
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
        angles = [tau * (r * invD) for r in map(mod, col, itertools.repeat(D))]
        re = reduce(add, map(math.cos, angles), re)
        im = reduce(add, map(math.sin, angles), im)
    return math.hypot(re, im)


# ---------------------------------------------------------------------------
# Smoothed counting.
# ---------------------------------------------------------------------------


def smoothed_count(system: PolySystem, eps: Epsilons, x,
                   enum_cap: int = DEFAULT_ENUM_CAP) -> Fraction:
    """sum_{n <= x} prod_i Phi_i(f_i(n)), exactly, with Phi_i(t) =
    phi(frac_dist(t) / eps_i).

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
                r = col[j] % D
                m = min(r, D - r)
                if m > flat:  # transition band
                    prod *= _transition(2 * Fraction(m, D) / e - 1)
            total += prod
    return total


# ---------------------------------------------------------------------------
# The large-coefficients box scan.
# ---------------------------------------------------------------------------


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
# Best rational approximation and relation triples.
# ---------------------------------------------------------------------------


class ShapeMismatchError(ValueError):
    pass


def _feasible(dist: Fraction, q: int, Q: int) -> bool:
    # the Dirichlet quality gate: |alpha - a/q| <= 1/(q(Q+1))
    return dist * q * (Q + 1) <= 1


def best_rational(alpha, Q: int) -> Tuple[int, int]:
    """Best fraction a/q with 1 <= q <= Q within the Dirichlet quality gate.

    Minimizes |alpha - a/q| over all fractions that satisfy
    |alpha - a/q| <= 1/(q(Q+1)); ties prefer the smaller q.  The gate is
    necessary for the minimum to inherit Dirichlet's guarantee: the
    unconstrained closest fraction can violate it (alpha = 41/100, Q = 4
    has closest fraction 1/3 at distance 23/300 > 1/15).  Candidates are
    walked along the continued fraction: convergents plus intermediate
    fractions, scanned from the best of each level downward.
    """
    if Q < 1:
        raise ValueError("Q must be a positive integer")
    alpha = Fraction(alpha)

    best: Optional[Tuple[Fraction, int, int]] = None  # (dist, q, a)

    def consider(p: int, q: int):
        nonlocal best
        if q < 1 or q > Q:
            return None
        dist = abs(alpha - Fraction(p, q))
        if _feasible(dist, q, Q) and (best is None or (dist, q) < (best[0], best[1])):
            best = (dist, q, p)
        return dist

    # continued fraction walk
    p_prev, q_prev = 1, 0
    a0 = alpha.__floor__()
    p_cur, q_cur = a0, 1
    consider(p_cur, q_cur)
    rem = alpha - a0
    while rem != 0 and q_cur <= Q:
        rem = 1 / rem
        a_next = rem.__floor__()
        rem -= a_next
        # intermediate fractions between the two current convergents, best first
        t_hi = min(a_next - 1, (Q - q_prev) // q_cur) if q_cur else 0
        for t in range(t_hi, 0, -1):
            p, q = p_prev + t * p_cur, q_prev + t * q_cur
            dist = consider(p, q)
            if dist is not None and best is not None and dist > best[0]:
                break  # distances grow as t decreases; nothing below improves
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_prev + a_next * p_cur, q_prev + a_next * q_cur
        if q_cur <= Q:
            consider(p_cur, q_cur)
    assert best is not None, "the last in-range convergent is always feasible"
    _, q, p = best
    g = math.gcd(p, q)
    return p // g, q // g


@dataclass(frozen=True)
class RelationTriple:
    """Witness h plus per-coefficient-slot rationals a_j/q_j and residuals."""

    a: Tuple[int, ...]
    q: Tuple[int, ...]
    h: Tuple[int, ...]
    residuals: Tuple[Fraction, ...]

    def __post_init__(self):
        if not (len(self.a) == len(self.q) == len(self.residuals)):
            raise ShapeMismatchError("slot vectors must share length d")
        for a_j, q_j in zip(self.a, self.q):
            if q_j < 1 or math.gcd(a_j, q_j) != 1:
                raise ValueError(f"{a_j}/{q_j} not a reduced fraction with q >= 1")

    @property
    def d(self) -> int:
        return len(self.a)

    def to_dict(self) -> dict:
        return {"a": list(self.a), "q": list(self.q), "h": list(self.h),
                "residuals": [str(r) for r in self.residuals]}

    @staticmethod
    def from_dict(d: dict) -> "RelationTriple":
        return RelationTriple(tuple(d["a"]), tuple(d["q"]), tuple(d["h"]),
                              tuple(Fraction(r) for r in d["residuals"]))


def sigma_vector(system: PolySystem, h: Sequence[int]) -> List[Fraction]:
    """sigma_j = sum_i h_i f_{i,j} for j = 1..d (full values, not reduced)."""
    if len(h) != system.k:
        raise ShapeMismatchError("frequency vector length must equal k")
    return [s.value for s in coefficient_sums(system, h)]


def default_q_rel(eps: Epsilons) -> int:
    """ceil(Delta^-C), with C the reduction's C_CFG, capped at Q_REL_HARD_CAP."""
    return min(math.ceil(1 / eps.delta_product ** C_CFG), Q_REL_HARD_CAP)


def build_relations(system: PolySystem, eps: Epsilons, x, dich: FourierDichotomy,
                    Q_rel: int) -> List[RelationTriple]:
    """Turn each branch-2 witness into a relation triple, filtered by residual.

    A triple survives when residual_j <= TOL_REL * Q_rel^C / x^j in every
    slot j, with C the reduction's C_CFG.  The returned list is sorted
    lexicographically by h and may be empty; emptiness is the driver's
    problem, not an error.
    """
    if dich.branch != LARGE_COEFFICIENTS:
        raise ValueError("relations require the large-coefficients branch")
    bound_num = TOL_REL * Fraction(Q_rel) ** C_CFG
    kept = []
    for h, _modulus in dich.witnesses:
        sigmas = sigma_vector(system, h)
        a_vec, q_vec, residuals = [], [], []
        ok = True
        for j, s in enumerate(sigmas, start=1):
            a_j, q_j = best_rational(s, Q_rel)
            r_j = abs(s - Fraction(a_j, q_j))
            if r_j > bound_num / x ** j:
                ok = False
                break
            a_vec.append(a_j)
            q_vec.append(q_j)
            residuals.append(r_j)
        if ok:
            kept.append(RelationTriple(tuple(a_vec), tuple(q_vec), tuple(h),
                                       tuple(residuals)))
    kept.sort(key=lambda t: t.h)
    return kept
