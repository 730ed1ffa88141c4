"""Rational reconstruction of relation triples from large Fourier witnesses.

Coefficient values are known numerically, so the per-coefficient rationals
are recovered directly by continued fractions instead of through exponential
sums over sub-progressions; the output contract (per-slot rationals with
bounded denominators attached to each witness) is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .core import Epsilons, PolySystem, coefficient_sums
from .expsum import LARGE_COEFFICIENTS, FourierDichotomy
from .reduction import C_CFG

# the residual filter's multiplier of Q_rel^C / x^j
TOL_REL = 1
Q_REL_HARD_CAP = 10 ** 6

RESIDUAL_MATCH_TOL = Fraction(1, 2 ** 40)


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


def relation_residual(triple: RelationTriple, system: PolySystem, x=None) -> List[Fraction]:
    """Recompute the residual vector from scratch and check it against the stored one."""
    if triple.d != system.d:
        raise ShapeMismatchError("slot count differs from system degree bound")
    if len(triple.h) != system.k:
        raise ShapeMismatchError("frequency vector length differs from k")
    sigmas = sigma_vector(system, triple.h)
    fresh = [abs(s - Fraction(a_j, q_j))
             for s, a_j, q_j in zip(sigmas, triple.a, triple.q)]
    for got, stored in zip(fresh, triple.residuals):
        if abs(got - stored) > RESIDUAL_MATCH_TOL:
            raise ShapeMismatchError(
                f"stored residual {stored} differs from recomputed {got}")
    return fresh
