"""Structure analysis of relation denominators, the last step of the CLI
chain (``denom-analyze``); the solver imports none of it.

The same-denominator branch is a greedy per-slot majority clustering; the
gcd graph, dominant-divisor filter and r-fold sum counts are the diagnostics
for the expansion branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import List, Sequence, Tuple

from .diophantine import RelationTriple

DEFAULT_FILTER_DELTA = Fraction(1, 400)
DEFAULT_RFOLD_CAP = 10 ** 6


class EmptyInputError(ValueError):
    pass


@dataclass
class DenominatorCluster:
    """Relations sharing one denominator vector q0; q_merged = prod q0."""

    q0: Tuple[int, ...]
    members: List[RelationTriple]

    def __post_init__(self):
        if not self.members:
            raise EmptyInputError("cluster needs at least one member")
        for m in self.members:
            if m.q != self.q0:
                raise ValueError("member denominator vector differs from q0")

    @property
    def q_merged(self) -> int:
        out = 1
        for q in self.q0:
            out *= q
        return out

    def to_dict(self) -> dict:
        return {"q0": list(self.q0), "q_merged": self.q_merged,
                "members": [m.to_dict() for m in self.members]}


@dataclass
class DivisorFilterResult:
    d0: int
    filtered: List[int]
    trace: List[int]

    def to_dict(self) -> dict:
        return {"d0": self.d0, "filtered": list(self.filtered),
                "trace": list(self.trace)}


def cluster_by_denominator(relations: Sequence[RelationTriple]) -> DenominatorCluster:
    """Greedy per-slot majority filter over q-vectors, slots ascending.

    At slot j the surviving set keeps the most frequent q_j (ties: smallest
    q_j), mirroring the nested subsets S_0 over S_1 ... over S_d.
    """
    if not relations:
        raise EmptyInputError("no relations to cluster")
    survivors = list(relations)
    d = survivors[0].d
    chosen = []
    for j in range(d):
        counts: dict = {}
        for t in survivors:
            counts[t.q[j]] = counts.get(t.q[j], 0) + 1
        best_q = min(counts, key=lambda q: (-counts[q], q))
        chosen.append(best_q)
        survivors = [t for t in survivors if t.q[j] == best_q]
    return DenominatorCluster(q0=tuple(chosen), members=survivors)


def gcd_graph(B: Sequence[int], threshold: int) -> List[Tuple[int, int]]:
    """Undirected edges {i < j} with gcd(B[i], B[j]) >= threshold."""
    if not B:
        raise EmptyInputError("empty integer list")
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    edges = []
    for i in range(len(B)):
        for j in range(i + 1, len(B)):
            if math.gcd(B[i], B[j]) >= threshold:
                edges.append((i, j))
    return edges


def _divisors(values) -> List[int]:
    """The divisors above 1 of the positive integers in values, ascending."""
    out = set()
    for b in set(values):
        for i in range(1, math.isqrt(b) + 1):
            if b % i == 0:
                out.update((i, b // i))
    out.discard(1)
    return sorted(out)


def dominant_divisor_filter(B: Sequence[int], delta) -> DivisorFilterResult:
    """Iteratively pull out the smallest popular divisor.

    While some ell > 1 divides at least #B / ell^(delta/10) of the current
    elements, absorb the smallest such ell into d0, divide the divisible
    elements and discard the rest.  That bound is positive, so such an ell
    divides some element: the search tries the divisors above 1 of the
    current elements, ascending, found by trial division up to sqrt(b).
    """
    if not B:
        raise EmptyInputError("empty integer list")
    delta = Fraction(delta)
    if not (0 < delta < Fraction(1, 200)):
        raise ValueError("delta must lie in (0, 1/200)")
    current = [int(b) for b in B]
    if any(b < 1 for b in current):
        raise ValueError("elements must be positive")
    d0 = 1
    trace: List[int] = []
    exp = float(delta / 10)
    while True:
        found = None
        size = len(current)
        for ell in _divisors(current):
            count = sum(1 for b in current if b % ell == 0)
            if count >= size / ell ** exp:
                found = ell
                break
        if found is None:
            break
        d0 *= found
        trace.append(found)
        current = [b // found for b in current if b % found == 0]
    return DivisorFilterResult(d0=d0, filtered=current, trace=trace)


def rfold_sum_count(relations: Sequence[RelationTriple], r: int, slot: int,
                    cap: int = DEFAULT_RFOLD_CAP) -> int:
    """Exact cardinality of {a/q summed over unordered r-multisets} at one slot.

    ``slot`` is 1-indexed.  Values are exact reduced fractions, so equal sums
    collapse exactly.
    """
    if not relations:
        raise EmptyInputError("no relations")
    if r < 1:
        raise ValueError("r must be a positive integer")
    d = relations[0].d
    if not (1 <= slot <= d):
        raise ValueError(f"slot must lie in 1..{d}")
    m = len(relations)
    total = math.comb(m + r - 1, r)
    if total > cap:
        raise OverflowError(f"{total} multisets exceed enumeration cap {cap}")
    fracs = [Fraction(t.a[slot - 1], t.q[slot - 1]) for t in relations]
    seen = set()
    for combo in combinations_with_replacement(range(m), r):
        seen.add(sum(fracs[i] for i in combo))
    return len(seen)

