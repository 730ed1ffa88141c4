"""Reference checks, computed apart from the solver.

Nothing here calls `fracparts.core` or the scan kernels.  Solve results are
checked against the intended reals of the generated coefficients: rationals
exactly, and sqrt(m)/q terms through integer enclosures `PREC` fractional
bits wide, far narrower than the solver's 2^-192 approximants.  An enclosure
that straddles a tolerance boundary is undecided, and an undecided check
fails its operation.  Exponent results are checked with a naive scan that
re-derives the trial's coefficients from the documented counter generator.

Each check returns None when the result holds, else a `Problem`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence

PREC = 320

WRONG = "wrong"          # the result is refuted
UNDECIDED = "undecided"  # the enclosure could not decide the check


@dataclass(frozen=True)
class Sqrt:
    """The real sign * sqrt(m) / q, a term of a generated coefficient."""

    sign: int
    m: int
    q: int


@dataclass(frozen=True)
class Problem:
    kind: str
    detail: str


def term_bounds(term, prec: int = PREC):
    """Rational lower and upper bounds of one coefficient term."""
    if isinstance(term, Fraction):
        return term, term
    if not isinstance(term, Sqrt):
        raise TypeError(f"unknown term {term!r}")
    scaled = term.m << (2 * prec)
    s = math.isqrt(scaled)
    lo = Fraction(s, term.q << prec)
    hi = lo if s * s == scaled else Fraction(s + 1, term.q << prec)
    return (lo, hi) if term.sign > 0 else (-hi, -lo)


class Reference:
    """A polynomial system held as integer enclosures over one denominator L."""

    def __init__(self, polys, eps: Sequence[Fraction], x: Fraction,
                 prec: int = PREC):
        bounds = []
        for poly in polys:
            row = []
            for coeff in poly:
                lo = hi = Fraction(0)
                for term in coeff:
                    t_lo, t_hi = term_bounds(term, prec)
                    lo, hi = lo + t_lo, hi + t_hi
                row.append((lo, hi))
            bounds.append(row)
        L = 1
        for row in bounds:
            for lo, hi in row:
                for v in (lo, hi):
                    L = L * v.denominator // math.gcd(L, v.denominator)
        self.L = L
        self.ints = [[(int(lo * L), int(hi * L)) for lo, hi in row] for row in bounds]
        self.eps = [(Fraction(e).numerator, Fraction(e).denominator) for e in eps]
        self.x = Fraction(x)

    def horizon(self) -> range:
        """The n with 1 <= n < x."""
        return range(1, math.ceil(self.x))

    def hit(self, n: int) -> Optional[bool]:
        """Whether ||f_i(n)|| < eps_i for every i; None when undecided."""
        L = self.L
        decided = True
        for row, (a, b) in zip(self.ints, self.eps):
            lo = hi = 0
            p = 1
            for c_lo, c_hi in row:
                p *= n
                lo += c_lo * p
                hi += c_hi * p
            r, w = lo % L, hi - lo
            aL = a * L
            if b * r >= aL and b * (L - r - w) >= aL:
                return False                  # the whole enclosure misses
            if not (b * (r + w) < aL or (b * (L - r) < aL and b * (r + w - L) < aL)):
                decided = False               # it straddles a boundary
        return True if decided else None


def check_found(ref: Reference, n) -> Optional[Problem]:
    """A found n satisfies 1 <= n < x and every tolerance."""
    if not isinstance(n, int) or not 1 <= n < ref.x:
        return Problem(WRONG, f"n={n!r} outside 1 <= n < {ref.x}")
    status = ref.hit(n)
    if status is None:
        return Problem(UNDECIDED, f"enclosure at n={n} straddles a tolerance")
    if not status:
        return Problem(WRONG, f"n={n} misses a tolerance")
    return None


def _no_hit(ref: Reference, ns: Iterable[int], what: str) -> Optional[Problem]:
    for m in ns:
        status = ref.hit(m)
        if status:
            return Problem(WRONG, f"hit at n={m} {what}")
        if status is None:
            return Problem(UNDECIDED, f"enclosure at n={m} straddles a tolerance")
    return None


def check_smallest(ref: Reference, n: int) -> Optional[Problem]:
    """No n' < n is a hit (the scan's smallest-n contract)."""
    return _no_hit(ref, range(1, n), f"below the reported n={n}")


def check_not_found(ref: Reference) -> Optional[Problem]:
    """Exhaustive naive scan: no hit below x."""
    return _no_hit(ref, ref.horizon(), "in a not-found horizon")


# ---------------------------------------------------------------------------
# Certificates: parsed as plain JSON, so the chain check does not use the
# program's own replay.
# ---------------------------------------------------------------------------


def check_certificate(blob: bytes, reserialized: bytes, verify_results,
                      status: str, n) -> Optional[Problem]:
    """Replay passed, bytes round-trip, terminal matches, chain recomposes n."""
    failed = [name for name, ok, _detail in verify_results if not ok]
    if failed:
        return Problem(WRONG, f"verify_certificate failed: {failed[:3]}")
    if blob != reserialized:
        return Problem(WRONG, "load + write did not reproduce the certificate bytes")
    cert = json.loads(blob)
    terminal = cert["terminal"]
    if (terminal.get("kind") == "found-n") != (status == "found"):
        return Problem(WRONG, f"terminal {terminal.get('kind')!r} vs status {status!r}")
    if status == "found" and terminal.get("n") != n:
        return Problem(WRONG, f"terminal n {terminal.get('n')} vs outcome n {n}")
    chain = cert["chain"]
    if chain:
        m = chain[-1].get("child_hit")
        if not isinstance(m, int):
            return Problem(WRONG, "last chain step has no child_hit")
        for step in chain:
            m *= step["q0"] * step["D2"]
        if m != n:
            return Problem(WRONG, f"child_hit x scales = {m}, not n = {n}")
    return None


# ---------------------------------------------------------------------------
# Exponent trials.
# ---------------------------------------------------------------------------

EXPONENT_BITS = 192


def counter_uniform(seed: int, trial: int, index: int,
                    bits: int = EXPONENT_BITS) -> int:
    """Numerator over 2^bits of the documented keyed-counter draw."""
    digest = hashlib.sha256(f"{seed}:{trial}:{index}".encode()).digest()
    return int.from_bytes(digest, "big") >> (256 - bits)


def monomial_numerators(k: int, d: int, seed: int, trial: int = 0) -> List[int]:
    """Leading coefficients c_i 2^bits of the "monomial" generator (c_i X^d)."""
    return [counter_uniform(seed, trial, i * d + d - 1) for i in range(k)]


def naive_minima(nums: Sequence[int], d: int, checkpoints: Sequence[int],
                 bits: int = EXPONENT_BITS) -> List[Fraction]:
    """min over 1 <= n < c of max_i ||c_i n^d||, for each checkpoint c."""
    D = 1 << bits
    cps = sorted(checkpoints)
    out = []
    best = None
    n = 1
    for c in cps:
        while n < c:
            nd = n ** d
            worst = 0
            for num in nums:
                r = num * nd % D
                worst = max(worst, min(r, D - r))
            if best is None or worst < best:
                best = worst
            n += 1
        out.append(Fraction(best, D))
    return out


def check_trial(grid: Sequence[int], minima: Sequence[Fraction], nums: Sequence[int],
                d: int, full: bool) -> Optional[Problem]:
    """Minima never increase, and match a naive scan at the first (or every) checkpoint."""
    if len(minima) != len(grid):
        return Problem(WRONG, f"{len(minima)} minima for a {len(grid)}-point grid")
    for a, b in zip(minima, minima[1:]):
        if b > a:
            return Problem(WRONG, f"minimum rose from {a} to {b} along the grid")
    cps = list(grid) if full else [grid[0]]
    want = naive_minima(nums, d, cps)
    for c, w, got in zip(cps, want, minima):
        if got != w:
            return Problem(WRONG, f"minimum at x={c} is {got}, naive scan gives {w}")
    return None
