"""Exact representation of polynomial systems and the brute-force ground truth.

All scalars are carried as exact rationals (`fractions.Fraction`).
Tolerances and horizons are plain Fractions: they are thresholds, and an
irrational one is rejected where it enters (`SystemState` for the horizon,
`serialize` for system files).  Only coefficients may be genuinely
irrational (the ``sqrt(m)/q`` grammar); a coefficient is a `Real`, a
dyadic approximant rounded once at ingestion plus its error radius, and
every later computation is exact arithmetic on that approximant.  This
gives bit-identical, machine-independent results and makes "exact for
rational inputs" literally true.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat
from typing import List, Optional, Sequence, Tuple

DEFAULT_PRECISION_BITS = 192
DEFAULT_ENUM_CAP = 10 ** 8

_COEFF_RE = re.compile(
    r"^(?P<sign>[+-])?(?:"
    r"(?P<dec>\d+(?:\.\d+)?)"
    r"|(?P<num>\d+)/(?P<den>\d+)"
    r"|sqrt\((?P<rad>\d+)\)(?:/(?P<rden>\d+))?"
    r")$"
)


class HorizonCapError(Exception):
    """Enumeration horizon exceeds the configured cap."""


class ScalarParseError(ValueError):
    """Coefficient string does not match the accepted grammar."""


@dataclass(frozen=True)
class Real:
    """A real coefficient: an exact rational approximant plus its error radius.

    ``value`` is the stored rational and ``err`` bounds
    ``|intended - value|``; the scalar is exact when ``err`` is 0.
    """

    value: Fraction
    err: Fraction = Fraction(0)
    source: Optional[str] = None  # the grammar form this was parsed from, if any

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))
        object.__setattr__(self, "err", Fraction(self.err))

    @property
    def exact(self) -> bool:
        return self.err == 0

    def __add__(self, other: "Real") -> "Real":
        other = _as_real(other)
        return Real(self.value + other.value, self.err + other.err)

    def __sub__(self, other: "Real") -> "Real":
        return self + (-_as_real(other))

    def __neg__(self) -> "Real":
        return Real(-self.value, self.err)

    def __mul__(self, other: "Real") -> "Real":
        other = _as_real(other)
        err = (abs(self.value) * other.err + abs(other.value) * self.err
               + self.err * other.err)
        return Real(self.value * other.value, err)

    def __eq__(self, other) -> bool:
        return self.value == _as_real(other).value

    def __hash__(self):
        return hash(self.value)  # __eq__ compares values only


def _as_real(v) -> Real:
    if isinstance(v, Real):
        return v
    return Real(Fraction(v))


def _isqrt_dyadic(radicand: int, bits: int) -> Fraction:
    # floor(sqrt(m) * 2^bits) / 2^bits, so the approximant errs by < 2^-bits
    return Fraction(math.isqrt(radicand << (2 * bits)), 1 << bits)


def parse_scalar(text: str, bits: int = DEFAULT_PRECISION_BITS) -> Real:
    """Parse a coefficient string.

    Grammar: optional sign, then a decimal literal, ``p/q``, or ``sqrt(m)/q``.
    Decimal and ``p/q`` forms are exact rationals; ``sqrt(m)/q`` is rounded
    to ``bits`` fractional bits with the rounding radius recorded (unless the
    radicand is a perfect square, which stays exact).
    """
    text = text.strip()
    m = _COEFF_RE.match(text)
    if m is None:
        raise ScalarParseError(f"bad coefficient string: {text!r}")
    sign = -1 if m.group("sign") == "-" else 1
    if m.group("dec") is not None:
        return Real(sign * Fraction(m.group("dec")), source=text)
    if m.group("num") is not None:
        den = int(m.group("den"))
        if den == 0:
            raise ScalarParseError(f"zero denominator in {text!r}")
        return Real(Fraction(sign * int(m.group("num")), den), source=text)
    rad = int(m.group("rad"))
    rden = int(m.group("rden") or 1)
    if rden == 0:
        raise ScalarParseError(f"zero denominator in {text!r}")
    root = math.isqrt(rad)
    if root * root == rad:
        return Real(Fraction(sign * root, rden), source=text)
    approx = _isqrt_dyadic(rad, bits)
    return Real(sign * approx / rden, err=Fraction(1, (1 << bits) * rden),
                source=text)


def frac_dist(t) -> Fraction:
    """Distance from t to the nearest integer, as an exact Fraction in [0, 1/2]."""
    r = Fraction(t) % 1
    return min(r, 1 - r)


@dataclass(frozen=True)
class Poly:
    """Polynomial sum_{j=1..d} coeffs[j-1] * X^j; the constant term is structurally 0."""

    coeffs: tuple
    # coeffs: tuple[Real, ...], length == degree bound d (trailing zeros allowed)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(_as_real(c) for c in self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("polynomial needs a positive degree bound")

    @property
    def d(self) -> int:
        return len(self.coeffs)

    def eval(self, n: int) -> Fraction:
        # Horner on X * (c_1 + X * (c_2 + ...))
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * n + c.value
        return acc * n

    @staticmethod
    def from_strings(strings: Sequence[str], bits: int = DEFAULT_PRECISION_BITS) -> "Poly":
        return Poly(tuple(parse_scalar(s, bits) for s in strings))


@dataclass(frozen=True)
class PolySystem:
    """k polynomials sharing one degree bound d."""

    polys: tuple

    def __post_init__(self):
        object.__setattr__(self, "polys", tuple(self.polys))
        if len(self.polys) < 1:
            raise ValueError("need at least one polynomial")
        d = self.polys[0].d
        if any(p.d != d for p in self.polys):
            raise ValueError("all polynomials must share the degree bound")

    @property
    def k(self) -> int:
        return len(self.polys)

    @property
    def d(self) -> int:
        return self.polys[0].d

    def coeff(self, i: int, j: int) -> Real:
        """Coefficient of X^j in the i-th polynomial (both 1-indexed)."""
        return self.polys[i - 1].coeffs[j - 1]


def coefficient_sums(system: PolySystem, h: Sequence[int]) -> List[Real]:
    """sigma_j = sum_i h_i f_{i,j} for j = 1..d, each with its radius
    sum_i |h_i| err_{i,j}."""
    if len(h) != system.k:
        raise ValueError("frequency vector length must equal k")
    out = []
    for j in range(system.d):
        value = err = Fraction(0)
        for hi, p in zip(h, system.polys):
            if hi:
                value += hi * p.coeffs[j].value
                err += abs(hi) * p.coeffs[j].err
        out.append(Real(value, err))
    return out


@dataclass(frozen=True)
class Epsilons:
    """Per-polynomial tolerances in (0, 1/2]."""

    eps: tuple

    def __post_init__(self):
        object.__setattr__(self, "eps", tuple(Fraction(e) for e in self.eps))
        for e in self.eps:
            if not (0 < e <= Fraction(1, 2)):
                raise ValueError(f"epsilon {e} outside (0, 1/2]")

    @property
    def k(self) -> int:
        return len(self.eps)

    @property
    def delta_product(self) -> Fraction:
        return math.prod(self.eps, start=Fraction(1))

    @property
    def within_theorem_hypothesis(self) -> bool:
        """True when every tolerance is <= 1/100 (the range the guarantee covers)."""
        return all(e <= Fraction(1, 100) for e in self.eps)


@dataclass(frozen=True)
class SystemState:
    """A (k, system, tolerances, horizon) search problem.

    The horizon is an exact rational; an exact `Real` is accepted and
    stored as its value, and an inexact one is rejected.
    """

    system: PolySystem
    eps: Epsilons
    y: Fraction

    def __post_init__(self):
        y = self.y
        if isinstance(y, Real):
            if not y.exact:
                raise ValueError("horizon must be exact, not an approximant")
            y = y.value
        object.__setattr__(self, "y", Fraction(y))
        if self.system.k != self.eps.k:
            raise ValueError("tolerance count must match polynomial count")
        if not self.y > 1:
            raise ValueError("horizon must exceed 1")

    @property
    def k(self) -> int:
        return self.system.k

    def to_dict(self) -> dict:
        return {
            "d": self.system.d,
            "polys": [[str(c.value) for c in p.coeffs] for p in self.system.polys],
            "polys_exact": [[c.exact for c in p.coeffs] for p in self.system.polys],
            "eps": [str(e) for e in self.eps.eps],
            "x": str(self.y),
        }


# ---------------------------------------------------------------------------
# Scan kernels.
#
# Every scan runs over n = 1, 2, ... with exact fractional parts: all
# polynomials are lifted to one common denominator D, so f_i(n) mod 1 is
# N_i(n)/D for the integer residue N_i(n) mod D, and every comparison is an
# integer comparison.  `_residue_stream` is the one place that advances the
# forward-difference tables, a chunk of points at a time: each column over
# a chunk is the prefix sums (`itertools.accumulate`) of the column above it,
# in exact ints, and only the residues are reduced mod D.  Chunks start small
# and double, so a scan that stops at an early hit stays cheap.  The scans
# (running minimum with checkpoints, hit offsets, and the smoothed and phase
# sums in `diophantine`) are reducers over the chunks.  Ranges could be
# partitioned and merged (min with smallest-n tiebreak / sum); the
# sequential order here is the reference semantics.
# ---------------------------------------------------------------------------

_CHUNK_FIRST = 64    # points in a scan's first chunk
# chunks double up to this many points; a cap of 4096 scanned no faster and
# held three times the memory (1.5 MB traced for k = 3 at 192 bits)
_CHUNK_MAX = 1024


def _common_denominator(system: PolySystem) -> int:
    D = 1
    for p in system.polys:
        for c in p.coeffs:
            D = D * c.value.denominator // math.gcd(D, c.value.denominator)
    return D


def _diff_state(nums: Sequence[int], D: int, start: int):
    """Forward differences of N(n) = sum nums[j-1] n^j at n = start, mod D."""

    def N(n: int) -> int:
        acc = 0
        for c in reversed(nums):
            acc = acc * n + c
        return (acc * n) % D

    d = len(nums)
    row = [N(start + i) for i in range(d + 1)]
    diffs = []
    for _ in range(d + 1):
        diffs.append(row[0])
        row = [(row[i + 1] - row[i]) % D for i in range(len(row) - 1)]
    return diffs  # diffs[i] = Delta^i N at n=start, all reduced mod D


def _residue_stream(tables, D: int, last: int):
    """Yield (n0, cols) with cols[i][t] = N_i(n0 + t) mod D, covering n = 1..last.

    ``tables[i]`` is polynomial i's forward-difference table at n = 1, as
    `_diff_state` builds it; the stream advances the tables in place.
    """
    n0, size = 1, _CHUNK_FIRST
    while n0 <= last:
        L = min(size, last - n0 + 1)
        cols = []
        for diffs in tables:
            # Delta^i N at n0..n0+L is Delta^i N(n0) followed by the prefix
            # sums of Delta^(i+1) N at n0..n0+L-1; Delta^d N is constant
            col = repeat(diffs[-1], L)
            for i in range(len(diffs) - 2, 0, -1):
                vals = list(accumulate(col, initial=diffs[i]))
                diffs[i] = vals[L] % D
                col = islice(vals, L)
            residues = [v % D for v in accumulate(col, initial=diffs[0])]
            diffs[0] = residues.pop()
            cols.append(residues)
        yield n0, cols
        n0 += L
        size = min(2 * size, _CHUNK_MAX)


def _residues(system: PolySystem, last: int):
    """Common denominator D and the residue stream of ``system`` over n = 1..last."""
    D = _common_denominator(system)
    tables = [_diff_state([int(c.value * D) for c in p.coeffs], D, 1)
              for p in system.polys]
    return D, _residue_stream(tables, D, last)


def _max_dist(cols, D: int):
    """Per point of a chunk, D * max_i frac_dist(f_i(n))."""
    half = D // 2
    dists = [[r if r <= half else D - r for r in col] for col in cols]
    return dists[0] if len(dists) == 1 else list(map(max, *dists))


def _hits(cols, D: int, thresholds):
    """Offsets of a chunk's points with D * frac_dist(f_i(n)) <= thresholds[i] for all i."""
    hits = range(len(cols[0]))
    for col, t in zip(cols, thresholds):
        far = D - t  # min(r, D - r) <= t  <=>  r <= t or r >= D - t
        hits = [j for j in hits if col[j] <= t or col[j] >= far]
    return hits


def _check_cap(last: int, k: int, enum_cap: int):
    if last * k > enum_cap:
        raise HorizonCapError(
            f"scan of {last} points x {k} polys exceeds cap {enum_cap}")


def horizon_count(x) -> int:
    """Number of n in the strict horizon {1, ..., ceil(x)-1}."""
    return max(math.ceil(x) - 1, 0)


def eval_system(system: PolySystem, n: int):
    """Fractional-part distances (frac_dist(f_1(n)), ..., frac_dist(f_k(n)))."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return [frac_dist(p.eval(n)) for p in system.polys]


def brute_force_min(system: PolySystem, x, enum_cap: int = DEFAULT_ENUM_CAP):
    """Smallest n < x minimizing max_i frac_dist(f_i(n)), with that minimum.

    Ties break toward the smallest n.  Exact for rational coefficients.
    """
    return _checkpointed_min(system, [horizon_count(x) + 1], enum_cap)[0]


def _checkpointed_min(system: PolySystem, checkpoints: Sequence[int],
                      enum_cap: int = DEFAULT_ENUM_CAP):
    """Running (argmin, min) of max_i frac_dist(f_i(n)) at each horizon.

    Checkpoint c reports the scan over n in {1, ..., c-1}; one pass serves a
    whole ascending grid of horizons.  Returns a list of (n_star, Fraction).
    Ties break toward the smallest n.
    """
    cps = sorted(set(int(c) for c in checkpoints))
    if not cps or cps[0] < 2:
        raise ValueError("every horizon must be at least 2, so that n = 1 < x")
    last = cps[-1] - 1
    _check_cap(last, system.k, enum_cap)
    D, chunks = _residues(system, last)
    out = []
    best_n, best = 0, D  # every distance is at most D/2, so n = 1 replaces this
    for n0, cols in chunks:
        worst = _max_dist(cols, D)
        lo = 0
        while lo < len(worst):
            # the segment ends where the chunk ends or the next checkpoint starts
            hi = min(len(worst), cps[len(out)] - n0)
            m = min(worst[lo:hi])
            if m < best:
                best, best_n = m, n0 + worst.index(m, lo, hi)
            if n0 + hi == cps[len(out)]:
                out.append((best_n, Fraction(best, D)))
            lo = hi
        if best == 0:  # no later n can do better
            break
    return out + [(best_n, Fraction(best, D))] * (len(cps) - len(out))


def _strict_thresholds(eps: Epsilons, D: int):
    # min(r, D-r) <= t  <=>  min(r, D-r)/D < eps, with t = (eps.num*D - 1) // eps.den
    return [(e.numerator * D - 1) // e.denominator for e in eps.eps]


def _hit_chunks(system: PolySystem, eps: Epsilons, last: int, enum_cap: int):
    """(n0, offsets of the strict hits in the chunk at n0) over n = 1..last."""
    _check_cap(last, system.k, enum_cap)
    D, chunks = _residues(system, last)
    thresholds = _strict_thresholds(eps, D)
    return ((n0, _hits(cols, D, thresholds)) for n0, cols in chunks)


def hit_count(system: PolySystem, eps: Epsilons, x,
              enum_cap: int = DEFAULT_ENUM_CAP) -> Tuple[int, Optional[int]]:
    """#{n <= x : frac_dist(f_i(n)) < eps_i for all i} (strict inequalities),
    and the smallest such n < x (what `first_hit` returns), from one pass."""
    count, first = 0, None
    for n0, hits in _hit_chunks(system, eps, math.floor(x), enum_cap):
        if first is None and hits and n0 + hits[0] < x:
            first = n0 + hits[0]
        count += len(hits)
    return count, first


def first_hit(system: PolySystem, eps: Epsilons, x,
              enum_cap: int = DEFAULT_ENUM_CAP) -> Optional[int]:
    """Smallest n < x with frac_dist(f_i(n)) < eps_i for all i, or None."""
    chunks = _hit_chunks(system, eps, horizon_count(x), enum_cap)
    return next((n0 + hits[0] for n0, hits in chunks if hits), None)
