"""Exact representation of polynomial systems and the brute-force ground truth.

All scalars are carried as exact rationals (`fractions.Fraction`).
Tolerances and horizons are plain Fractions: they are thresholds, and an
irrational one is rejected where it enters (`SystemState` for the horizon,
`parse_threshold` for records).  Only coefficients may be genuinely
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
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, compress, repeat
from operator import add, and_, gt, mod, mul, sub
from typing import List, Optional, Sequence, Tuple

DEFAULT_PRECISION_BITS = 192
DEFAULT_ENUM_CAP = 10 ** 8

# relative margin from an integer within which a float cap estimate is
# checked exactly
CAP_REL_TOL = 1e-9

_COEFF_RE = re.compile(
    r"^(?P<sign>[+-])?(?:"
    r"(?P<dec>\d+(?:\.\d+)?)"
    r"|(?P<num>\d+)/(?P<den>\d+)"
    r"|sqrt\((?P<rad>\d+)\)(?:/(?P<rden>\d+))?"
    r")$"
)

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


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
        object.__setattr__(self, "value", _fraction(self.value))
        object.__setattr__(self, "err", _fraction(self.err))

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


def _fraction(v) -> Fraction:
    # Fraction(v) re-wraps a Fraction at a cost; this skips it
    return v if type(v) is Fraction else Fraction(v)


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
    if type(text) is not str:
        raise ScalarParseError(f"need a string, got {text!r}")
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


def parse_threshold(text: str) -> Fraction:
    """A tolerance or the horizon: a decimal or ``p/q`` string, never an approximant."""
    if type(text) is str and _RATIONAL_RE.fullmatch(text):  # the form records hold
        return parse_rational(text)
    value = parse_scalar(text)
    if not value.exact:
        raise ScalarParseError(f"{text!r} is irrational; tolerances and the horizon "
                               "must be decimal or p/q")
    return value.value


def parse_rational(text: str) -> Fraction:
    """A rational string in the form `str(Fraction)` writes: ``p/q`` or ``p``."""
    m = _RATIONAL_RE.fullmatch(text) if type(text) is str else None
    if m is None:
        raise ScalarParseError(f"need a rational string p/q, got {text!r}")
    num, den = m.groups()
    if den is not None and not int(den):
        raise ScalarParseError(f"zero denominator in {text!r}")
    return Fraction(int(num), int(den or 1))


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

    @cached_property
    def numerators(self) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
        """(D, N): D the least common denominator of the coefficient values,
        and N[i][j] = D f_{i+1,j+1}.  The scans, the region test and the
        reduction step read the system in this integer form; the system is
        immutable, so it is computed once."""
        return _over_lcm([[c.value for c in p.coeffs] for p in self.polys])

    @cached_property
    def radii(self) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
        """(R, E): the same for the error radii, E[i][j] = R err_{i+1,j+1}."""
        return _over_lcm([[c.err for c in p.coeffs] for p in self.polys])


def _over_lcm(rows):
    """(D, D * rows as int tuples), D the least common denominator of ``rows``."""
    D = math.lcm(*(v.denominator for row in rows for v in row))
    return D, tuple(tuple(v.numerator * (D // v.denominator) for v in row) for row in rows)


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
        object.__setattr__(self, "eps", tuple(map(_fraction, self.eps)))
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
        object.__setattr__(self, "y", _fraction(y))
        if self.system.k != self.eps.k:
            raise ValueError("tolerance count must match polynomial count")
        if not self.y > 1:
            raise ValueError("horizon must exceed 1")

    @property
    def k(self) -> int:
        return self.system.k

    @cached_property
    def region(self) -> Tuple[Tuple[int, ...], Fraction]:
        """The region (B, eta) this level's reduction generators (h, a) must
        lie in: |h_i| <= B_i and |sum_i h_i f_{i,j} - a_j| <= eta^j.

        B_i = max(ceil(1/eps_i), floor(eps_i^-1 Delta^(-2/(2k)^4)), 2) is large
        enough that meeting 1/B_i implies meeting eps_i, and wide enough to
        contain the Fourier frequency box (`expsum.frequency_caps`, whose
        exponent is half this one).  eta = min(1/100, 1/(2x)): 1/100 is the
        lemma's hypothesis, and eta n < 1/2 for every n < x.  The driver
        searches this region, `reduction.reduce_dimension` checks against it
        and `reduction.density_invariant` reads its B; the state is
        immutable, so it is computed once per level.
        """
        eps = self.eps
        caps = _delta_scaled_caps(eps, Fraction(2, (2 * eps.k) ** 4))
        B = tuple(max(math.ceil(1 / e), cap, 2) for e, cap in zip(eps.eps, caps))
        return B, min(Fraction(1, 100), 1 / (2 * self.y))

    def to_dict(self) -> dict:
        return {
            "d": self.system.d,
            "polys": [[str(c.value) for c in p.coeffs] for p in self.system.polys],
            "polys_exact": [[c.exact for c in p.coeffs] for p in self.system.polys],
            "eps": [str(e) for e in self.eps.eps],
            "x": str(self.y),
        }

    @staticmethod
    def from_dict(data: dict) -> "SystemState":
        """Read `to_dict`'s record: rational coefficients, each of radius
        2^-192 where its `polys_exact` flag is false (no flags: all exact)."""
        flags = data.get("polys_exact") if isinstance(data, dict) else None
        if flags is not None and ([[type(f) for f in row] for row in flags]
                                  != [[bool] * len(texts) for texts in data["polys"]]):
            raise ValueError("field 'polys_exact': need one boolean per coefficient")

        def coeff(text, i, j):
            value = parse_rational(text)
            return Real(value) if flags is None or flags[i][j] else Real(value, _ROOT_RADIUS)
        return system_from_dict(data, coeff)


_ROOT_RADIUS = Fraction(1, 2 ** 192)


def _field(name: str, read, *args):
    """read(*args), a ValueError raised again naming the field."""
    try:
        return read(*args)
    except ValueError as exc:
        raise ValueError(f"field {name!r}: {exc}") from exc


def system_from_dict(data: dict, coeff) -> SystemState:
    """The one check of a {"d", "polys", "eps", "x"} record (a system file or
    a certificate's root), reading ``polys[i][j]`` by ``coeff(text, i, j)``.
    Raises KeyError for a missing field, TypeError or ValueError for a bad one."""
    rows, d, eps, x = data["polys"], data["d"], data["eps"], data["x"]
    if type(d) is not int or d < 1:  # bool is an int subclass
        raise ValueError(f"field 'd': need a positive integer, got {d!r}")
    if not isinstance(rows, list) or not rows:
        raise ValueError("field 'polys': need a nonempty list of coefficient lists")
    polys = []
    for i, texts in enumerate(rows):
        if not isinstance(texts, list) or len(texts) != d:
            raise ValueError(f"field 'polys[{i}]': need exactly d={d} coefficient strings")
        polys.append(_field(f"polys[{i}]", lambda: Poly(tuple(
            coeff(t, i, j) for j, t in enumerate(texts)))))
    if not isinstance(eps, list) or len(eps) != len(polys):
        raise ValueError("field 'eps': need one tolerance per polynomial")
    eps = _field("eps", lambda: Epsilons(tuple(map(parse_threshold, eps))))
    return _field("x", lambda: SystemState(PolySystem(tuple(polys)), eps, parse_threshold(x)))


# ---------------------------------------------------------------------------
# Scan kernels.
#
# Every scan runs over n = 1, 2, ... with exact fractional parts: it reads
# the system's integer form `PolySystem.numerators`, the polynomials over
# one common denominator D, so f_i(n) mod 1 is N_i(n)/D for the integer
# residue N_i(n) mod D, and every comparison is an integer comparison.  A
# scan moves over n a chunk of points at a time; chunks start small and
# double, so a scan that stops at an early hit stays cheap.  `_column` is the one place that builds a polynomial's values over
# a chunk, from its forward-difference table reduced mod D (Knuth, TAOCP
# vol. 2, 4.6.4): each column is the prefix sums (`itertools.accumulate`)
# of the column above it, in exact ints, and the table is reduced mod D at
# the chunk's end.  `_values` is the one place that evaluates a polynomial
# at given points, by Horner's rule.
#
# The phase sums in `diophantine` need every value, so `_residues` builds
# the phase polynomial's whole column.  The other scans (hit counts, the
# first hit, the running minimum with checkpoints, the smoothed count) need
# only the points where every distance is under a threshold, and `_sieved`
# lets one polynomial pick them: that with the tightest threshold.  Its
# threshold t is folded into its values, so it holds N + t, and
# min(r, D - r) <= t becomes (N + t) mod D <= 2t.  A sieving polynomial of
# degree 2 or more builds its column, one difference table per scan.  A
# linear one, a*n, lists its hits straight from its return map: the n with
# (a*n + t) mod D in [0, 2t] are spaced by at most three distinct gaps
# (Sos 1958; Slater, Proc. Cambridge Philos. Soc. 63, 1967), so after a
# first hit found by a Euclid-like descent (`_first_in`) each next one
# costs O(1), however few pass.  Each other polynomial is evaluated by
# Horner only at the points left, from its numerators over D.  The sieves
# are C-level pipelines (`map` over `operator` functions,
# `itertools.compress`), and a power-of-two D reduces with a mask.  The
# running minimum keeps only a chunk's points with every distance below the
# best at the chunk's start (no other point can replace it) and takes those
# few in order of n, so the minimum and its smallest-n tie-break stay exact.
# Ranges could be partitioned and merged (min with smallest-n tiebreak /
# sum); the sequential order here is the reference semantics.
# ---------------------------------------------------------------------------

_CHUNK_FIRST = 64    # points in a scan's first chunk
# chunks double up to this many points; a cap of 4096 scanned no faster and
# held three times the memory (1.5 MB traced for k = 3 at 192 bits)
_CHUNK_MAX = 1024


def _values(nums: Sequence[int], ns: Sequence[int], shift: int = 0):
    """N(n) + shift for each n in ``ns``, with N(n) = sum nums[j-1] n^j,
    unreduced: Horner's rule as one C-level pipeline."""
    acc = repeat(nums[-1])
    for c in nums[-2::-1]:
        acc = map(add, map(mul, acc, ns), repeat(c))
    return map(add, map(mul, acc, ns), repeat(shift))


def _diff_state(nums: Sequence[int], D: int):
    """Forward differences of N(n) = sum nums[j-1] n^j at n = 1, mod D."""
    row = list(_values(nums, range(1, len(nums) + 2)))
    diffs = []
    while row:
        diffs.append(row[0] % D)
        row = list(map(sub, row[1:], row))
    return diffs  # diffs[i] = Delta^i N at n=1, all reduced mod D


def _chunks(last: int):
    """(n0, L) for the chunks n0, ..., n0 + L - 1 that cover n = 1..last."""
    n0, size = 1, _CHUNK_FIRST
    while n0 <= last:
        L = min(size, last - n0 + 1)
        yield n0, L
        n0 += L
        size = min(2 * size, _CHUNK_MAX)


def _column(diffs, L: int, D: int):
    """N(n0), ..., N(n0 + L - 1) as exact ints not reduced mod D, from the
    table ``diffs`` at n0, which moves to n0 + L (reduced mod D)."""
    # Delta^i N at n0..n0+L is Delta^i N(n0) followed by the prefix sums of
    # Delta^(i+1) N at n0..n0+L-1; Delta^d N is constant
    col = repeat(diffs[-1], L)
    for i in range(len(diffs) - 2, -1, -1):
        col = list(accumulate(col, initial=diffs[i]))
        diffs[i] = col.pop() % D
    return col


def _residues(system: PolySystem, last: int):
    """D and the stream of columns, one per chunk, of a one-polynomial
    system's N(n) (not reduced mod D), covering n = 1..last."""
    D, (nums,) = system.numerators
    diffs = _diff_state(nums, D)
    return D, (_column(diffs, L, D) for _n0, L in _chunks(last))


def _reduce(values, D: int):
    """Each value mod D; a power-of-two D (every dyadic system) masks, not divides."""
    if D & (D - 1):
        return map(mod, values, repeat(D))
    return map(and_, values, repeat(D - 1))


def _first_in(a: int, b: int, w: int, D: int) -> Optional[int]:
    """The smallest m >= 0 with (a*m + b) mod D <= w, or None if there is none.

    A Euclid-like descent.  An a above D/2 is reflected to D - a, and b to
    w - b, which keeps the target [0, w].  Each step then passes at most
    one multiple of D and lands in [0, a) past it; values rise between
    landings, so the first hit is the first landing in [0, w], and the
    landings step by -D mod a: the same problem mod a <= D/2.  The descent
    ends once the modulus is at most w + 1, after O(log(D/w)) levels, and
    runs as a loop: a recursion would pass the interpreter's frame limit
    for tiny tolerances at large D.
    """
    levels = []
    while True:
        a %= D
        b %= D
        if b <= w:
            m = 0
            break
        if 2 * a > D:
            a, b = D - a, (w - b) % D
        if a == 0:
            return None
        levels.append((a, b, D))
        a, b, D = -D % a, (b - D) % a, a
    # wrap number m + 1 of a level is reached at ceil(((m + 1) D - b) / a)
    for a, b, D in reversed(levels):
        m = ((m + 1) * D - b + a - 1) // a
    return m


class _ReturnMap:
    """The n >= n0 with (a*n + b) mod D <= w, walked from hit to hit.

    The gaps between consecutive hits of a rotation in an interval take at
    most three values (Sos 1958, Slater 1967).  q1 is the first g >= 1 with
    a*g mod D <= w, a step right by s1; q2 the same for -a, a step left by
    s2.  From a hit at value y the next one is q1 further on if
    y + s1 <= w, q2 further on if y >= s2, the nearer of the two if both
    hold, and q1 + q2 further on (at y + s1 - s2) otherwise.  A hit costs
    O(1), whatever the gap.
    """

    def __init__(self, a: int, b: int, w: int, D: int, n0: int):
        self.w = w
        m = _first_in(a, a * n0 + b, w, D)
        if m is None:  # no hit at all: the walk starts past every horizon
            self.n, self.y = math.inf, 0
        else:
            self.n, self.y = n0 + m, (a * (n0 + m) + b) % D
        q1 = 1 + _first_in(a, a, w, D)
        q2 = 1 + _first_in(-a, -a, w, D)
        self.steps = q1, a * q1 % D, q2, -a * q2 % D

    def hits(self, last: int) -> List[int]:
        """The hits from the walk's position up to ``last``, moving past them."""
        n, y = self.n, self.y
        q1, s1, q2, s2 = self.steps
        w1, q12, s12, near_right = self.w - s1, q1 + q2, s1 - s2, q1 < q2
        hits = []
        append = hits.append
        while n <= last:
            append(n)
            if y <= w1 and (near_right or y < s2):
                n += q1
                y += s1
            elif y >= s2:
                n += q2
                y -= s2
            else:
                n += q12
                y += s12
        self.n, self.y = n, y
        return hits


def _hits(hits, col, n0: int, nums, order, D: int, thresholds):
    """The n in ``hits`` with D * ||f_i(n)|| <= thresholds[i] for all i, and
    an iterator over their rows of distances D * ||f_i(n)||.

    ``hits`` are the points of a chunk at n0 that pass the sieve of
    polynomial ``order[0]``, and ``col`` is its column over the chunk (t
    folded in) or None to evaluate it by Horner.  Every value v holds its
    threshold t, so it passes when v mod D <= 2t, and its distance is then
    |v mod D - t| (0 <= t <= D/2).  Each further polynomial is evaluated by
    Horner, t as its constant term, only at the n still left.
    """
    s = order[0]
    for i in order[1:]:
        if not hits:
            return hits, iter(())
        t = thresholds[i]
        hits = list(compress(hits, map(gt, repeat(2 * t + 1),
                                       _reduce(_values(nums[i], hits, t), D))))
    values = [map(col.__getitem__, map(sub, hits, repeat(n0)))
              if i == s and col is not None else _values(nums[i], hits, t)
              for i, t in enumerate(thresholds)]
    return hits, zip(*(map(abs, map(sub, _reduce(v, D), repeat(t)))
                       for v, t in zip(values, thresholds)))


def _sieved(D: int, nums, last: int, thresholds):
    """Yield (hits, rows) for the chunks of n = 1..last, as `_hits` gives
    them.

    ``nums`` are the polynomials' numerators over D (`PolySystem.numerators`).
    The tightest threshold sieves, and of equal ones the later polynomial;
    it is chosen once, at the scan's start.  If it has degree 2 or more it
    builds its column; if it is linear, a*n, it walks its return map
    (`_ReturnMap`), built anew whenever its threshold changes.  The map
    serves every threshold: a step of it cost less than the column's
    points even where nearly all of them pass (eps = 1/2).  ``thresholds``
    is read at each chunk's start, so a reducer may lower its entries
    between chunks (the running minimum lowers them all together); every
    entry must lie in [0, D/2].
    """
    order = sorted(range(len(nums) - 1, -1, -1), key=thresholds.__getitem__)
    s = order[0]
    a, *higher = nums[s]
    if any(higher):
        diffs = _diff_state(nums[s], D)
        folded = 0
        for n0, L in _chunks(last):
            t = thresholds[s]
            diffs[0] = (diffs[0] + t - folded) % D
            folded = t
            col = _column(diffs, L, D)
            hits = list(compress(range(n0, n0 + L),
                                 map(gt, repeat(2 * t + 1), _reduce(col, D))))
            yield _hits(hits, col, n0, nums, order, D, thresholds)
    else:
        t = None
        for n0, L in _chunks(last):
            if thresholds[s] != t:
                t = thresholds[s]
                walk = _ReturnMap(a, t, 2 * t, D, n0)
            yield _hits(walk.hits(n0 + L - 1), None, n0, nums, order, D, thresholds)


def _check_cap(last: int, k: int, enum_cap: int):
    if last * k > enum_cap:
        raise HorizonCapError(
            f"scan of {last} points x {k} polys exceeds cap {enum_cap}")


def horizon_count(x) -> int:
    """Number of n in the strict horizon {1, ..., ceil(x)-1}."""
    return max(math.ceil(x) - 1, 0)


def eval_system(system: PolySystem, n: int) -> List[Fraction]:
    """Each ||f_i(n)||, the distance from f_i(n) to the nearest integer, as an
    exact Fraction in [0, 1/2]: min(r, D - r) / D for r = N_i(n) mod D."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    D, nums = system.numerators
    dists = []
    for c in nums:
        r = next(_values(c, (n,))) % D
        dists.append(Fraction(min(r, D - r), D))
    return dists


def brute_force_min(system: PolySystem, x, enum_cap: int = DEFAULT_ENUM_CAP):
    """Smallest n < x minimizing max_i ||f_i(n)||, with that minimum.

    Ties break toward the smallest n.  Exact for rational coefficients.
    """
    return _checkpointed_min(system, [horizon_count(x) + 1], enum_cap)[0]


def _checkpointed_min(system: PolySystem, checkpoints: Sequence[int],
                      enum_cap: int = DEFAULT_ENUM_CAP):
    """Running (argmin, min) of max_i ||f_i(n)|| at each horizon.

    Checkpoint c reports the scan over n in {1, ..., c-1}; one pass serves a
    whole ascending grid of horizons.  Returns a list of (n_star, Fraction).
    Ties break toward the smallest n.
    """
    cps = sorted(set(int(c) for c in checkpoints))
    if not cps or cps[0] < 2:
        raise ValueError("every horizon must be at least 2, so that n = 1 < x")
    last = cps[-1] - 1
    _check_cap(last, system.k, enum_cap)
    D, nums = system.numerators
    out = []
    best_n, best = 0, D  # every distance is at most D/2, so n = 1 replaces this
    # only a point with every distance below the best at the chunk's start
    # can replace it; the survivors are then taken in order of n.  No
    # distance exceeds D/2, so the first chunk lets every point through
    thresholds = [D // 2] * system.k
    for hits, rows in _sieved(D, nums, last, thresholds):
        for n, dists in zip(hits, rows):
            while cps[len(out)] <= n:  # checkpoints that end before n
                out.append((best_n, Fraction(best, D)))
            m = max(dists)
            if m < best:
                best, best_n = m, n
        if best == 0:  # no later n can do better
            break
        thresholds[:] = [best - 1] * system.k
    return out + [(best_n, Fraction(best, D))] * (len(cps) - len(out))


def _strict_thresholds(eps: Epsilons, D: int):
    # min(r, D-r) <= t  <=>  min(r, D-r)/D < eps, with t = (eps.num*D - 1) // eps.den
    return [(e.numerator * D - 1) // e.denominator for e in eps.eps]


def _hit_chunks(system: PolySystem, eps: Epsilons, last: int, enum_cap: int):
    """The strict hits of each chunk of n = 1..last."""
    _check_cap(last, system.k, enum_cap)
    D, nums = system.numerators
    chunks = _sieved(D, nums, last, _strict_thresholds(eps, D))
    return (hits for hits, _rows in chunks)


def hit_count(system: PolySystem, eps: Epsilons, x,
              enum_cap: int = DEFAULT_ENUM_CAP) -> Tuple[int, Optional[int]]:
    """#{n <= x : ||f_i(n)|| < eps_i for all i} (strict inequalities),
    and the smallest such n < x (what `first_hit` returns), from one pass."""
    count, first = 0, None
    for hits in _hit_chunks(system, eps, math.floor(x), enum_cap):
        if first is None and hits and hits[0] < x:
            first = hits[0]
        count += len(hits)
    return count, first


def first_hit(system: PolySystem, eps: Epsilons, x,
              enum_cap: int = DEFAULT_ENUM_CAP) -> Optional[int]:
    """Smallest n < x with ||f_i(n)|| < eps_i for all i, or None."""
    chunks = _hit_chunks(system, eps, horizon_count(x), enum_cap)
    return next((hits[0] for hits in chunks if hits), None)
