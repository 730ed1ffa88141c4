"""Differential tests of the scan reducers against a per-n reference.

Every scan in `core` and `diophantine` reduces the chunked residue stream,
or, where the sieving polynomial is linear, the hits of its return map.  The
reference here evaluates each n on its own: `poly_eval` (Horner on exact
Fractions) and `frac_dist` for the distances, and integer Horner mod D for
the phase sums, with no forward differences.  Horizons sit on and around
the stream's chunk boundaries, and one spans several full chunks.  Besides
random systems, the cases force what a sieve can get wrong: distances equal
to a tolerance exactly, and running minima that tie or improve within a chunk.
"""

import inspect
import math
import sys
from fractions import Fraction
from itertools import accumulate, compress, repeat
from operator import le

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fracparts.core import (
    DEFAULT_ENUM_CAP,
    _CHUNK_FIRST,
    _CHUNK_MAX,
    Epsilons,
    Poly,
    PolySystem,
    _ReturnMap,
    _checkpointed_min,
    _first_in,
    _hit_chunks,
    brute_force_min,
    eval_system,
    first_hit,
    hit_count,
    parse_scalar,
)
from fracparts.diophantine import (
    _abs_sum_exact_phase,
    _phase_coefficients,
    phi,
    smoothed_count,
)
from fraction_oracle import frac_dist, poly_eval
from weyl_oracle import exp_sum, weyl_sum


def _chunk_ends(count):
    """The last n of each of the stream's first ``count`` chunks."""
    ends, n, size = [], 0, _CHUNK_FIRST
    for _ in range(count):
        n += size
        ends.append(n)
        size = min(2 * size, _CHUNK_MAX)
    return ends


_ENDS = _chunk_ends(8)
assert _ENDS[-1] - _ENDS[-3] == 2 * _CHUNK_MAX  # the last two are full chunks
HORIZONS = sorted({1, 2, 63, 64, 65, 191, 192, 193, 4095, 4096, 4097,
                   _ENDS[-1] + 97}
                  | {e + s for e in _ENDS[:-1] for s in (-1, 0, 1)})

_coeff = st.one_of(
    st.builds(lambda p, q: parse_scalar(f"{p}/{q}"),
              st.integers(-40, 40), st.integers(1, 60)),
    st.builds(lambda sign, m, q: parse_scalar(f"{sign}sqrt({m})/{q}"),
              st.sampled_from(["", "-"]), st.sampled_from([2, 3, 5, 6, 7, 10]),
              st.integers(1, 9)),
)


# moduli p for systems of monomials a * n^j / p: every distance repeats at
# n and p - n, so the running minimum ties.  For p = 61 both lie in the first
# chunk; for p = 127 they lie on either side of its end (unless n is 63 or
# 64); for the others it depends on n
TIE_MODULI = (61, 67, 127, 193, 257)


@st.composite
def scan_cases(draw):
    kind = draw(st.sampled_from(["random", "threshold", "ties"]))
    k = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    h = tuple(draw(st.integers(-3, 3)) for _ in range(k))
    if kind == "random":
        system = PolySystem(tuple(Poly(tuple(draw(_coeff) for _ in range(d)))
                                  for _ in range(k)))
        eps = Epsilons(tuple(Fraction(1, draw(st.integers(2, 40))) for _ in range(k)))
    elif kind == "threshold":
        # distances are multiples of 1/q_i, so many equal eps_i = m_i/q_i exactly
        polys, eps = [], []
        for _ in range(k):
            q = draw(st.integers(2, 40))
            polys.append(Poly(tuple(Fraction(draw(st.integers(-40, 40)), q)
                                    for _ in range(d))))
            eps.append(Fraction(draw(st.integers(1, q // 2)), q))
        system, eps = PolySystem(tuple(polys)), Epsilons(tuple(eps))
    else:
        p = draw(st.sampled_from(TIE_MODULI))
        system = PolySystem(tuple(
            Poly((0,) * (j - 1) + (Fraction(draw(st.integers(1, p - 1)), p),) + (0,) * (d - j))
            for j in (draw(st.integers(1, d)) for _ in range(k))))
        eps = Epsilons(tuple(Fraction(1, draw(st.integers(2, 40))) for _ in range(k)))
        # n = p would give 0; every horizon is a checkpoint, so each
        # improvement of the minimum, mid-chunk ones too, is reported
        return system, eps, p - 1, list(range(2, p + 1)), h
    last = draw(st.sampled_from(HORIZONS))
    checkpoints = draw(st.lists(st.integers(2, last + 1), max_size=3)) + [last + 1]
    return system, eps, last, checkpoints, h


def _phase_residues(sigma, last):
    D = math.lcm(*(s.denominator for s in sigma))
    nums = [int(s * D) for s in sigma]
    for n in range(1, last + 1):
        acc = 0
        for c in reversed(nums):
            acc = acc * n + c
        yield (acc * n) % D, D


def _reference(system, eps, last):
    """Per n <= last: the distances, the hits, and the running minimum as a
    map from horizon c to (argmin, min) over n < c, smallest n on ties."""
    dists = [[frac_dist(poly_eval(p, n)) for p in system.polys] for n in range(1, last + 1)]
    worst = [max(row) for row in dists]
    hits = [n for n, row in enumerate(dists, 1)
            if all(dv < e for dv, e in zip(row, eps.eps))]
    running_min = {}
    n_star = 1
    for n in range(1, last + 1):
        if worst[n - 1] < worst[n_star - 1]:
            n_star = n
        running_min[n + 1] = (n_star, worst[n_star - 1])
    return dists, hits, running_min


def _assert_hits_and_minima(system, eps, last, checkpoints):
    dists, hits, running_min = _reference(system, eps, last)
    assert _checkpointed_min(system, checkpoints) == [
        running_min[c] for c in sorted(set(checkpoints))]
    assert brute_force_min(system, last + 1) == running_min[last + 1]
    # one pass counts n <= x and finds the smallest hit n < x
    below = [n for n in hits if n < last]
    assert hit_count(system, eps, last) == (len(hits), below[0] if below else None)
    assert hit_count(system, eps, last + Fraction(1, 2)) == (
        len(hits), hits[0] if hits else None)
    assert first_hit(system, eps, last + 1) == (hits[0] if hits else None)
    return dists, hits


@settings(max_examples=90, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(scan_cases())
def test_reducers_match_per_n_reference(case):
    system, eps, last, checkpoints, h = case
    dists, _ = _assert_hits_and_minima(system, eps, last, checkpoints)

    smoothed = Fraction(0)
    for row in dists:
        prod = Fraction(1)
        for dv, e in zip(row, eps.eps):
            prod *= phi(dv / e)
        smoothed += prod
    assert smoothed_count(system, eps, last) == smoothed

    sigma = _phase_coefficients(system, h)
    residues = list(_phase_residues(sigma, last))
    tau = 2 * math.pi
    re = im = 0.0
    for r, D in residues:
        ang = tau * (r * (1.0 / D))
        re += math.cos(ang)
        im += math.sin(ang)
    assert _abs_sum_exact_phase(sigma, last) == math.hypot(re, im)
    assert weyl_sum(system, h, last) == exp_sum(residues)


def test_empty_horizons():
    system = PolySystem((Poly((parse_scalar("sqrt(2)"),)),))
    eps = Epsilons((Fraction(1, 2),))
    assert hit_count(system, eps, Fraction(1, 2)) == (0, None)
    assert first_hit(system, eps, 1) is None
    assert smoothed_count(system, eps, 0) == 0
    assert _abs_sum_exact_phase([Fraction(1, 3)], 0) == 0.0
    for checkpoints in ([1, 100], []):
        with pytest.raises(ValueError):
            _checkpointed_min(system, checkpoints)
    with pytest.raises(ValueError):
        brute_force_min(system, 1)


# sieving polynomials f_1 = n/p: a distance under eps_1 = 1/m needs n mod p
# within p/m of 0, so chunks 5 to 7 (n = 961..4032) leave no survivor.  f_0
# is evaluated only at the survivors, near multiples of p and past those
# chunks, and f_1's table, its threshold folded in, crosses them.  The hit
# scans sieve with f_1, the tighter tolerance; the running minimum has one
# threshold for both and sieves with the later polynomial, f_1 again.
# p = 4096 gives a power-of-two D, p = 5000 a D of 625 * 2^193.
@pytest.mark.parametrize("p, m", [(4096, 1024), (5000, 1000)])
def test_sieve_crosses_chunks_without_survivors(p, m):
    system = PolySystem((Poly((parse_scalar("sqrt(2)"), parse_scalar("sqrt(5)/2"))),
                         Poly((Fraction(1, p), Fraction(0)))))
    eps = Epsilons((Fraction(1, 4), Fraction(1, m)))
    last = 2 * p + 500
    assert all(n % p <= 4 or n % p >= p - 4 for n in range(1, last + 1)
               if frac_dist(Fraction(n, p)) < eps.eps[1])
    assert _ENDS[4] == 1984 and _ENDS[6] == 4032 < p - 4
    dists, hits = _assert_hits_and_minima(system, eps, last,
                                          list(range(500, last + 2, 500)))
    # every hit, the first too, lies past the survivor-free chunks
    assert hits and hits[0] > p - 4
    assert smoothed_count(system, eps, last) == sum(
        phi(row[0] / eps.eps[0]) * phi(row[1] / eps.eps[1]) for row in dists)


def test_survivors_far_from_the_start():
    # f_1 = n/p sieves, and eps_1 = 3/p leaves only n within 2 of a multiple
    # of p, so the survivors lie about 10^5 points apart, deep in full
    # chunks.  f_0 and f_2 are evaluated there from their numerators over a
    # D of 15 * p * 2^192; the per-n reference checks only the n that the
    # sieve lets through, which hold every hit
    p = 99991
    a, b = "-sqrt(2)/3", "-sqrt(7)/5"
    system = PolySystem((Poly.from_strings([a, "1/2", b]),
                         Poly((Fraction(1, p), 0, 0)),
                         Poly.from_strings(["-sqrt(5)/6", b, a])))
    eps = Epsilons((Fraction(1, 4), Fraction(3, p), Fraction(1, 3)))
    last = 3 * p + 2
    candidates = [n for n in range(1, last + 1) if n % p <= 2 or n % p >= p - 2]
    hits = [n for n in candidates
            if all(frac_dist(poly_eval(f, n)) < e for f, e in zip(system.polys, eps.eps))]
    assert len(hits) > 1 and hits[0] >= p - 2
    assert [n for chunk in _hit_chunks(system, eps, last, DEFAULT_ENUM_CAP)
            for n in chunk] == hits
    assert hit_count(system, eps, last) == (len(hits), hits[0])
    assert first_hit(system, eps, last + 1) == hits[0]
    assert first_hit(system, eps, hits[0]) is None
    for n in hits:
        assert all(dv < e for dv, e in zip(eval_system(system, n), eps.eps))
    assert smoothed_count(system, eps, last) == sum(
        math.prod((phi(frac_dist(poly_eval(f, n)) / e)
                   for f, e in zip(system.polys, eps.eps)), start=Fraction(1))
        for n in candidates)


# ---------------------------------------------------------------------------
# The linear sieve.
# ---------------------------------------------------------------------------


def test_linear_sieve_matches_brute_force_for_small_moduli():
    # every (a, e, w) for D <= 40, a = 0, gcd(a, D) > 1 and w >= D - 1
    # among them.  The walk's next hit depends only on the value at its
    # current hit, and from starts e = 0..gcd(a, D) - 1 it meets every value
    # in [0, w] it can reach, twice within the horizon
    for D in range(1, 41):
        horizon = 2 * D + 2
        for a in range(D):
            steps = [a * n % D for n in range(horizon)]
            for e in range(D):
                # first[v]: the first n with (a*n + e) mod D <= v
                first = [horizon] * D
                for n, v in enumerate(steps):
                    v = (v + e) % D
                    first[v] = min(first[v], n)
                first = list(accumulate(first, min))
                for w in range(D + 1):
                    m = first[min(w, D - 1)]
                    assert _first_in(a, e, w, D) == (m if m < horizon else None)
            for w in range(D + 1):
                for e in range(math.gcd(a, D)):
                    values = [(v + e) % D for v in steps]
                    hits = list(compress(range(1, horizon),
                                         map(le, values[1:], repeat(w))))
                    walk = _ReturnMap(a, e, w, D, 1)
                    # a first call that stops mid-way, as a chunk does
                    assert walk.hits(D // 2) + walk.hits(horizon - 1) == hits


_linear_coeff = st.one_of(
    # power-of-two D
    st.integers(-(1 << 48), 1 << 48).map(lambda p: Fraction(p, 1 << 48)),
    st.builds(lambda sign, m: parse_scalar(f"{sign}sqrt({m})"),
              st.sampled_from(["", "-"]), st.sampled_from([2, 3, 5, 7, 10])),
    # other D
    st.builds(lambda p, q: parse_scalar(f"{p}/{q}"),
              st.integers(-400, 400), st.integers(1, 400)),
    st.builds(lambda m, q: parse_scalar(f"sqrt({m})/{q}"),
              st.sampled_from([2, 3, 5, 6, 7, 10]), st.integers(3, 99)),
    # near r/q, so that a tiny tolerance still has hits, near multiples of q
    st.builds(lambda r, q, e: Fraction(r, q) + Fraction(e, 1 << 64),
              st.integers(0, 60), st.integers(1, 61), st.integers(-(1 << 40), 1 << 40)),
)
_linear_eps = st.one_of(
    st.sampled_from([Fraction(1, 10 ** 6), Fraction(1, 10 ** 4), Fraction(1, 3),
                     Fraction(1, 2)]),
    st.integers(2, 10 ** 6).map(lambda q: Fraction(1, q)),
    st.integers(1, 500).map(lambda m: Fraction(m, 1000)),
)


@st.composite
def linear_cases(draw):
    """Systems whose sieving polynomial is linear: every polynomial linear
    (padded with zero higher coefficients when d >= 2), or, at d >= 2, a
    linear one last with the tightest tolerance next to full ones."""
    k = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        linear = [Poly((draw(_linear_coeff),) + (0,) * (d - 1)) for _ in range(k)]
        eps = [draw(_linear_eps) for _ in range(k)]
    else:
        # distances are multiples of 1/q_i, and the hits include those on
        # either end of the sieve's window (2t, its threshold t with the
        # tolerances m_i/q_i, is then a value the polynomial takes)
        linear, eps = [], []
        for _ in range(k):
            q = draw(st.integers(2, 40))
            linear.append(Poly((Fraction(draw(st.integers(-40, 40)), q),) + (0,) * (d - 1)))
            eps.append(Fraction(draw(st.integers(1, q // 2)), q))
    if d >= 2 and k >= 2 and draw(st.booleans()):
        full = [Poly(tuple(draw(_coeff) for _ in range(d))) for _ in range(k - 1)]
        system = PolySystem(tuple(full) + (linear[-1],))
        eps = [max(e, eps[-1]) for e in eps[:-1]] + [eps[-1]]
    else:
        system = PolySystem(tuple(linear))
    last = draw(st.sampled_from(HORIZONS))
    checkpoints = draw(st.lists(st.integers(2, last + 1), max_size=3)) + [last + 1]
    return system, Epsilons(tuple(eps)), last, checkpoints


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(linear_cases())
def test_linear_sieve_matches_per_n_reference(case):
    system, eps, last, checkpoints = case
    dists, _ = _assert_hits_and_minima(system, eps, last, checkpoints)
    assert smoothed_count(system, eps, last) == sum(
        math.prod((phi(dv / e) for dv, e in zip(row, eps.eps)), start=Fraction(1))
        for row in dists)


def test_linear_sieve_at_tiny_tolerance_and_huge_denominator():
    # t = 0 at a D of 1500 bits: each first-hit query descends hundreds of
    # levels, and the running minimum asks again at each lowered threshold.
    # The scans run under a frame limit just above the current depth, so
    # the descent must be a loop
    q = 3 ** 946  # 1500 bits
    system = PolySystem((Poly((Fraction(2 ** 1499 + 12345, q),)),))
    eps = Epsilons((Fraction(1, 10 ** 600),))
    x = 2000
    _dists, hits, running_min = _reference(system, eps, x - 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        counted, first = hit_count(system, eps, x), first_hit(system, eps, x)
        minimum = brute_force_min(system, x)
    finally:
        sys.setrecursionlimit(limit)
    assert hits == [] and counted == (0, None) and first is None
    assert minimum == running_min[x]
