"""Differential tests of the scan reducers against a per-n reference.

Every scan in `core` and `diophantine` reduces the chunked residue stream.  The
reference here evaluates each n on its own: `Poly.eval` (Horner on exact
Fractions) and `frac_dist` for the distances, and integer Horner mod D for
the phase sums, with no forward differences.  Horizons sit on and around
the stream's chunk boundaries, and one spans several full chunks.  Besides
random systems, the cases force what a sieve can get wrong: distances equal
to a tolerance exactly, and running minima that tie or improve within a chunk.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fracparts.core import (
    DEFAULT_PRECISION_BITS,
    _CHUNK_FIRST,
    _CHUNK_MAX,
    Epsilons,
    Poly,
    PolySystem,
    _checkpointed_min,
    brute_force_min,
    first_hit,
    frac_dist,
    hit_count,
    parse_scalar,
)
from fracparts.diophantine import (
    _abs_sum_exact_phase,
    _phase_coefficients,
    phi,
    smoothed_count,
    weyl_sum,
)


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


@settings(max_examples=90, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(scan_cases())
def test_reducers_match_per_n_reference(case):
    system, eps, last, checkpoints, h = case
    dists = [[frac_dist(p.eval(n)) for p in system.polys] for n in range(1, last + 1)]
    worst = [max(row) for row in dists]
    hits = [n for n, row in enumerate(dists, 1)
            if all(dv < e for dv, e in zip(row, eps.eps))]

    running_min = {}  # horizon c -> (argmin, min) over n < c, smallest n on ties
    n_star = 1
    for n in range(1, last + 1):
        if worst[n - 1] < worst[n_star - 1]:
            n_star = n
        running_min[n + 1] = (n_star, worst[n_star - 1])

    assert _checkpointed_min(system, checkpoints) == [
        running_min[c] for c in sorted(set(checkpoints))]
    assert brute_force_min(system, last + 1) == running_min[last + 1]
    # one pass counts n <= x and finds the smallest hit n < x
    below = [n for n in hits if n < last]
    assert hit_count(system, eps, last) == (len(hits), below[0] if below else None)
    assert hit_count(system, eps, last + Fraction(1, 2)) == (
        len(hits), hits[0] if hits else None)
    assert first_hit(system, eps, last + 1) == (hits[0] if hits else None)

    smoothed = Fraction(0)
    for row in dists:
        prod = Fraction(1)
        for dv, e in zip(row, eps.eps):
            prod *= phi(dv / e)
        smoothed += prod
    assert smoothed_count(system, eps, last) == smoothed

    sigma = _phase_coefficients(system, h)
    tau = 2 * math.pi
    re = im = 0.0
    with mpmath.workprec(DEFAULT_PRECISION_BITS + 16):
        total = mpmath.mpc(0)
        for r, D in _phase_residues(sigma, last):
            ang = tau * (r * (1.0 / D))
            re += math.cos(ang)
            im += math.sin(ang)
            total += mpmath.expjpi(mpmath.mpf(2 * r) / D)
    assert _abs_sum_exact_phase(sigma, last) == math.hypot(re, im)
    assert weyl_sum(system, h, last) == total


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
