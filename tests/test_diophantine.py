import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracparts.core import Epsilons, Poly, PolySystem
from fracparts.diophantine import (
    RelationTriple,
    best_rational,
    build_relations,
    default_q_rel,
    large_coefficients,
    sigma_vector,
)


def sys1(*coeff_lists):
    return PolySystem(tuple(Poly.from_strings(list(c)) for c in coeff_lists))


def feasible_scan(alpha: Fraction, Q: int):
    """Exhaustive argmin of |alpha - a/q| over fractions inside the Dirichlet
    quality gate |alpha - a/q| <= 1/(q(Q+1)); ties prefer smaller q."""
    best = None
    for q in range(1, Q + 1):
        base = round(alpha * q)
        for a in (base - 1, base, base + 1):
            dist = abs(alpha - Fraction(a, q))
            if dist * q * (Q + 1) <= 1 and (best is None or (dist, q) < best[:2]):
                best = (dist, q, a)
    g = math.gcd(best[2], best[1])
    return best[2] // g, best[1] // g


class TestBestRational:
    def test_exact_half(self):
        assert best_rational(Fraction(1, 2), 10) == (1, 2)

    def test_zero(self):
        assert best_rational(0, 5) == (0, 1)

    def test_pi_at_192_bits(self):
        with mpmath.workprec(200):
            pi192 = Fraction(int(mpmath.floor(mpmath.pi * 2 ** 192)), 2 ** 192)
        assert best_rational(pi192, 10) == (22, 7)

    def test_gate_overrides_raw_closest(self):
        # closest fraction to 41/100 with q <= 4 is 1/3 (distance 23/300) but
        # that violates 1/(q(Q+1)) = 1/15; the gated minimum is 1/2
        assert best_rational(Fraction(41, 100), 4) == (1, 2)

    def test_negative_and_large(self):
        assert best_rational(Fraction(-22, 7), 10) == (-22, 7)
        a, q = best_rational(Fraction(10**9 + 1, 3), 100)
        assert abs(Fraction(10**9 + 1, 3) - Fraction(a, q)) <= Fraction(1, q * 101)

    def test_rejects_bad_Q(self):
        with pytest.raises(ValueError):
            best_rational(Fraction(1, 2), 0)

    def test_matches_exhaustive_scan(self):
        rng = random.Random(99)
        for _ in range(400):
            alpha = Fraction(rng.getrandbits(64), 2 ** 64)
            Q = rng.randint(1, 300)
            got = best_rational(alpha, Q)
            assert got == feasible_scan(alpha, Q)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(a=st.integers(-10 ** 4, 10 ** 4), q=st.integers(1, 500),
           sign=st.sampled_from([1, -1]), N=st.integers(1, 10 ** 9), Q=st.integers(1, 500))
    def test_near_rationals_match_exhaustive_scan(self, a, q, sign, N, Q):
        # alpha = a/q +- 1/N has a partial quotient near N / q^2, up to 10^9:
        # one intermediate fraction per level must stand for all of them
        alpha = Fraction(a, q) + sign * Fraction(1, N)
        assert best_rational(alpha, Q) == feasible_scan(alpha, Q)

    def test_dirichlet_bound_always(self):
        rng = random.Random(7)
        for _ in range(400):
            alpha = Fraction(rng.getrandbits(64), 2 ** 64)
            Q = rng.randint(1, 500)
            a, q = best_rational(alpha, Q)
            assert math.gcd(a, q) == 1 and 1 <= q <= Q
            assert abs(alpha - Fraction(a, q)) <= Fraction(1, q * (Q + 1))


class TestBuildRelations:
    def _dich(self, system, eps, x, c_hit=1e9):
        return large_coefficients(system, eps, x, c_hit=c_hit)

    def test_exact_cancellation_duplicates(self):
        s = sys1(["0", "sqrt(2)"], ["0", "sqrt(2)"])
        eps = Epsilons((Fraction(1, 20), Fraction(1, 20)))
        dich = self._dich(s, eps, 200)
        rels = build_relations(s, eps, 200, dich, Q_rel=100)
        by_h = {t.h: t for t in rels}
        assert (1, -1) in by_h
        t = by_h[(1, -1)]
        assert t.a == (0, 0) and t.q == (1, 1)
        assert all(r == 0 for r in t.residuals)

    def test_rational_coefficient_recovered(self):
        s = sys1(["3/7"])
        eps = Epsilons((Fraction(1, 25),))
        dich = self._dich(s, eps, 300)
        rels = build_relations(s, eps, 300, dich, Q_rel=10)
        by_h = {t.h: t for t in rels}
        assert (7, ) in {t.h for t in rels}  # sigma(7) = 3, exact
        t7 = by_h[(7,)]
        assert t7.a == (3,) and t7.q == (1,)
        if (1,) in by_h:
            assert by_h[(1,)].a == (3,) and by_h[(1,)].q == (7,)
            assert by_h[(1,)].residuals == (Fraction(0),)

    def test_minimality_vs_exhaustive(self):
        rng = random.Random(13)
        s = sys1([str(Fraction(rng.getrandbits(30), 2 ** 30)),
                  str(Fraction(rng.getrandbits(30), 2 ** 30))],
                 [str(Fraction(rng.getrandbits(30), 2 ** 30)),
                  str(Fraction(rng.getrandbits(30), 2 ** 30))])
        eps = Epsilons((Fraction(1, 12), Fraction(1, 12)))
        dich = self._dich(s, eps, 150)
        Q_rel = 40
        rels = build_relations(s, eps, 150, dich, Q_rel=Q_rel)
        assert rels, "witness list should produce relations at the default tolerance"
        for t in rels[:6]:
            sig = sigma_vector(s, t.h)
            for j, (a_j, q_j) in enumerate(zip(t.a, t.q)):
                assert feasible_scan(sig[j], Q_rel) == (a_j, q_j)

    def test_sorted_and_idempotent(self):
        s = sys1(["0", "sqrt(2)"], ["0", "sqrt(2)"])
        eps = Epsilons((Fraction(1, 20), Fraction(1, 20)))
        dich = self._dich(s, eps, 200)
        r1 = build_relations(s, eps, 200, dich, Q_rel=50)
        r2 = build_relations(s, eps, 200, dich, Q_rel=50)
        assert r1 == r2
        assert r1 == sorted(r1, key=lambda t: t.h)

    def test_requires_branch2(self):
        s = sys1(["0"])
        dich = large_coefficients(s, Epsilons((Fraction(1, 10),)), 100, c_hit=0.05)
        with pytest.raises(ValueError):
            build_relations(s, Epsilons((Fraction(1, 10),)), 100, dich, Q_rel=10)

    def test_scaling_coherence_exact_zero_residuals(self):
        # rational system with common denominator D: once Q_rel clears
        # D * max|h| * k * max|numerator|, every residual is exactly 0
        s = sys1(["2/9", "5/9"], ["7/9", "1/9"])
        eps = Epsilons((Fraction(1, 15), Fraction(1, 15)))
        dich = self._dich(s, eps, 120)
        Q_rel = 9 * 40 * 2 * 7
        rels = build_relations(s, eps, 120, dich, Q_rel=Q_rel)
        assert rels
        for t in rels:
            assert all(r == 0 for r in t.residuals)


class TestRelationResidual:
    def test_reduced_fraction_enforced(self):
        with pytest.raises(ValueError):
            RelationTriple(a=(2,), q=(4,), h=(1,), residuals=(Fraction(0),))

    def test_q_rel_default_capped(self):
        eps = Epsilons((Fraction(1, 100), Fraction(1, 100)))
        assert default_q_rel(eps) == 10 ** 6
        eps2 = Epsilons((Fraction(1, 2),))
        assert default_q_rel(eps2) == 16
