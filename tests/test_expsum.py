import math
import random
from fractions import Fraction

import mpmath
import pytest

from fracparts.core import (
    DEFAULT_ENUM_CAP,
    Epsilons,
    HorizonCapError,
    Poly,
    PolySystem,
    _delta_scaled_caps,
    hit_count,
)
from fracparts.diophantine import (
    _abs_sum_exact_phase,
    _phase_coefficients,
    large_coefficients,
    phi,
    smoothed_count,
)
from fracparts.expsum import (
    HIT_DENSITY,
    LARGE_COEFFICIENTS,
    BoxTooLargeError,
    FourierDichotomy,
    frequency_caps,
)
from weyl_oracle import weyl_sum


def sys1(*coeff_lists):
    return PolySystem(tuple(Poly.from_strings(list(c)) for c in coeff_lists))


class TestKernel:
    def test_plateau_support_range(self):
        assert phi(Fraction(2, 5)) == 1
        assert phi(Fraction(1, 2)) == 1
        assert phi(1) == 0
        assert phi(Fraction(-3, 8)) == 1
        rng = random.Random(3)
        for _ in range(300):
            u = Fraction(rng.randint(-2000, 2000), 1000)
            v = phi(u)
            assert 0 <= v <= 1
            assert v == phi(-u)

    def test_transition_is_c2(self):
        # one-sided second-difference quotients at each knot must agree up to
        # O(h) (a merely C^1 spline would show an O(1) jump there)
        def second_jump(h: Fraction) -> Fraction:
            worst = Fraction(0)
            for knot in (Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), Fraction(1)):
                left = (phi(knot) - 2 * phi(knot - h) + phi(knot - 2 * h)) / h ** 2
                right = (phi(knot + 2 * h) - 2 * phi(knot + h) + phi(knot)) / h ** 2
                worst = max(worst, abs(left - right))
            return worst

        h = Fraction(1, 10 ** 6)
        big, small = second_jump(h), second_jump(h / 10)
        assert big < Fraction(1, 10 ** 3)
        assert small * 5 < big  # shrinks linearly in h, so phi'' is continuous


class TestWeylSum:
    def test_zero_vector_counts(self):
        s = sys1(["1/2"])
        assert weyl_sum(s, (0,), 7) == mpmath.mpc(7, 0)

    def test_half_cancels(self):
        s = sys1(["1/2"])
        v = weyl_sum(s, (1,), 2)
        assert abs(v) < mpmath.mpf(2) ** -180

    def test_precision_agreement_sqrt2(self):
        # recompute at doubled precision; relative agreement to 2^-100
        s = sys1(["0", "sqrt(2)"])
        a = weyl_sum(s, (1,), 1000, bits=192)
        b = weyl_sum(s, (1,), 1000, bits=384)
        assert abs(a - b) / abs(b) < mpmath.mpf(2) ** -100

    def test_conjugate_symmetry_and_bound(self):
        rng = random.Random(11)
        for _ in range(10):
            s = sys1([str(Fraction(rng.randint(1, 40), rng.randint(1, 40))),
                      str(Fraction(rng.randint(1, 40), rng.randint(1, 40)))])
            h = (rng.randint(-3, 3),)
            x = rng.randint(5, 60)
            a = weyl_sum(s, h, x)
            b = weyl_sum(s, tuple(-v for v in h), x)
            with mpmath.workprec(250):  # compare at the sums' own precision
                assert abs(a - mpmath.conj(b)) < mpmath.mpf(2) ** -150
                assert abs(a) <= x + mpmath.mpf(2) ** -150

    def test_fast_path_matches_mpmath(self):
        s = sys1(["0", "sqrt(2)"])
        fast = _abs_sum_exact_phase(_phase_coefficients(s, (1,)), 500)
        slow = float(abs(weyl_sum(s, (1,), 500)))
        assert abs(fast - slow) < 1e-9

    def test_cap(self):
        # one exponential per n: a horizon over the enumeration cap is refused
        # before any is taken, the zero vector's closed form included
        for h in ((1,), (0,)):
            with pytest.raises(HorizonCapError):
                weyl_sum(sys1(["1/3"]), h, DEFAULT_ENUM_CAP + 1)


class TestSmoothedCount:
    def test_half_system_forced_by_sandwich(self):
        s = sys1(["1/2"])
        eps = Epsilons((Fraction(3, 10),))
        assert smoothed_count(s, eps, 5) == 2
        assert hit_count(s, Epsilons((Fraction(3, 20),)), 5)[0] == 2
        assert hit_count(s, eps, 5)[0] == 2

    def test_zero_poly(self):
        assert smoothed_count(sys1(["0"]), Epsilons((Fraction(1, 10),)), 10) == 10

    def test_cap(self):
        with pytest.raises(HorizonCapError):
            smoothed_count(sys1(["1/3"]), Epsilons((Fraction(1, 10),)), 10 ** 7,
                           enum_cap=10 ** 3)

    def test_full_plateau(self):
        # integer-valued polynomial keeps every residue inside the plateau
        s = sys1(["1"])
        assert smoothed_count(s, Epsilons((Fraction(1, 2),)), 9) == 9

    def test_sandwich_random(self):
        rng = random.Random(17)
        for _ in range(25):
            k = rng.randint(1, 2)
            s = sys1(*[[str(Fraction(rng.randint(1, 60), rng.randint(1, 60)))
                        for _ in range(2)] for _ in range(k)])
            eps = Epsilons(tuple(Fraction(rng.randint(2, 40), 100) for _ in range(k)))
            x = rng.randint(4, 80)
            half = Epsilons(tuple(e / 2 for e in eps.eps))
            mid = smoothed_count(s, eps, x)
            assert hit_count(s, half, x)[0] <= mid <= hit_count(s, eps, x)[0]


class TestLargeCoefficients:
    def test_zero_system_hit_density(self):
        dich = large_coefficients(sys1(["0"]), Epsilons((Fraction(1, 10),)), 100,
                                  c_hit=0.1)
        assert dich.branch == HIT_DENSITY
        assert dich.density_count == 100

    def test_duplicate_exact_cancellation(self):
        s = sys1(["0", "sqrt(2)"], ["0", "sqrt(2)"])
        eps = Epsilons((Fraction(1, 20), Fraction(1, 20)))
        dich = large_coefficients(s, eps, 200, c_hit=1e9)
        assert dich.branch == LARGE_COEFFICIENTS
        assert not dich.flagged
        wit = {h: m for h, m in dich.witnesses}
        assert (1, -1) in wit and (-1, 1) in wit
        assert abs(wit[(1, -1)] - 200) < 1e-6
        assert dich.Q == 2

    def test_random_branch_agrees_with_direct_computation(self):
        rng = random.Random(23)
        for _ in range(5):
            coeff = Fraction(rng.getrandbits(48), 2 ** 48)
            s = sys1(["0", str(coeff)])
            eps = Epsilons((Fraction(1, 100),))
            x = 500
            c_hit = 0.05
            dich = large_coefficients(s, eps, x, c_hit=c_hit)
            hits, _first = hit_count(s, eps, x)
            threshold = Fraction(c_hit) * eps.delta_product * x
            if hits >= threshold:
                assert dich.branch == HIT_DENSITY
            else:
                assert dich.branch == LARGE_COEFFICIENTS

    def test_witnesses_reevaluate_into_window(self):
        s = sys1(["0", "sqrt(2)"], ["0", "sqrt(2)"])
        eps = Epsilons((Fraction(1, 20), Fraction(1, 20)))
        dich = large_coefficients(s, eps, 200, c_hit=1e9)
        assert dich.branch == LARGE_COEFFICIENTS and dich.witnesses
        N, Q = dich.x_floor, dich.Q
        tol = N * 2.0 ** -38
        for h, _m in dich.witnesses[:6]:
            precise = float(abs(weyl_sum(s, h, N)))
            assert N / Q - tol <= precise <= 2 * N / Q + tol

    def test_branch2_count_meets_sqrt_q(self):
        s = sys1(["0", "sqrt(2)"], ["0", "sqrt(2)"])
        eps = Epsilons((Fraction(1, 20), Fraction(1, 20)))
        dich = large_coefficients(s, eps, 200, c_hit=1e9)
        need = math.isqrt(dich.Q)
        if need * need < dich.Q:
            need += 1
        assert len(dich.witnesses) >= need

    def test_box_cap(self):
        s = sys1(["0", "sqrt(2)"])
        with pytest.raises(BoxTooLargeError):
            large_coefficients(s, Epsilons((Fraction(1, 500),)), 100, max_box=100)

    def test_delta_precondition(self):
        with pytest.raises(ValueError):
            large_coefficients(sys1(["1/2"]), Epsilons((Fraction(1, 2),)), 100)

    def test_dichotomy_completeness_random(self):
        rng = random.Random(29)
        for _ in range(8):
            coeff = Fraction(rng.getrandbits(40), 2 ** 40)
            s = sys1(["0", str(coeff)])
            dich = large_coefficients(s, Epsilons((Fraction(1, 25),)), 300,
                                      c_hit=0.05)
            assert dich.branch in (HIT_DENSITY, LARGE_COEFFICIENTS)
            if dich.branch == LARGE_COEFFICIENTS:
                assert dich.witnesses

    def test_caps_formula(self):
        eps = Epsilons((Fraction(1, 10), Fraction(1, 10)))
        caps = frequency_caps(eps)
        # Delta = 1/100, (2k)^4 = 256: cap = floor(10 * 100^(1/256))
        expected = int(10 * 100 ** (1 / 256))
        assert caps == (expected, expected)

    def test_caps_exact_at_integer_boundary(self):
        # eps^-1 Delta^(-1/16) is exactly 2 * 2^16 and 3 * 3^16
        assert frequency_caps(Epsilons((Fraction(1, 2 ** 16),))) == (131072,)
        assert _delta_scaled_caps(Epsilons((Fraction(1, 3 ** 16),)), Fraction(1, 16)) == [3 ** 17]

    def test_caps_are_exact_floors(self):
        # cap c is the largest with (c eps)^q Delta^p <= 1, exponent p/q
        rng = random.Random(29)
        cases = [(Epsilons((Fraction(1, m ** 16 + t),)), Fraction(1, 16))
                 for m in (2, 3, 5) for t in (-1, 0, 1)]
        cases.append((Epsilons((Fraction(1, 10 ** 400), Fraction(1, 3))), Fraction(1, 256)))
        for _ in range(200):
            k = rng.randint(1, 4)
            eps = Epsilons(tuple(Fraction(rng.randint(1, 50), rng.randint(100, 10 ** 6))
                                 for _ in range(k)))
            cases.append((eps, Fraction(rng.randint(1, 2), (2 * k) ** 4)))
        for eps, exponent in cases:
            p, q = exponent.numerator, exponent.denominator
            delta = eps.delta_product
            for e, c in zip(eps.eps, _delta_scaled_caps(eps, exponent)):
                assert (c * e) ** q * delta ** p <= 1 < ((c + 1) * e) ** q * delta ** p

    def test_roundtrip_dict(self):
        s = sys1(["0", "sqrt(2)"], ["0", "sqrt(2)"])
        eps = Epsilons((Fraction(1, 20), Fraction(1, 20)))
        dich = large_coefficients(s, eps, 200, c_hit=1e9)
        again = FourierDichotomy.from_dict(dich.to_dict())
        assert again.witnesses == dich.witnesses
        assert again.Q == dich.Q
