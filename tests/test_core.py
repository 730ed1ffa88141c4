import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fracparts.core import (
    Epsilons,
    HorizonCapError,
    Poly,
    PolySystem,
    Real,
    ScalarParseError,
    SystemState,
    brute_force_min,
    coefficient_sums,
    eval_system,
    first_hit,
    hit_count,
    parse_scalar,
)
from fraction_oracle import frac_dist, poly_eval
from test_acceptance import planted_step


def sys1(*coeff_lists):
    return PolySystem(tuple(Poly.from_strings(list(c)) for c in coeff_lists))


class TestScalar:
    def test_exact_forms(self):
        assert parse_scalar("3/7").value == Fraction(3, 7)
        assert parse_scalar("-3/7").value == Fraction(-3, 7)
        assert parse_scalar("0.25").value == Fraction(1, 4)
        assert parse_scalar("2").value == 2
        assert parse_scalar("3/7").exact

    def test_sqrt_is_inexact_with_recorded_radius(self):
        r = parse_scalar("sqrt(2)/1")
        assert not r.exact
        assert abs(r.value * r.value - 2) < Fraction(1, 2 ** 180)
        assert r.err == Fraction(1, 2 ** 192)

    def test_sqrt_perfect_square_exact(self):
        r = parse_scalar("sqrt(9)/2")
        assert r.exact and r.value == Fraction(3, 2)

    def test_rejects_garbage(self):
        for bad in ["", "x", "1/0", "sqrt(2)/0", "1+2", "sqrt(-2)"]:
            with pytest.raises(ScalarParseError):
                parse_scalar(bad)

    def test_error_propagation_linear(self):
        a = parse_scalar("sqrt(2)")
        b = Real(Fraction(3))
        assert (a * b).err == 3 * a.err
        assert (a + a).err == 2 * a.err
        assert (a - a).err == 2 * a.err


class TestFracDist:
    def test_examples(self):
        assert frac_dist(Fraction(3, 10)) == Fraction(3, 10)
        assert frac_dist(Fraction(3, 4)) == Fraction(1, 4)
        assert frac_dist(2) == 0
        assert frac_dist(Fraction(-1, 10)) == Fraction(1, 10)

    def test_periodicity_symmetry_range(self):
        rng = random.Random(7)
        for _ in range(500):
            t = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
            d = frac_dist(t)
            assert d == frac_dist(t + 1) == frac_dist(-t)
            assert 0 <= d <= Fraction(1, 2)


class TestEvalSystem:
    def test_examples(self):
        assert eval_system(sys1(["1/3"]), 2) == [Fraction(1, 3)]
        assert eval_system(sys1(["0", "1/4"]), 3) == [Fraction(1, 4)]
        assert eval_system(sys1(["0", "0"]), 17) == [Fraction(0)]

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            eval_system(sys1(["1/3"]), 0)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), k=st.integers(1, 3), d=st.integers(1, 4),
           n=st.one_of(st.integers(1, 200), st.integers(1, 10 ** 30)))
    def test_matches_fraction_reference(self, data, k, d, n):
        # the integer residues mod the common denominator give the same
        # Fractions as Horner on Fractions, for every coefficient form
        sign = st.sampled_from(["", "-", "+"])
        form = st.one_of(
            st.builds("{}.{}".format, st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
            st.builds("{}/{}".format, st.integers(0, 10 ** 9), st.integers(1, 10 ** 6)),
            st.builds("sqrt({})/{}".format, st.integers(0, 1000), st.integers(1, 50)))
        coeff = st.builds(str.__add__, sign, form)
        system = sys1(*[data.draw(st.lists(coeff, min_size=d, max_size=d)) for _ in range(k)])
        assert eval_system(system, n) == [frac_dist(poly_eval(p, n)) for p in system.polys]


# coefficients of the integer-form tests: small p/q, p/q with a 200-bit
# denominator, and sqrt(m)/q approximants with their radii
COEFFICIENTS = {
    "rational": st.builds(lambda p, q: Real(Fraction(p, q)),
                          st.integers(-40, 40), st.integers(1, 60)),
    "200-bit": st.builds(lambda p, q: Real(Fraction(p, q)),
                         st.integers(-2 ** 200, 2 ** 200), st.integers(2 ** 199, 2 ** 200)),
    "sqrt": st.builds(lambda sign, m, q: parse_scalar(f"{sign}sqrt({m})/{q}"),
                      st.sampled_from(["", "-"]),
                      st.integers(2, 10 ** 6).filter(lambda m: math.isqrt(m) ** 2 != m),
                      st.integers(1, 9)),
}
SYSTEM_KINDS = [*COEFFICIENTS, "child"]


@st.composite
def systems(draw, kind):
    """A k <= 3, d <= 3 system with coefficients of one kind, or the child
    system of a planted reduction (`planted_step`)."""
    if kind == "child":
        case = planted_step(draw(st.integers(0, 2 ** 32)))
        assume(case is not None)
        return case[1].g
    k, d, coeff = draw(st.integers(1, 3)), draw(st.integers(1, 3)), COEFFICIENTS[kind]
    return PolySystem(tuple(Poly(tuple(draw(coeff) for _ in range(d))) for _ in range(k)))


class TestIntegerForm:
    @settings(max_examples=80, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(SYSTEM_KINDS).flatmap(systems))
    def test_round_trip(self, system):
        """N / D gives back every value and E / R every radius, and no
        smaller denominator would do: gcd(D, N) = gcd(R, E) = 1."""
        for (D, N), field in ((system.numerators, "value"), (system.radii, "err")):
            assert ([[Fraction(n, D) for n in row] for row in N]
                    == [[getattr(c, field) for c in p.coeffs] for p in system.polys])
            assert math.gcd(D, *(n for row in N for n in row)) == 1
        assert system.numerators is system.numerators  # computed once


class TestCoefficientSums:
    def test_values_and_radii(self):
        s = sys1(["1/2", "sqrt(2)"], ["1/3", "sqrt(3)/2"])
        two, three = s.coeff(1, 2), s.coeff(2, 2)
        sums = coefficient_sums(s, (3, -2))
        assert sums[0] == Real(Fraction(3, 2) - Fraction(2, 3)) and sums[0].exact
        assert sums[1].value == 3 * two.value - 2 * three.value
        assert sums[1].err == 3 * two.err + 2 * three.err > 0

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            coefficient_sums(sys1(["1/2"]), (1, 1))


class TestBruteForceMin:
    def test_half_integer(self):
        assert brute_force_min(sys1(["1/2"]), 3) == (2, 0)

    def test_common_multiple(self):
        assert brute_force_min(sys1(["1/2"], ["1/3"]), 7) == (6, 0)

    def test_sqrt2_square_fixture(self):
        # frozen regression values from the exhaustive scan (the oracle is
        # the definition here)
        n, v = brute_force_min(sys1(["0", "sqrt(2)"]), 100)
        assert n == 13
        assert abs(float(v) - 0.0020920410530632476) < 1e-15

    def test_matches_randomized_order_second_scan(self):
        rng = random.Random(2024)
        for _ in range(20):
            k = rng.randint(1, 3)
            d = rng.randint(1, 3)
            polys = [[str(Fraction(rng.randint(-30, 30), rng.randint(1, 30)))
                      for _ in range(d)] for _ in range(k)]
            system = sys1(*polys)
            x = rng.randint(5, 120)
            n_star, v = brute_force_min(system, x)
            order = list(range(1, x))
            rng.shuffle(order)
            best = min(order, key=lambda n: (max(eval_system(system, n)), n))
            assert max(eval_system(system, best)) == v
            assert max(eval_system(system, n_star)) == v
            assert all(max(eval_system(system, n)) > v for n in range(1, n_star))

    def test_cap(self):
        with pytest.raises(HorizonCapError):
            brute_force_min(sys1(["1/2"]), 10 ** 7, enum_cap=10 ** 3)


class TestHitCount:
    def test_examples(self):
        assert hit_count(sys1(["1/2"]), Epsilons((Fraction(3, 10),)), 5) == (2, 2)
        assert hit_count(sys1(["0"]), Epsilons((Fraction(1, 10),)), 10) == (10, 1)
        # the count takes n <= x, the smallest hit n < x: n = 10 is only counted
        assert hit_count(sys1(["1/10"]), Epsilons((Fraction(1, 20),)), 10) == (1, None)

    def test_sqrt2_fixture(self):
        # frozen from the exhaustive scan
        s = sys1(["0", "sqrt(2)"])
        assert hit_count(s, Epsilons((Fraction(5, 100),)), 10 ** 4)[0] == 968

    def test_monotone_in_eps_and_x(self):
        rng = random.Random(5)
        for _ in range(10):
            system = sys1([str(Fraction(rng.randint(1, 20), rng.randint(1, 20)))
                           for _ in range(2)])
            e1 = Fraction(rng.randint(1, 20), 100)
            e2 = e1 + Fraction(rng.randint(0, 10), 100)
            e2 = min(e2, Fraction(1, 2))
            x = rng.randint(5, 200)
            assert hit_count(system, Epsilons((e1,)), x)[0] <= hit_count(system, Epsilons((e2,)), x)[0]
            assert hit_count(system, Epsilons((e1,)), x)[0] <= hit_count(system, Epsilons((e1,)), x + 37)[0]

    def test_first_hit_agrees(self):
        s = sys1(["1/2"])
        eps = Epsilons((Fraction(3, 10),))
        assert first_hit(s, eps, 5) == 2
        assert first_hit(sys1(["1/3"]), Epsilons((Fraction(1, 10),)), 3) is None


class TestTypes:
    def test_real_hash_follows_equality(self):
        exact = Real(Fraction(1, 2))
        inexact = Real(Fraction(1, 2), err=Fraction(1, 2 ** 192))
        assert exact == inexact
        assert hash(exact) == hash(inexact)
        assert len({exact, inexact}) == 1

    def test_real_is_exact_iff_radius_zero(self):
        for err in (Fraction(0), Fraction(1, 2 ** 192), Fraction(1, 3)):
            assert Real(Fraction(1, 2), err=err).exact == (err == 0)
        assert parse_scalar("sqrt(9)/2").exact
        assert not parse_scalar("sqrt(2)").exact

    def test_state_horizon_is_a_fraction(self):
        eps = Epsilons((Fraction(1, 100),))
        s = SystemState(sys1(["1/2"]), eps, Real(Fraction(100)))
        assert type(s.y) is Fraction and s.y == 100
        assert type(SystemState(sys1(["1/2"]), eps, 7).y) is Fraction
        assert all(type(e) is Fraction for e in s.eps.eps)
        with pytest.raises(ValueError):
            SystemState(sys1(["1/2"]), eps, parse_scalar("sqrt(200)"))

    def test_epsilons_validation(self):
        with pytest.raises(ValueError):
            Epsilons((Fraction(0),))
        with pytest.raises(ValueError):
            Epsilons((Fraction(3, 4),))
        e = Epsilons((Fraction(1, 2), Fraction(1, 200)))
        assert e.delta_product == Fraction(1, 400)
        assert not e.within_theorem_hypothesis
        assert Epsilons((Fraction(1, 100),)).within_theorem_hypothesis

    def test_system_shape_checks(self):
        with pytest.raises(ValueError):
            PolySystem((Poly.from_strings(["1/2"]), Poly.from_strings(["0", "1/2"])))
        with pytest.raises(ValueError):
            SystemState(sys1(["1/2"]), Epsilons((Fraction(1, 10), Fraction(1, 10))),
                        Real(Fraction(10)))
