from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracparts.denomstruct import (
    DEFAULT_FILTER_DELTA,
    DenominatorCluster,
    EmptyInputError,
    cluster_by_denominator,
    dominant_divisor_filter,
    gcd_graph,
    rfold_sum_count,
)
from fracparts.diophantine import RelationTriple


def triple(q_vec, h=None, a=None):
    d = len(q_vec)
    a = a or tuple(1 if q > 1 else 0 for q in q_vec)
    return RelationTriple(a=tuple(a), q=tuple(q_vec),
                          h=h or (len(q_vec),), residuals=(Fraction(0),) * d)


def triples_from_fracs(fracs):
    out = []
    for i, f in enumerate(fracs):
        out.append(RelationTriple(a=(f.numerator,), q=(f.denominator,),
                                  h=(i + 1,), residuals=(Fraction(0),)))
    return out


class TestCluster:
    def test_majority_single_slot(self):
        rels = [triple((2,), h=(1,)), triple((2,), h=(2,)), triple((3,), h=(3,))]
        c = cluster_by_denominator(rels)
        assert c.q0 == (2,)
        assert len(c.members) == 2

    def test_two_slot_greedy(self):
        rels = [triple((2, 3), h=(1,)), triple((2, 5), h=(2,)), triple((2, 3), h=(3,))]
        c = cluster_by_denominator(rels)
        assert c.q0 == (2, 3)
        assert len(c.members) == 2
        assert c.q_merged == 6

    def test_singleton(self):
        rels = [triple((5, 7), h=(1,))]
        c = cluster_by_denominator(rels)
        assert c.q0 == (5, 7) and len(c.members) == 1

    def test_tie_prefers_smaller_q(self):
        rels = [triple((2,), h=(1,)), triple((3,), h=(2,))]
        assert cluster_by_denominator(rels).q0 == (2,)

    def test_idempotent(self):
        rels = [triple((2, 3), h=(1,)), triple((2, 5), h=(2,)), triple((2, 3), h=(3,))]
        once = cluster_by_denominator(rels)
        twice = cluster_by_denominator(once.members)
        assert twice.q0 == once.q0 and twice.members == once.members

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            cluster_by_denominator([])
        with pytest.raises(EmptyInputError):
            DenominatorCluster(q0=(2,), members=[])


class TestGcdGraph:
    def test_example(self):
        assert gcd_graph([4, 6, 9], 2) == [(0, 1), (1, 2)]

    def test_coprime_primes(self):
        assert gcd_graph([2, 3, 5, 7, 11], 2) == []

    def test_second_pass_agreement(self):
        import random
        rng = random.Random(41)
        B = [rng.randint(1, 10 ** 4) for _ in range(100)]
        edges = gcd_graph(B, 10)
        # independent recomputation via fraction reduction instead of math.gcd
        again = []
        for i in range(len(B)):
            for j in range(i + 1, len(B)):
                g = B[j] // Fraction(B[i], B[j]).denominator
                if g >= 10:
                    again.append((i, j))
        assert edges == again


class TestDivisorFilter:
    def test_4_8_12(self):
        res = dominant_divisor_filter([4, 8, 12], Fraction(1, 400))
        assert res.d0 == 4
        assert res.filtered == [1, 2, 3]
        assert res.trace == [2, 2]

    def test_coprime_unchanged(self):
        res = dominant_divisor_filter([3, 5, 7, 11], Fraction(1, 400))
        assert res.d0 == 1 and res.filtered == [3, 5, 7, 11] and res.trace == []

    def test_6_6_6(self):
        res = dominant_divisor_filter([6, 6, 6], Fraction(1, 400))
        assert res.d0 == 6 and res.filtered == [1, 1, 1] and res.trace == [2, 3]

    def test_d0_divides_retained_originals(self):
        import random
        rng = random.Random(43)
        for _ in range(20):
            B = [rng.randint(1, 500) for _ in range(rng.randint(1, 12))]
            res = dominant_divisor_filter(B, DEFAULT_FILTER_DELTA)
            survivors = [res.d0 * f for f in res.filtered]
            for s in survivors:
                assert s in B or s % res.d0 == 0
            # replaying the trace reproduces the result exactly
            cur, d0 = list(B), 1
            for ell in res.trace:
                d0 *= ell
                cur = [b // ell for b in cur if b % ell == 0]
            assert d0 == res.d0 and cur == res.filtered

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 12).flatmap(lambda g: st.lists(
               st.one_of(st.integers(1, 60), st.integers(1, 5000)).map(lambda b: g * b),
               min_size=1, max_size=12)),
           st.sampled_from([Fraction(1, 400), Fraction(1, 201), Fraction(1, 10 ** 6)]))
    def test_matches_full_ell_search(self, B, delta):
        """The divisor search picks what trying every ell up to max(B) picks."""
        current, d0, trace = list(B), 1, []
        exp = float(delta / 10)
        while True:
            m = max(current)
            found = None
            size = len(current)
            for ell in range(2, m + 1):
                count = sum(1 for b in current if b % ell == 0)
                if count >= size / ell ** exp:
                    found = ell
                    break
            if found is None:
                break
            d0 *= found
            trace.append(found)
            current = [b // found for b in current if b % found == 0]
        res = dominant_divisor_filter(B, delta)
        assert (res.d0, res.filtered, res.trace) == (d0, current, trace)

    def test_delta_range_enforced(self):
        with pytest.raises(ValueError):
            dominant_divisor_filter([2, 4], Fraction(1, 100))


class TestRfoldSums:
    def test_half_third(self):
        rels = triples_from_fracs([Fraction(1, 2), Fraction(1, 3)])
        assert rfold_sum_count(rels, 2, 1) == 3

    def test_three_fracs(self):
        rels = triples_from_fracs([Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)])
        assert rfold_sum_count(rels, 2, 1) == 6

    def test_single_relation(self):
        rels = triples_from_fracs([Fraction(1, 2)])
        assert rfold_sum_count(rels, 3, 1) == 1

    def test_first_primes_expansion(self):
        primes = []
        n = 2
        while len(primes) < 20:
            if all(n % p for p in primes):
                primes.append(n)
            n += 1
        rels = triples_from_fracs([Fraction(1, p) for p in primes])
        m = len(primes)
        assert rfold_sum_count(rels, 2, 1) == m * (m + 1) // 2

    def test_cap(self):
        rels = triples_from_fracs([Fraction(1, p) for p in (2, 3, 5, 7, 11)])
        with pytest.raises(OverflowError):
            rfold_sum_count(rels, 4, 1, cap=10)
