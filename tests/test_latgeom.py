import math
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from fracparts.core import (
    Epsilons,
    Poly,
    PolySystem,
    Real,
    SystemState,
    coefficient_sums,
    parse_scalar,
)
from fracparts.intlinalg import det_bareiss, solve_integer
from fracparts.latgeom import (
    DependenceError,
    GeneratorSet,
    NoShortVector,
    PrecisionError,
    RELATION_GUARD_BITS,
    SingularH1Error,
    _integral_rows,
    build_relation_lattice,
    decisively_in_region,
    max_minor,
    quasi_orthogonal_generators,
    reduce_basis,
    relation_lattice_bits,
    scaled_h_rows,
    solution_lattice,
    subset_measures,
    wedge_norm,
    wedge_norm_sq,
)
from fracparts.reduction import DegenerateHorizonError, reduce_dimension
import fraction_oracle
from fraction_oracle import _dot, mat_mul, mat_vec
from lll_oracle import reduce_basis_integral, reduce_basis_reference, shortest_vector
from residue_oracles import lambda2_residue_count, lambda3_residue_count
from test_acceptance import PLANT_COUNT, PLANT_SEED, planted_state
from test_core import SYSTEM_KINDS, systems


def sys1(*coeff_lists):
    return PolySystem(tuple(Poly.from_strings(list(c)) for c in coeff_lists))


def rand_basis(rng, n, lo=-9, hi=9):
    while True:
        M = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        if det_bareiss(M) != 0:
            return M


def generators(lattice):
    """The rational generators of an (L, integer rows) lattice."""
    L, rows = lattice
    return [[Fraction(x, L) for x in row] for row in rows]


class TestWedge:
    def test_examples(self):
        assert wedge_norm([[1, 0], [0, 1]]) == 1
        assert wedge_norm([[3, 0], [0, 4]]) == 12
        assert wedge_norm([[1, 2], [2, 4]]) == 0

    def test_hadamard_exact(self):
        rng = random.Random(3)
        for _ in range(100):
            r, k = rng.randint(1, 3), rng.randint(3, 5)
            vecs = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                     for _ in range(k)] for _ in range(r)]
            wsq = wedge_norm_sq(vecs)
            prod = Fraction(1)
            for v in vecs:
                prod *= _dot(v, v)
            assert 0 <= wsq <= prod


class TestBuildLattice:
    def test_k1_d1_example(self):
        lat = build_relation_lattice(sys1(["1/2"]), [2], Fraction(1, 4))
        assert lat == (2, [[1, -4], [0, 8]])
        assert generators(lat) == [[Fraction(1, 2), Fraction(-2)],
                                   [Fraction(0), Fraction(4)]]

    def test_rational_entries_exact(self):
        lat = generators(build_relation_lattice(sys1(["1/3", "2/5"]), [3], Fraction(1, 10)))
        assert lat[0] == [Fraction(1, 3), Fraction(-10, 3), Fraction(-40)]
        assert lat[1] == [Fraction(0), Fraction(10), Fraction(0)]
        assert lat[2] == [Fraction(0), Fraction(0), Fraction(100)]

    def test_unimodular_invariance_of_gram_det(self):
        rng = random.Random(5)
        lat = generators(build_relation_lattice(sys1(["1/3", "2/5"]), [3], Fraction(1, 10)))
        gram = wedge_norm_sq(lat)
        # apply a random unimodular transform (row ops)
        rows = [list(r) for r in lat]
        for _ in range(20):
            i, j = rng.sample(range(len(rows)), 2)
            c = rng.randint(-3, 3)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        assert wedge_norm_sq(rows) == gram

    def test_precision_guard(self):
        coarse = Poly((parse_scalar("sqrt(2)", bits=8),))
        with pytest.raises(PrecisionError):
            build_relation_lattice(PolySystem((coarse,)), [2], Fraction(1, 100))
        # the guard reads the coefficient's own radius, which rounding to
        # 2^-b would hide: this value has a 2^300 denominator, so the
        # lattice rounds it, and radius eta^d / 2^19 is over the limit
        eta = Fraction(1, 100)
        value = Fraction(2 ** 300 // 3, 2 ** 300)
        scale = 2 ** relation_lattice_bits(1, 1, [2], eta)
        for err, refused in ((eta / 2 ** 19, True), (eta / 2 ** 20, False)):
            system = PolySystem((Poly((Real(value, err),)),))
            if refused:
                with pytest.raises(PrecisionError):
                    build_relation_lattice(system, [2], eta)
            else:
                assert generators(build_relation_lattice(system, [2], eta))[0][1] == (
                    -Fraction(round(value * scale), scale) / eta)

    def test_lattice_bits(self):
        # ceil(d log2(1/eta)) + bitlen(k ceil(max B)) + guard
        for k, d, B, eta, bits in ((1, 1, [2], Fraction(1, 100), 7 + 2),
                                   (1, 2, [3], Fraction(1, 10), 7 + 2),
                                   (4, 3, [5] * 4, Fraction(1, 18000), 43 + 5),
                                   (2, 1, [Fraction(5, 2), 2], Fraction(1, 4), 2 + 3)):
            assert relation_lattice_bits(k, d, B, eta) == bits + RELATION_GUARD_BITS

    def test_only_denominators_over_two_to_the_b_are_rounded(self):
        eta, B = Fraction(1, 10), [3]
        b = relation_lattice_bits(1, 2, B, eta)
        kept = Fraction(1, 2 ** b - 1)    # denominator <= 2^b: exact
        rounded = Fraction(1, 2 ** b + 1)  # nearest multiple of 2^-b is 2^-b
        # halfway between multiples of 2^-b: the tie goes to the even one
        ties = ((Fraction(1, 2 ** (b + 1)), Fraction(0)),
                (Fraction(-3, 2 ** (b + 1)), Fraction(-2, 2 ** b)))
        for beta, entry in ((kept, kept), (rounded, Fraction(1, 2 ** b)),
                            (Fraction(3, 2 ** b), Fraction(3, 2 ** b)), *ties):
            system = PolySystem((Poly((Real(beta), Real(beta))),))
            row = generators(build_relation_lattice(system, B, eta))[0]
            assert row == [Fraction(1, 3), -entry / eta, -entry / eta ** 2]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            build_relation_lattice(sys1(["1/2"]), [Fraction(1, 2)], Fraction(1, 10))
        with pytest.raises(ValueError):
            build_relation_lattice(sys1(["1/2"]), [2], Fraction(1, 2))


class TestReduceBasis:
    def test_orthogonal_unchanged_up_to_order_sign(self):
        reduced, _U = reduce_basis([[3, 0], [0, 2]])
        got = sorted(tuple(abs(x) for x in row) for row in reduced)
        assert got == [(0, 2), (3, 0)]

    def test_skew_2d(self):
        reduced, _U = reduce_basis([[1, 0], [10 ** 6, 1]])
        rows = {tuple(abs(v) for v in row) for row in reduced}
        assert rows == {(1, 0), (0, 1)}

    def test_random_5d_det_preserved_hadamard_improves(self):
        rng = random.Random(7)
        for _ in range(10):
            M = rand_basis(rng, 5)
            det_before = abs(det_bareiss(M))
            reduced, _U = reduce_basis(M)
            det_after = abs(det_bareiss(reduced))
            assert det_before == det_after
            prod_before = Fraction(1)
            prod_after = Fraction(1)
            for v, w in zip(M, reduced):
                prod_before *= _dot(v, v)
                prod_after *= _dot(w, w)
            assert prod_after <= prod_before  # orthogonality defect cannot worsen

    def test_transform_is_unimodular_and_maps(self):
        rng = random.Random(9)
        M = rand_basis(rng, 4)
        reduced, U = reduce_basis(M)
        assert abs(det_bareiss(U)) == 1
        assert mat_mul(U, M) == reduced

    def test_tie_and_lovasz_equality(self):
        # mu = 1/2 rounds to 0, and B_1 = 74 = (99/100 - 1/4) * 100 exactly: no swap
        rows = [[10, 0, 0], [5, 7, 5]]
        reduced, U = reduce_basis(rows)
        assert reduced == rows == reduce_basis_reference(rows)[0]
        assert U == [[1, 0], [0, 1]]

    @pytest.mark.parametrize("rows, expected", [
        # mu = -1/2 rounds to 0, mu = -3/2 to -2 (half to even); no swap follows
        ([[2, 0], [-1, 10]], [[2, 0], [-1, 10]]),
        ([[2, 0], [-3, 10]], [[2, 0], [1, 10]]),
    ])
    def test_negative_half_integer_mu(self, rows, expected):
        reduced, U = reduce_basis(rows)
        ref, ref_U = reduce_basis_reference(rows)
        assert reduced == ref == expected
        assert U == ref_U

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            reduce_basis([[1, 2], [3]])
        with pytest.raises(ValueError, match="same length"):
            wedge_norm([[1, 2], [3]])

    def test_dependence_rejected(self):
        with pytest.raises(DependenceError):
            reduce_basis([[1, 2], [2, 4]])

    def test_svp_starts_from_the_shortest_row(self):
        # reduced, and no vector is shorter than the second row (5, 7, 5)
        reduced, _U = reduce_basis([[10, 0, 0], [5, 7, 5]])
        vec, best_sq = shortest_vector(reduced)
        assert (vec, best_sq) == ([5, 7, 5], 99)

    def test_svp_validates_first_minimum(self):
        # ||b_1|| <= 2^((n-1)/2) lambda_1 for LLL at delta ~ 1; enumeration
        # provides the exact lambda_1
        rng = random.Random(13)
        for _ in range(8):
            n = rng.randint(2, 5)
            M = rand_basis(rng, n, -20, 20)
            reduced, _U = reduce_basis(M)
            _vec, best_sq = shortest_vector(reduced)
            first_sq = _dot(reduced[0], reduced[0])
            assert best_sq <= first_sq <= Fraction(2) ** (n - 1) * best_sq


_entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
_positive = st.builds(Fraction, st.integers(1, 9), st.integers(1, 3))


@st.composite
def lll_bases(draw):
    """Rational bases of dimension <= 7: random rows, or rows over an
    orthogonal basis with half-integer mu (ties for round); sometimes with a
    row repeated."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(n, 7))
    if draw(st.booleans()):
        rows = [[draw(_entry) for _ in range(m)] for _ in range(n)]
    else:
        scale = [draw(_positive) for _ in range(n)]
        rows = [[Fraction(2 * draw(st.integers(-3, 3)) + 1, 2) * scale[j] if j < i
                 else scale[i] if j == i else Fraction(0) for j in range(m)]
                for i in range(n)]
    if n > 1 and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 2))
        rows[i] = list(rows[j + (j >= i)])
    return rows


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(lll_bases())
def test_reduce_basis_matches_rational_reference(rows):
    L, scaled = _integral_rows(rows)
    try:
        ref, ref_U = reduce_basis_reference(rows)
    except DependenceError:
        with pytest.raises(DependenceError):
            reduce_basis(scaled)
        return
    reduced, U = reduce_basis(scaled)
    assert reduced == [[L * x for x in row] for row in ref]
    assert U == ref_U


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(lll_bases(), st.one_of(st.integers(2, 12), st.integers(2, 2 ** 80)))
def test_reduce_basis_is_scale_free(rows, c):
    """Integer rows times c reduce to c times the reduced rows by the same
    transform, or are dependent alike."""
    _L, rows = _integral_rows(rows)
    scaled = [[c * x for x in row] for row in rows]
    try:
        reduced, U = reduce_basis(rows)
    except DependenceError:
        with pytest.raises(DependenceError):
            reduce_basis(scaled)
        return
    assert reduce_basis(scaled) == ([[c * x for x in row] for row in reduced], U)


class LLLTimeout(Exception):
    pass


def lll_outcome(reduce, rows, seconds=2):
    """reduce(rows), or the class of the ValueError it raises.  LLLTimeout
    after `seconds`: an LLL whose Gram-Schmidt data has gone wrong may never
    stop, and these calls take milliseconds."""
    def expire(_signum, _frame):
        raise LLLTimeout(f"{reduce.__name__} gave no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return reduce(rows)
    except ValueError as exc:  # DependenceError included
        return type(exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def integer_bases(draw):
    """n = 0..8 integer rows with entries up to 2^300: random rows of m >= n
    entries, or knapsack rows (e_i, a_i), which take many swaps as the
    relation lattice does; sometimes with a zero row, a row that is a
    combination of the others, a duplicate row or a ragged row, at any
    position."""
    n = draw(st.integers(0, 8))
    bound = 2 ** draw(st.sampled_from([1, 4, 16, 64, 300]))
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        m = n + 1
        rows = [[int(i == j) for j in range(n)] + [rnd.randint(-bound, bound)]
                for i in range(n)]
    else:
        m = draw(st.integers(max(n, 1), 9))
        rows = [[rnd.randint(-bound, bound) for _ in range(m)] for _ in range(n)]
    # a third of the bases keep their rows as drawn
    kind = draw(st.sampled_from(["free", "free", "zero", "combination", "duplicate", "ragged"]))
    if n and kind != "free":
        i = draw(st.integers(0, n - 1))
        others = [t for t in range(n) if t != i]
        if kind == "ragged":
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + [1]
        elif kind == "zero" or not others:
            rows[i] = [0] * m
        else:
            if kind == "duplicate":
                coeffs = dict.fromkeys([draw(st.sampled_from(others))], 1)
            else:
                coeffs = {t: draw(st.integers(-3, 3)) for t in others}
            rows[i] = [sum(c * rows[t][col] for t, c in coeffs.items()) for col in range(m)]
    return rows


# the tie and Lovasz-equality bases of TestReduceBasis
@example([[10, 0, 0], [5, 7, 5]])
@example([[2, 0], [-1, 10]])
@example([[2, 0], [-3, 10]])
# no shrink phase: a wrong LLL may not stop, and every shrink step that
# hits such a basis would wait out lll_outcome's time limit
@settings(max_examples=500, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.generate],
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(integer_bases(), lll_bases().map(lambda rows: _integral_rows(rows)[1])))
def test_reduce_basis_matches_integral_oracle(rows):
    """The same (rows, U) as the integral LLL that updated every row in
    place, or the same exception class."""
    assert lll_outcome(reduce_basis, rows) == lll_outcome(reduce_basis_integral, rows)


def test_reduce_basis_matches_integral_oracle_on_planted_lattices():
    """The root relation lattices of the acceptance suite's planted systems."""
    rng = random.Random(PLANT_SEED)
    for _ in range(PLANT_COUNT):
        state = planted_state(rng)
        _L, rows = build_relation_lattice(state.system, *state.region)
        assert lll_outcome(reduce_basis, rows) == reduce_basis_integral(rows)


class TestQuasiOrthogonal:
    def test_k1_d1_example(self):
        g = quasi_orthogonal_generators(sys1(["1/2"]), [2], Fraction(1, 10),
                                        N_target=3, c_orth=0.05)
        assert isinstance(g, GeneratorSet)
        assert g.r == 1
        assert g.h_vecs == ((2,),) and g.a_vecs == ((1,),)

    def test_duplicate_cancellation_direction(self):
        s = sys1(["0", "sqrt(2)"], ["0", "sqrt(2)"])
        g = quasi_orthogonal_generators(s, [4, 4], Fraction(1, 200),
                                        N_target=9, c_orth=0.05)
        assert isinstance(g, GeneratorSet)
        assert g.r == 1
        (h,) = g.h_vecs
        assert sorted(h) == [-1, 1]
        assert g.a_vecs == ((0, 0),)
        ratio_sq, tilde_product = subset_measures(g.h_vecs, [4, 4])
        assert ratio_sq == 1 and tilde_product == Fraction(1, 4)

    def test_membership_reverified_random_rational(self):
        rng = random.Random(17)
        hits = 0
        for _ in range(20):
            k = rng.randint(1, 2)
            s = sys1(*[[str(Fraction(rng.randint(0, 12), rng.randint(1, 12)))]
                       for _ in range(k)])
            B = [rng.randint(2, 8) for _ in range(k)]
            eta = Fraction(1, rng.randint(150, 400))
            g = quasi_orthogonal_generators(s, B, eta, N_target=5, c_orth=0.05)
            if isinstance(g, NoShortVector):
                continue
            hits += 1
            for h, a in zip(g.h_vecs, g.a_vecs):
                assert decisively_in_region(s, h, a, B, eta)
        assert hits > 0

    def test_no_short_vector_outcome(self):
        # badly approximable direction with a tight box: nothing fits
        g = quasi_orthogonal_generators(sys1(["sqrt(2)"]), [1], Fraction(1, 10 ** 6),
                                        N_target=2, c_orth=0.05)
        assert isinstance(g, NoShortVector)

    def test_orth_ratio_threshold_respected(self):
        s = sys1(["0", "sqrt(2)"], ["0", "sqrt(2)"])
        g = quasi_orthogonal_generators(s, [4, 4], Fraction(1, 200),
                                        N_target=9, c_orth=0.5)
        if isinstance(g, GeneratorSet):
            assert subset_measures(g.h_vecs, [4, 4])[0] >= Fraction(1, 4)


_COEFF = {"rational": lambda draw: str(Fraction(draw(st.integers(0, 20)),
                                                 draw(st.integers(1, 20)))),
          "sqrt": lambda draw: (f"sqrt({draw(st.sampled_from([2, 3, 5, 7]))})"
                                f"/{draw(st.integers(1, 6))}")}


@st.composite
def generator_cases(draw):
    """Small systems with rational or sqrt coefficients, sometimes with a
    duplicated row (its relations tie the minors), searched either in a
    level's own region (`SystemState.region` of a drawn state, which
    `reduce_dimension` then uses) or under a free B with unequal, possibly
    fractional entries."""
    k = draw(st.integers(1, 3))
    d = draw(st.integers(1, 2))
    coeff = _COEFF[draw(st.sampled_from(sorted(_COEFF)))]
    rows = [[coeff(draw) for _ in range(d)] for _ in range(k)]
    if k > 1 and draw(st.booleans()):
        i = draw(st.integers(0, k - 1))
        j = draw(st.integers(0, k - 2))
        rows[i] = list(rows[j + (j >= i)])
    system = sys1(*rows)
    if draw(st.booleans()):
        eps = Epsilons(tuple(Fraction(1, draw(st.sampled_from([5, 9, 20, 50])))
                             for _ in range(k)))
        state = SystemState(system, eps, Real(Fraction(draw(st.integers(200, 5000)))))
        return system, *state.region, 3, 0.05, k - 1, state
    B = [Fraction(draw(st.integers(2, 24)), draw(st.integers(1, 2))) for _ in range(k)]
    eta = Fraction(1, draw(st.sampled_from([3, 10, 50, 200, 1000])))
    return (system, B, eta, draw(st.integers(2, 9)),
            draw(st.sampled_from([0.0, 0.05, 0.3, 0.7])),
            draw(st.sampled_from([None] + list(range(1, k + 1)))), None)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(generator_cases())
def test_generator_search_matches_fraction_reference(case):
    """The integer search picks what the Fraction search picks, and the
    reduction leads with the same columns."""
    system, B, eta, n_target, c_orth, max_r, state = case
    got = quasi_orthogonal_generators(system, B, eta, N_target=n_target,
                                      c_orth=c_orth, max_r=max_r)
    assert got == fraction_oracle.quasi_orthogonal_generators(
        system, B, eta, n_target, c_orth, max_r)
    if isinstance(got, NoShortVector):
        return
    perm = fraction_oracle.leading_perm(got.h_vecs, B, system.k)
    assert max_minor(scaled_h_rows(got.h_vecs, B)[1])[1] == perm[:got.r]
    if state is not None:
        try:
            assert reduce_dimension(state, got).perm == perm
        except DegenerateHorizonError:
            pass


class TestSublattice:
    @staticmethod
    def dets(H1, H2):
        D1, D2, Z = solution_lattice(H1, H2)
        return D1, D2, abs(det_bareiss(Z))

    def test_examples(self):
        assert self.dets([[2]], [[1]]) == (2, 1, 2)
        assert self.dets([[2]], [[0]]) == (2, 2, 1)
        assert self.dets([[1, 0], [0, 1]], [[7], [9]]) == (1, 1, 1)

    def test_singular_rejected(self):
        with pytest.raises(SingularH1Error):
            solution_lattice([[1, 1], [1, 1]], [[1], [1]])

    def test_identity_random_with_oracle(self):
        rng = random.Random(19)
        oracle_checked = 0
        for _ in range(120):
            r, ell = rng.randint(1, 3), rng.randint(1, 3)
            while True:
                H1 = [[rng.randint(-5, 5) for _ in range(r)] for _ in range(r)]
                if det_bareiss(H1) != 0:
                    break
            H2 = [[rng.randint(-5, 5) for _ in range(ell)] for _ in range(r)]
            D1, D2, Z = solution_lattice(H1, H2)
            det3 = abs(det_bareiss(Z))
            assert D1 == D2 * det3
            assert D1 % D2 == 0  # D2 | D1
            if D1 <= 30:
                c2 = lambda2_residue_count(H1, H2, D1)
                c3 = lambda3_residue_count(H1, H2, D1)
                assert D1 ** r == D2 * c2
                assert D1 ** ell == det3 * c3
                oracle_checked += 1
        assert oracle_checked > 20

    def test_solution_lattice_members_solve(self):
        rng = random.Random(23)
        for _ in range(40):
            r, ell = rng.randint(1, 3), rng.randint(1, 3)
            while True:
                H1 = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(r)]
                if det_bareiss(H1) != 0:
                    break
            H2 = [[rng.randint(-4, 4) for _ in range(ell)] for _ in range(r)]
            _D1, _D2, Z = solution_lattice(H1, H2)
            for col in range(ell):
                y = [Z[i][col] for i in range(ell)]
                t = mat_vec(H2, y)
                assert solve_integer(H1, [t]) != [None]


@st.composite
def b_prime_cases(draw):
    """r x k generator rows whose first r columns have a nonzero minor, and
    an integer a per row."""
    k = draw(st.integers(2, 5))
    r = draw(st.integers(1, k - 1))
    entry = st.integers(-6, 6)
    H = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=r, max_size=r)
             .filter(lambda rows: det_bareiss([row[:r] for row in rows]) != 0))
    a = draw(st.lists(st.integers(-50, 50), min_size=r, max_size=r))
    return [row[:r] for row in H], [row[r:] for row in H], a


@settings(max_examples=200, deadline=None, derandomize=True)
@given(b_prime_cases(), st.integers(1, 3))
def test_every_b_prime_slot_solves(case, j):
    """D2 Z^r lies in Lambda_2, the column lattice of [H1 | -H2], so the b'
    target D2^j a solves for every slot j >= 1.  With D2 - 1 in place of D2
    it solves only for a in Lambda_2, one a in D2."""
    H1, H2, a = case
    _D1, D2, _Z = solution_lattice(H1, H2)
    A = [h1 + [-v for v in h2] for h1, h2 in zip(H1, H2)]
    assert solve_integer(A, [[D2 ** j * v for v in a]]) != [None]


@st.composite
def rounded_lattice_cases(draw):
    """A state whose coefficients the relation lattice rounds: sqrt(m)/q
    approximants or p/q in lowest terms with 200-bit q, with one row
    sometimes a duplicate of another (a planted exact relation)."""
    k = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        def coeff():
            m = draw(st.integers(2, 10 ** 6).filter(lambda v: math.isqrt(v) ** 2 != v))
            return f"sqrt({m})/{draw(st.integers(1, 9))}"
    else:
        def coeff():
            den = draw(st.integers(2 ** 199, 2 ** 200))
            num = draw(st.integers(-den, den).filter(lambda v: math.gcd(v, den) == 1))
            return f"{num}/{den}"
    rows = [[coeff() for _ in range(d)] for _ in range(k)]
    duplicate = k > 1 and draw(st.booleans())
    if duplicate:
        i, j = draw(st.permutations(range(k)))[:2]
        rows[i] = list(rows[j])
    eps = Epsilons((Fraction(1, draw(st.sampled_from([5, 9, 20]))),) * k)
    return SystemState(sys1(*rows), eps, Real(Fraction(draw(st.integers(200, 9000))))), duplicate


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(rounded_lattice_cases())
def test_integer_lattice_matches_fraction_reference(case):
    """The integer rows are L times the Fraction generators, L their least
    common denominator."""
    state, _duplicate = case
    ref = fraction_oracle.build_relation_lattice(state.system, *state.region)
    assert build_relation_lattice(state.system, *state.region) == _integral_rows(ref)


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(rounded_lattice_cases())
def test_rounded_lattice_is_sound(case):
    """Generators found on the rounded lattice are region points of the
    unrounded system; each rounded coefficient is within 2^-(b+1) of its
    value; and the lattice's integer entries have about b + bitlen(max B) +
    d log2(1/eta) bits, far below the 192-bit approximants'."""
    state, duplicate = case
    system, (B, eta) = state.system, state.region
    k, d = system.k, system.d
    b = relation_lattice_bits(k, d, B, eta)
    L, rows = build_relation_lattice(system, B, eta)
    for i in range(k):
        for j in range(1, d + 1):
            beta = -Fraction(rows[i][k + j - 1], L) * eta ** j
            assert abs(beta - system.coeff(i + 1, j).value) <= Fraction(1, 2 ** (b + 1))
    top = max(abs(x) for row in rows for x in row)
    max_beta = max(abs(c.value) for poly in system.polys for c in poly.coeffs)
    bound = (b + math.lcm(*B).bit_length() + math.ceil(eta ** -d).bit_length()
             + math.ceil(max_beta).bit_length())
    assert top.bit_length() <= bound < 192
    got = quasi_orthogonal_generators(system, B, eta, N_target=3, c_orth=0.05, max_r=k - 1)
    if duplicate:
        assert isinstance(got, GeneratorSet)
    if isinstance(got, GeneratorSet):
        for h, a in zip(got.h_vecs, got.a_vecs):
            assert decisively_in_region(system, h, a, B, eta)


def _root_ceil(v: Fraction, j: int, bits: int = 32) -> Fraction:
    """The least multiple t of 2^-bits with t^j >= v."""
    target = math.ceil(v * 2 ** (bits * j))
    t = round(float(target) ** (1 / j))
    while t ** j < target:
        t += 1
    while t > 0 and (t - 1) ** j >= target:
        t -= 1
    return Fraction(t, 2 ** bits)


def _with_radius(system, i, j, err):
    """The system with coefficient (i, j) (0- and 1-indexed) given radius err."""
    polys = list(system.polys)
    coeffs = list(polys[i].coeffs)
    coeffs[j - 1] = Real(coeffs[j - 1].value, err)
    polys[i] = Poly(tuple(coeffs))
    return PolySystem(tuple(polys))


@st.composite
def region_cases(draw):
    """A system of each kind, a point (h, a) near the region, B and eta.
    With ``past`` 0 or 1, one coefficient's radius puts slot j0 exactly on
    |residual| + slack = eta^j0, or one unit of the integer test past it."""
    system = draw(st.sampled_from(SYSTEM_KINDS).flatmap(systems))
    k, d = system.k, system.d
    h = [draw(st.integers(-4, 4)) for _ in range(k)]
    a = [round(s.value) + draw(st.integers(-1, 1)) for s in coefficient_sums(system, h)]
    B = [draw(st.integers(1, 5)) for _ in range(k)]
    eta = draw(st.sampled_from([Fraction(1, 100), Fraction(1, 7), Fraction(1, 2),
                                Fraction(3, 4)]))
    past = draw(st.sampled_from([None, 0, 1]))
    if past is None or not any(h):
        return system, h, a, B, eta, None
    j0 = draw(st.integers(1, d))
    i0 = draw(st.sampled_from([i for i in range(k) if h[i]]))
    s = coefficient_sums(system, h)[j0 - 1]
    # the residual plus every slack but that of coefficient (i0, j0)
    need = abs(s.value - a[j0 - 1]) + s.err - abs(h[i0]) * system.coeff(i0 + 1, j0).err
    if eta ** j0 < need:
        eta = _root_ceil(need, j0)
    system = _with_radius(system, i0, j0, (eta ** j0 - need) / abs(h[i0]))
    if past:
        # one more unit of (|residual| + slack) q D R, with eta^j0 = p / q
        (D, _N), (R, _E) = system.numerators, system.radii
        unit = Fraction(1, (eta ** j0).denominator * D * R)
        err = system.coeff(i0 + 1, j0).err + unit / abs(h[i0])
        system = _with_radius(system, i0, j0, err)
    s = coefficient_sums(system, h)[j0 - 1]
    return system, h, a, B, eta, (abs(s.value - a[j0 - 1]) + s.err - eta ** j0, past)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(region_cases())
def test_region_test_matches_fraction_reference(case):
    """The integer region test decides as the Fraction one, on and one unit
    past the boundary of a slot too."""
    system, h, a, B, eta, edge = case
    got = decisively_in_region(system, h, a, B, eta)
    assert got == fraction_oracle.decisively_in_region(system, h, a, B, eta)
    if edge is not None:
        over, past = edge
        assert (over == 0) if past == 0 else (over > 0 and not got)
