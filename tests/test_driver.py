import dataclasses
import json
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies

from fracparts.core import (
    Epsilons,
    Poly,
    PolySystem,
    Real,
    SystemState,
    _checkpointed_min,
    brute_force_min,
    eval_system,
    first_hit,
    hit_count,
)
from fracparts.driver import (
    STATUS_FOUND,
    STATUS_NOT_FOUND,
    SolverConfig,
    draw_system,
    measure_exponent,
    solve,
)
from fracparts.latgeom import quasi_orthogonal_generators
from fracparts.reduction import (
    Certificate,
    LiftVerificationError,
    check_hit,
    verify_certificate,
)
from fracparts.serialize import (
    SystemFileError,
    certificate_bytes,
    parse_system_file,
)
from fraction_oracle import frac_dist


def sys1(*coeff_lists):
    return PolySystem(tuple(Poly.from_strings(list(c)) for c in coeff_lists))


def state_of(system, eps_list, x):
    return SystemState(system, Epsilons(tuple(eps_list)), Real(Fraction(x)))


FORCED = SolverConfig(c_hit=1e9, brute_force_threshold=32)


def dup_sqrt2_state(x):
    return state_of(sys1(["0", "sqrt(2)"], ["0", "sqrt(2)"]),
                    [Fraction(1, 20), Fraction(1, 20)], x)


class TestSolve:
    def test_trivial_half(self):
        st = state_of(sys1(["1/2"]), [Fraction(1, 100)], 10)
        out = solve(st)
        assert out.status == STATUS_FOUND and out.n == 2

    def test_not_found_is_ground_truth(self):
        st = state_of(sys1(["1/3"]), [Fraction(1, 100)], 3)
        out = solve(st)
        assert out.status == STATUS_NOT_FOUND
        assert out.certificate.terminal["kind"] == "exhausted"

    def test_duplicates_found_and_oracle_consistent(self):
        s = sys1(["0", "sqrt(2)"], ["0", "sqrt(2)"])
        st = state_of(s, [Fraction(1, 20), Fraction(1, 20)], 10 ** 4)
        out = solve(st)
        assert out.status == STATUS_FOUND
        dists = eval_system(s, out.n)
        assert all(dv < Fraction(1, 20) for dv in dists)
        _n_star, v = brute_force_min(s, 10 ** 4)
        assert v < Fraction(1, 20)  # the oracle agrees a hit exists

    def test_duplicates_forced_through_reduction(self):
        out = solve(dup_sqrt2_state(10 ** 5), FORCED)
        assert out.status == STATUS_FOUND
        assert out.stats.reductions >= 1
        assert len(out.certificate.chain) >= 1
        checks = verify_certificate(out.certificate)
        assert all(ok for _n, ok, _d in checks)

    def test_chain_step_records_fixed_constants(self):
        # a step records its generators (without the region they were
        # searched in), the fixed q0 = 1, D2 and the child's hit; replay
        # derives everything else from the parent
        out = solve(dup_sqrt2_state(10 ** 5), FORCED)
        assert out.certificate.chain
        for record in out.certificate.chain:
            assert set(record) == {"gens", "q0", "D2", "child_hit"}
            assert set(record["gens"]) == {"h_vecs", "a_vecs"}
            assert record["q0"] == 1
        config = out.certificate.constants["config"]
        assert SolverConfig.from_dict(config) == FORCED

    @pytest.mark.parametrize("config", [SolverConfig(), FORCED])
    def test_config_record_is_a_copy_of_its_fields(self, config):
        # the certificate's constants: dataclasses.asdict's dict, key order
        # included, and one that a reader may change without moving config
        record = config.to_dict()
        assert list(record.items()) == list(dataclasses.asdict(config).items())
        record["seed"] += 1
        assert config.to_dict() != record

    def test_one_certificate_per_solve(self, monkeypatch):
        # the levels below the root return plain values; only solve writes
        # the certificate, once, on the root
        built = []

        def counted(*args, **kwargs):
            built.append(1)
            return Certificate(*args, **kwargs)

        monkeypatch.setattr("fracparts.driver.Certificate", counted)
        out = solve(dup_sqrt2_state(10 ** 5), FORCED)
        assert len(out.certificate.chain) >= 1 and out.stats.max_depth_reached >= 1
        assert len(built) == 1

    def test_chain_found_n_checked_once_on_the_root(self, monkeypatch):
        # the depth-0 lift checks n on the root, and solve reuses its dists
        st = dup_sqrt2_state(10 ** 5)
        on_root = []

        def counted(system, n):
            if system is st.system:
                on_root.append(n)
            return eval_system(system, n)

        monkeypatch.setattr("fracparts.reduction.eval_system", counted)
        out = solve(st, FORCED)
        assert out.status == STATUS_FOUND and out.certificate.chain
        assert on_root == [out.n]
        assert out.certificate.terminal["dists"] == [str(dv) for dv in eval_system(st.system, out.n)]

    def test_final_check_names_the_missed_tolerance(self, monkeypatch):
        # n = 1 meets tolerance 0 (f_1 = 0) and misses tolerance 1 (||1/2|| = 1/2)
        monkeypatch.setattr("fracparts.driver.first_hit", lambda *_a, **_k: 1)
        st = state_of(sys1(["0"], ["1/2"]), [Fraction(1, 10)] * 2, 10)
        with pytest.raises(LiftVerificationError) as info:
            solve(st)
        assert info.value.index == 1
        assert info.value.dist == Fraction(1, 2) and info.value.bound == Fraction(1, 10)

    def test_reduction_needs_no_box_scan_or_relations(self, monkeypatch):
        # the generators come from the relation lattice alone, so the Fourier
        # box scan and relation reconstruction stay off the path.  Their
        # helpers _half_box and best_rational are module globals, so patching
        # them also catches a caller that imported either stage by name.
        def unreachable(*_args, **_kwargs):
            raise AssertionError("off the solve path")

        monkeypatch.setattr("fracparts.diophantine._half_box", unreachable)
        monkeypatch.setattr("fracparts.diophantine.build_relations", unreachable)
        monkeypatch.setattr("fracparts.diophantine.best_rational", unreachable)
        out = solve(dup_sqrt2_state(10 ** 5), FORCED)
        assert out.status == STATUS_FOUND
        assert len(out.certificate.chain) >= 1
        assert all(ok for _n, ok, _d in verify_certificate(out.certificate))

    def test_gate_pass_answers_the_level(self, monkeypatch):
        # a level scans its horizon at most once.  Where the gate counts
        # (the default c_hit), the count's pass finds the smallest hit; where
        # its threshold is out of reach (FORCED's c_hit = 1e9), it counts
        # nothing, and the level scans with first_hit once its reduction fails
        dense = state_of(sys1(["0", "sqrt(2)"]), [Fraction(1, 20)], 10 ** 4)
        sparse = state_of(sys1(["1/2000"]), [Fraction(1, 5000)], 1000)
        failed = state_of(sys1(["sqrt(2)"], ["sqrt(3)"]), [Fraction(1, 20)] * 2, 1000)
        expected = [first_hit(st.system, st.eps, st.y) for st in (dense, failed)]
        scans = []

        def logged(name, scan):
            def wrapper(*args, **kwargs):
                scans.append(name)
                return scan(*args, **kwargs)
            return wrapper

        monkeypatch.setattr("fracparts.expsum.hit_count", logged("hit_count", hit_count))
        monkeypatch.setattr("fracparts.driver.first_hit", logged("first_hit", first_hit))
        out = solve(dense)
        assert out.stats.fourier_branches == ["hit-density"]
        assert (out.status, out.n) == (STATUS_FOUND, expected[0])
        assert scans == ["hit_count"]
        scans.clear()
        # no hit below x: the gate counts none and takes the large-coefficients
        # branch, and its count stands for the level's scan
        out = solve(sparse)
        assert out.stats.fallbacks == ["reduction:k=1"]
        assert (out.status, out.n) == (STATUS_NOT_FOUND, None)
        assert scans == ["hit_count"]
        scans.clear()
        out = solve(failed, FORCED)
        assert "reduction-path-exhausted" in out.stats.fallbacks
        assert (out.status, out.n) == (STATUS_FOUND, expected[1])
        assert out.certificate.chain == []
        assert scans == ["first_hit"]

    def test_unreachable_threshold_skips_the_count(self, monkeypatch):
        # under FORCED no count can reach c_hit * Delta * floor(x), so no gate
        # counts, and a level whose chain lifts scans nothing itself
        st = dup_sqrt2_state(10 ** 5)
        scanned = []

        def uncounted(*_args, **_kwargs):
            raise AssertionError("the gate counted the hits")

        def logged(system, *args, **kwargs):
            scanned.append(system)
            return first_hit(system, *args, **kwargs)

        monkeypatch.setattr("fracparts.expsum.hit_count", uncounted)
        monkeypatch.setattr("fracparts.driver.first_hit", logged)
        out = solve(st, FORCED)
        assert out.status == STATUS_FOUND and out.certificate.chain
        assert out.stats.fourier_branches[0] == "large-coefficients"
        assert st.system not in scanned
        assert all(ok for _n, ok, _d in verify_certificate(out.certificate))

    def test_zero_c_hit_still_finds_a_late_first_hit(self):
        # c_hit = 0 puts the gate's threshold at 0, which the count reaches
        # before its first chunk ends; the count still runs on until a hit
        # n < x is known, so the only one, n = 101, past that chunk, is found
        st = state_of(sys1(["1/101"]), [Fraction(1, 300)], 200)
        out = solve(st, SolverConfig(c_hit=0))
        assert out.stats.fourier_branches == ["hit-density"]
        assert (out.status, out.n) == (STATUS_FOUND, 101)
        assert all(ok for _n, ok, _d in verify_certificate(out.certificate))

    @pytest.mark.parametrize("excess", [0, 1])
    def test_skipped_count_keeps_the_cap_check(self, excess):
        # the gate checks the cap on the floor(x) points its count would
        # scan, not on the ceil(x) - 1 a level's scan takes: with a cap in
        # [(x - 1) k, x k) the gate gives way to the level's scan, which fits
        x, k = 1000, 2
        cap = x * k - 1 - excess
        st = dup_sqrt2_state(x)
        out = solve(st, dataclasses.replace(FORCED, enum_cap=cap))
        assert out.stats.fallbacks == [f"fourier:scan of {x} points x {k} polys exceeds cap {cap}"]
        assert out.stats.fourier_branches == []
        assert (out.status, out.n) == (STATUS_FOUND, first_hit(st.system, st.eps, st.y))
        assert out.certificate.chain == []
        assert out.stats.evaluations == out.n

    def test_gate_counts_the_horizon_but_returns_hits_below_it(self):
        # f = X/100 hits only at n = 100 = x: the gate counts it, so the level
        # takes the hit-density branch, but no n < x is a hit
        st = state_of(sys1(["1/100"]), [Fraction(1, 200)], 100)
        out = solve(st)
        assert out.stats.fourier_branches == ["hit-density"]
        assert out.status == STATUS_NOT_FOUND and out.n is None
        assert out.certificate.terminal["reason"] == (
            "hit-density scan; exhaustive scan found no hit")
        assert out.stats.evaluations == 99

    def test_k1_level_does_not_reduce(self, monkeypatch):
        # one r = 2 step takes k = 3 to k = 1; the child has no polynomial to
        # leave behind, so only the root searches for generators
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].k)
            return quasi_orthogonal_generators(*args, **kwargs)

        monkeypatch.setattr("fracparts.driver.quasi_orthogonal_generators", counted)
        st = state_of(sys1(["sqrt(2)"], ["sqrt(2)"], ["sqrt(2)"]), [Fraction(1, 9)] * 3,
                      10 ** 4)
        out = solve(st, FORCED)
        assert (out.status, out.n) == (STATUS_FOUND, 70)
        assert [len(step["gens"]["h_vecs"]) for step in out.certificate.chain] == [2]
        assert calls == [3]
        assert out.stats.fallbacks == ["reduction:k=1"]
        assert all(ok for _n, ok, _d in verify_certificate(out.certificate))

    def test_k1_root_records_its_fallback(self):
        st = state_of(sys1(["0", "sqrt(2)"]), [Fraction(1, 20)], 10 ** 4)
        out = solve(st, FORCED)
        assert out.stats.fallbacks == ["reduction:k=1"]
        assert out.status == STATUS_FOUND and out.n == first_hit(st.system, st.eps, st.y)

    def test_precision_error_is_a_fallback(self):
        # at d = 12 the 192-bit radius of sqrt(2) is too coarse for the
        # relation lattice, so the reduction gives way to the level's scan
        c = ["0"] * 11 + ["sqrt(2)"]
        st = state_of(sys1(c, c), [Fraction(1, 20)] * 2, 2 * 10 ** 4)
        out = solve(st, FORCED)
        assert out.status == STATUS_FOUND
        assert out.n == first_hit(st.system, st.eps, st.y)
        assert out.stats.fallbacks == ["reduction:PrecisionError",
                                       "reduction-path-exhausted"]
        assert all(ok for _n, ok, _d in verify_certificate(out.certificate))

    def test_single_sqrt2_square(self):
        s = sys1(["0", "sqrt(2)"])
        st = state_of(s, [Fraction(1, 20)], 10 ** 4)
        out = solve(st)
        assert out.status == STATUS_FOUND
        assert max(eval_system(s, out.n)) < Fraction(1, 20)

    def test_determinism_byte_identical(self):
        s = sys1(["0", "sqrt(2)"], ["0", "sqrt(2)"])
        st = state_of(s, [Fraction(1, 20), Fraction(1, 20)], 10 ** 4)
        a = solve(st, FORCED)
        b = solve(st, FORCED)
        assert certificate_bytes(a.certificate) == certificate_bytes(b.certificate)

    def test_depth_bounded_by_k_minus_1(self):
        s = sys1(["0", "sqrt(2)"], ["0", "sqrt(2)"], ["0", "sqrt(3)"])
        st = state_of(s, [Fraction(1, 12)] * 3, 2 * 10 ** 4)
        out = solve(st, FORCED)
        assert out.status == STATUS_FOUND
        assert out.stats.max_depth_reached <= st.k - 1

    def test_large_delta_falls_back_to_scan(self):
        # Delta = 1/2 > 1/4 makes the dichotomy precondition fail; the solver
        # must still produce ground truth via the scan fallback
        st = state_of(sys1(["1/2"]), [Fraction(1, 2)], 1000)
        out = solve(st, SolverConfig(brute_force_threshold=8))
        assert out.status == STATUS_FOUND and out.n == 2  # ||1/2|| < 1/2 is strict
        assert any(f.startswith("fourier:") for f in out.stats.fallbacks)

    def test_inconclusive_when_over_cap(self):
        st = state_of(sys1(["0", "sqrt(2)"]), [Fraction(1, 1000)], 10 ** 7)
        out = solve(st, SolverConfig(enum_cap=10 ** 4, brute_force_threshold=8))
        assert out.status == "inconclusive"
        assert out.certificate.terminal["kind"] == "exhausted"

    def test_hypothesis_flag_recorded(self):
        st = state_of(sys1(["1/2"]), [Fraction(1, 5)], 50)
        out = solve(st)
        assert out.certificate.constants["within_theorem_hypothesis"] is False
        st2 = state_of(sys1(["1/2"]), [Fraction(1, 200)], 50)
        out2 = solve(st2)
        assert out2.certificate.constants["within_theorem_hypothesis"] is True

    def test_found_always_reverifies(self):
        # a batch of small random-rational systems: found => exact tolerance
        import random
        rng = random.Random(55)
        for _ in range(15):
            k = rng.randint(1, 2)
            s = sys1(*[[str(Fraction(rng.randint(0, 30), rng.randint(1, 30)))
                        for _ in range(2)] for _ in range(k)])
            eps = [Fraction(rng.randint(2, 10), 100)] * k
            st = state_of(s, eps, rng.randint(50, 400))
            out = solve(st)
            if out.status == STATUS_FOUND:
                dists = eval_system(s, out.n)
                assert all(dv < e for dv, e in zip(dists, eps))
            else:
                assert hit_count(s, Epsilons(tuple(eps)), st.y - 1)[0] == 0


_rational = strategies.builds(lambda p, q: str(Fraction(p, q)),
                             strategies.integers(0, 30), strategies.integers(1, 30))


@strategies.composite
def small_rational_states(draw):
    k = draw(strategies.integers(1, 3))
    d = draw(strategies.integers(1, 2))
    coeffs = [[draw(_rational) for _ in range(d)] for _ in range(k)]
    if k > 1 and draw(strategies.booleans()):
        coeffs[-1] = coeffs[0]  # a planted dependency, for the reduction
    system = sys1(*coeffs)
    eps = [Fraction(1, draw(strategies.integers(3, 40))) for _ in range(k)]
    return state_of(system, eps, draw(strategies.integers(2, 2000)))


@pytest.mark.parametrize("config", [SolverConfig(), FORCED], ids=["default", "forced"])
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(state=small_rational_states())
def test_solve_agrees_with_first_hit(state, config):
    # a differential test against the scan: not-found iff no hit below x,
    # and a found n is below x, exact, and the smallest hit unless lifted
    out = solve(state, config)
    hit = first_hit(state.system, state.eps, state.y)
    assert out.status in (STATUS_FOUND, STATUS_NOT_FOUND)
    assert (out.status == STATUS_NOT_FOUND) == (hit is None)
    if out.status == STATUS_FOUND:
        assert out.n < state.y
        check_hit(state.system, state.eps, out.n)
        if not out.certificate.chain:
            assert out.n == hit


class TestMeasureExponent:
    def test_zero_generator_flagged(self):
        rows, summary = measure_exponent("zero", 1, 2, [100, 1000], trials=2)
        assert all(r.flagged for r in rows)
        assert all(r.min_max_dist == 0 for r in rows)
        assert math.isnan(summary["median_exponent"])

    def test_monomial_d1_near_one(self):
        # min ||alpha n|| over n < x behaves like 1/x for generic alpha
        rows, summary = measure_exponent("monomial", 1, 1, [10 ** 3, 10 ** 4, 10 ** 5],
                                         trials=9, config=SolverConfig(seed=3))
        assert summary["median_exponent"] > 0.6

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_monomial_d1_rows_match_per_n_reference(self, k):
        # d = 1 sieves with its return map, rebuilt as the running minimum
        # lowers the threshold; the minimum and its argmin at each horizon
        # against a per-n Fraction scan, the smallest n winning ties
        grid = [10 ** 3, 10 ** 4, 2 * 10 ** 4]
        rows, _summary = measure_exponent("monomial", k, 1, grid, trials=5)
        for trial in range(5):
            system = draw_system("monomial", k, 1, SolverConfig().seed, trial)
            alphas = [p.coeffs[0].value for p in system.polys]
            expected, n_star, best = {}, 0, Fraction(1)
            for n in range(1, grid[-1]):
                m = max(frac_dist(a * n) for a in alphas)
                if m < best:
                    n_star, best = n, m
                if n + 1 in grid:
                    expected[n + 1] = (n_star, best)
            assert _checkpointed_min(system, grid) == [expected[x] for x in grid]
            assert [r.min_max_dist for r in rows if r.trial_id == trial] == [
                expected[x][1] for x in grid]

    def test_rows_reproduce_oracle(self):
        rows, _summary = measure_exponent("full", 1, 2, [200, 400], trials=2,
                                          config=SolverConfig(seed=11))
        for row in rows:
            system = draw_system("full", row.k, row.d, row.seed, row.trial_id)
            _n, v = brute_force_min(system, row.x)
            assert v == row.min_max_dist

    def test_deterministic_under_seed(self):
        r1, s1 = measure_exponent("monomial", 2, 2, [100, 300], trials=3,
                                  config=SolverConfig(seed=5))
        r2, s2 = measure_exponent("monomial", 2, 2, [100, 300], trials=3,
                                  config=SolverConfig(seed=5))
        assert [r.csv_row() for r in r1] == [r.csv_row() for r in r2]
        assert s1 == s2

    def test_grid_must_ascend(self):
        with pytest.raises(ValueError):
            measure_exponent("monomial", 1, 1, [100, 100], trials=1)

    def test_grid_horizon_below_two_rejected(self):
        # x = 1 leaves no n < x, so there is no minimum to report
        with pytest.raises(ValueError):
            measure_exponent("monomial", 1, 2, [1, 100, 1000], trials=1)


_sign = strategies.sampled_from(["", "-", "+"])
_coeff_strings = strategies.one_of(
    strategies.builds("{}{}.{}".format, _sign, strategies.integers(0, 99),
                      strategies.from_regex(r"\A[0-9]{1,3}\Z")),
    strategies.builds("{}{}".format, _sign, strategies.integers(0, 10 ** 6)),
    strategies.builds("{}{}/{}".format, _sign, strategies.integers(0, 999),
                      strategies.integers(1, 999)),
    strategies.builds("{}sqrt({}){}".format, _sign, strategies.integers(0, 50),
                      strategies.sampled_from(["", "/1", "/3", "/8", "/12"])),
)
# tolerances in (0, 1/2] and horizons above 1, as decimals or p/q
_eps_strings = strategies.one_of(
    strategies.builds(lambda q, p: f"{p}/{q}", strategies.integers(2, 999),
                      strategies.integers(1, 499)).filter(
        lambda s: Fraction(s) <= Fraction(1, 2)),
    strategies.builds("0.{:03d}".format, strategies.integers(1, 500)),
)
_x_strings = strategies.one_of(
    strategies.builds(str, strategies.integers(2, 10 ** 9)),
    strategies.builds("{}/{}".format, strategies.integers(2, 10 ** 6),
                      strategies.integers(1, 7)).filter(lambda s: Fraction(s) > 1),
    strategies.builds("{}.{}".format, strategies.integers(1, 9999),
                      strategies.integers(1, 99)),
)


@strategies.composite
def system_dicts(draw):
    """System files over the whole coefficient grammar."""
    d = draw(strategies.integers(1, 3))
    k = draw(strategies.integers(1, 4))
    return {"d": d,
            "polys": [[draw(_coeff_strings) for _ in range(d)] for _ in range(k)],
            "eps": [draw(_eps_strings) for _ in range(k)],
            "x": draw(_x_strings)}


def _coeff_form(c: Real) -> str:
    return c.source if c.source is not None else str(c.value)


def emit_system(state: SystemState, path):
    """Write a system file that `parse_system_file` reads back as ``state``:
    each coefficient in its source form where it has one."""
    data = {
        "d": state.system.d,
        "polys": [[_coeff_form(c) for c in p.coeffs] for p in state.system.polys],
        "eps": [str(e) for e in state.eps.eps],
        "x": str(state.y),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, indent=2) + "\n")


class TestSystemFiles:
    def test_roundtrip_idempotent(self, tmp_path):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        p1.write_text(json.dumps({"d": 2, "polys": [["1/2", "sqrt(2)/3"]],
                                  "eps": ["0.01"], "x": "100"}))
        st1 = parse_system_file(p1)
        emit_system(st1, p2)
        st2 = parse_system_file(p2)
        assert st1.to_dict() == st2.to_dict()
        # second round trip is byte-stable
        p3 = tmp_path / "c.json"
        emit_system(st2, p3)
        assert p2.read_text() == p3.read_text()

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(system_dicts())
    def test_roundtrip_property(self, tmp_path, data):
        p1, p2, p3 = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
        p1.write_text(json.dumps(data))
        st1 = parse_system_file(p1)
        emit_system(st1, p2)
        st2 = parse_system_file(p2)
        assert st1 == st2 and st1.to_dict() == st2.to_dict()
        emit_system(st2, p3)
        assert p2.read_bytes() == p3.read_bytes()

    def test_minimal_valid(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"d":1,"polys":[["1/2"]],"eps":["0.01"],"x":"100"}')
        st = parse_system_file(p)
        assert st.k == 1 and st.system.d == 1

    def test_rejections(self, tmp_path):
        cases = [
            {"d": 0, "polys": [[]], "eps": [], "x": "10"},           # constant smuggle
            {"d": True, "polys": [["1/2"]], "eps": ["0.01"], "x": "10"},  # a bool, not 1
            {"d": 1, "polys": [["1/2", "1/3"]], "eps": ["0.01"], "x": "10"},
            {"d": 1, "polys": [["1/2"]], "eps": ["0.6"], "x": "10"},  # eps > 1/2
            {"d": 1, "polys": [["1/2"]], "eps": ["0"], "x": "10"},
            {"d": 1, "polys": [["1/2"]], "eps": ["0.01"], "x": "1"},
            {"d": 1, "polys": [["x+1"]], "eps": ["0.01"], "x": "10"},
            {"d": 1, "polys": [], "eps": [], "x": "10"},
            {"d": 1, "polys": [["1/2"]], "eps": ["sqrt(2)/100"], "x": "10"},  # irrational
            {"d": 1, "polys": [["1/2"]], "eps": ["0.01"], "x": "sqrt(5)"},
        ]
        for i, case in enumerate(cases):
            p = tmp_path / f"bad{i}.json"
            p.write_text(json.dumps(case))
            with pytest.raises(SystemFileError):
                parse_system_file(p)

    def test_exact_sqrt_thresholds_accepted(self, tmp_path):
        p = tmp_path / "e.json"
        p.write_text('{"d":1,"polys":[["1/2"]],"eps":["sqrt(4)/100"],"x":"sqrt(9)/2"}')
        st = parse_system_file(p)
        assert st.eps.eps == (Fraction(1, 50),) and st.y == Fraction(3, 2)

    def test_sqrt_grammar_inexact_flag(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text('{"d":1,"polys":[["sqrt(2)/1"]],"eps":["0.01"],"x":"50"}')
        st = parse_system_file(p)
        c = st.system.coeff(1, 1)
        assert not c.exact
        assert abs(c.value ** 2 - 2) < Fraction(1, 2 ** 180)
