"""Each reference check accepts a true result and rejects a tampered one.

    python3 -m pytest perfbench/test_checks.py -q

Run from the root of a checkout (the solver is imported from src/).
"""

import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from checks import UNDECIDED, WRONG, Reference  # noqa: E402
from workloads import Sqrt  # noqa: E402

THIRD = Reference([[(Fraction(1, 3),)]], [Fraction(1, 10)], Fraction(20))  # f(n) = n/3


def test_found_rejects_a_wrong_n():
    assert checks.check_found(THIRD, 3) is None
    for bad in (4, 0, 20, 21, 3.0):
        assert checks.check_found(THIRD, bad).kind == WRONG


def test_sqrt_terms_are_enclosed_and_an_undecided_enclosure_fails():
    # ||5 sqrt(2)|| = 0.0710...: a hit for eps = 1/10, a miss for eps = 1/20
    root2 = [[(Sqrt(1, 2, 1),)]]
    assert checks.check_found(Reference(root2, [Fraction(1, 10)], Fraction(9)), 5) is None
    assert checks.check_found(Reference(root2, [Fraction(1, 20)], Fraction(9)), 5).kind == WRONG
    coarse = Reference(root2, [Fraction(1, 10)], Fraction(9), prec=2)
    assert checks.check_found(coarse, 5).kind == UNDECIDED
    # sqrt(2) - sqrt(2) is exactly 0, so every n is a hit
    zero = Reference([[(Sqrt(1, 2, 3), Sqrt(-1, 2, 3))]], [Fraction(1, 100)], Fraction(9))
    assert all(zero.hit(n) for n in range(1, 9))


def test_smallest_rejects_a_hit_that_is_not_the_first():
    assert checks.check_smallest(THIRD, 3) is None
    assert checks.check_smallest(THIRD, 6).kind == WRONG


def test_not_found_rejects_a_horizon_with_a_hit():
    below_three = Reference([[(Fraction(1, 3),)]], [Fraction(1, 10)], Fraction(3))
    assert checks.check_not_found(below_three) is None
    assert checks.check_not_found(THIRD).kind == WRONG


def test_trial_rejects_an_altered_minimum_and_a_rising_grid():
    grid = (50, 100, 200)
    nums = checks.monomial_numerators(2, 2, seed=5)
    mins = checks.naive_minima(nums, 2, grid)
    assert checks.check_trial(grid, mins, nums, 2, full=True) is None
    nudged = [mins[0], mins[1], mins[2] - Fraction(1, 2 ** 192)]
    assert checks.check_trial(grid, nudged, nums, 2, full=True).kind == WRONG
    assert checks.check_trial(grid, nudged, nums, 2, full=False) is None  # first point only
    first = [mins[0] + Fraction(1, 2 ** 192)] + mins[1:]
    assert checks.check_trial(grid, first, nums, 2, full=False).kind == WRONG
    rising = [mins[0], mins[0] * 2, mins[2]]
    assert checks.check_trial(grid, rising, nums, 2, full=False).kind == WRONG


def test_counter_generator_matches_the_program():
    from fracparts.driver import SolverConfig, measure_exponent
    grid = [30, 60, 120]
    rows, _ = measure_exponent("monomial", 3, 2, grid, 1, SolverConfig(seed=11))
    nums = checks.monomial_numerators(3, 2, seed=11)
    assert [r.min_max_dist for r in rows] == checks.naive_minima(nums, 2, grid)


def _first_op(workload, seed=3, cell=0):
    """A runner and the full record of one operation (kept for tampering)."""
    import workloads
    from run import Runner
    runner = Runner(workload, seed, None)
    inp = workloads.ROUNDS[workload](seed, 0)[cell]
    op = runner.trial_op if workload == "exponent" else runner.solve_op
    rec = op(0, inp)
    assert runner.verify(rec, resolve=True) == []
    return runner, rec


def _wrong(problems):
    return bool(problems) and any(p.kind == WRONG for p in problems)


def test_run_flags_a_planted_wrong_n():
    runner, rec = _first_op("random-default", cell=3)  # a dense k = 1 cell: found
    out = rec["outcome"]
    assert out.status == "found"
    rec["outcome"] = replace(out, n=out.n + 1)
    assert _wrong(runner.verify(rec))


def test_run_flags_an_altered_minimum():
    runner, rec = _first_op("exponent")
    rec["rows"][0].min_max_dist /= 2
    assert _wrong(runner.verify(rec))


def test_run_flags_a_tampered_certificate():
    from fracparts import reduction
    runner, rec = _first_op("planted", cell=1)  # k = 2, d = 2: one reduction
    cert = json.loads(rec["blob"])
    assert cert["chain"], "this planted solve reduces"
    cert["chain"][-1]["child_hit"] += 1
    rec["blob"] = json.dumps(cert, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    rec["loaded"] = reduction.Certificate.from_dict(cert)
    rec["verify"] = reduction.verify_certificate(rec["loaded"])
    assert _wrong(runner.verify(rec))


def test_run_flags_a_changed_resolve(monkeypatch):
    import workloads
    from fracparts import driver
    runner, rec = _first_op("random-default", cell=3)
    # the re-solve returns a valid certificate of another system
    other = driver.solve(workloads.random_round(3, 0)[4].state, runner.config)
    monkeypatch.setattr(driver, "solve", lambda state, config: other)
    problems = runner.verify(rec, resolve=True)
    assert [p.detail for p in problems] == ["re-solve changed the certificate bytes"]
    assert problems[0].kind == WRONG


def test_self_times_must_sum_to_the_measured_time():
    import spans
    tracer = spans.Tracer()
    tracer.op = 0
    root = tracer.open("driver.solve")
    tracer.close(tracer.open("core.first_hit"))
    tracer.close(root)
    by_op = {0: tracer.spans}
    err, ok = spans.self_sum_error(by_op, {0: root.duration})
    assert ok and err < 1e-9
    # a root span that misses part of the operation
    err, ok = spans.self_sum_error(by_op, {0: root.duration + 0.05})
    assert not ok and abs(err - 0.05) < 1e-9
    # an operation with no spans
    assert not spans.self_sum_error(by_op, {0: root.duration, 1: 0.001})[1]
