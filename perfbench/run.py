#!/usr/bin/env python3
"""fracparts benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload planted --seed 77031 --seconds 30 --trace 0

Run from the root of a checkout; the solver is imported from its `src/`.
One caller runs one operation at a time, in whole rounds (see workloads.py),
until --seconds have passed.  Outputs are checked against reference
computations made apart from the solver (checks.py) after the timed phase.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics, the end-to-end metrics of BENCHMARK.json with --trace 0
and its per-layer metrics (from spans, see spans.py) with --trace 1.  The
lines before it give the environment and the run's make-up.
"""

import os

# one caller, so BLAS pools get one thread; set before numpy is imported
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("planted", "random-default", "exponent")
# op_ms_tail's percentile.  Random-default and exponent: the highest with
# ten or more operations beyond it in a 30-second run (~1500 solves, ~2000
# trials).  Planted has ~60 solves a run, one per cell per round, and cells
# differ in cost, so a percentile near a boundary between two cells' times
# jumps from one cell to the other as the number of rounds changes; p94 is
# the middle of the slowest cell's solves (k = 4, d = 3, sqrt) whatever
# that number.
TAIL_PCT = {"planted": 94, "random-default": 99, "exponent": 98}
SETUP_PROBES = 11       # setup_s is the median of this many fresh processes
RESOLVE_SUBSET = 2      # the first solves of round 0 are re-solved for byte identity

clock = time.perf_counter

# Machine speed.  On a shared host the same code runs up to ~2x slower
# while a neighbour loads the same physical core, in spells of seconds to
# minutes, so raw medians of two 30-second runs can differ by a third.  A
# fixed piece of pure-Python Fraction arithmetic (allocation, gcd and
# big-integer work, as in the solver) is timed before and after every
# operation, and reported times are scaled to the speed at which it takes
# CAL_REF_S (about this 2-core host's unloaded speed).  It tracks the
# solver's slow spells better than a big-integer loop alone: over 80 s of
# repeated solves and trials, the quartile spread of scaled medians was 0.03
# to 0.07 against 0.07 to 0.10.  Raw times are printed on the line before
# the result.
CAL_STEPS = 60
CAL_REF_S = 0.0004


def calibrate() -> float:
    """Seconds taken by the fixed calibration work."""
    t0 = clock()
    x, y, acc = Fraction(1, 3), Fraction(7, 11), Fraction(0)
    for i in range(CAL_STEPS):
        acc = (acc + x * y) % 1
        x += Fraction(1, 7 + i % 5)
    return clock() - t0


def import_program():
    """Put the checkout's src/ first on the path and import the solver from it."""
    if not (SRC / "fracparts" / "__init__.py").is_file():
        sys.exit(f"run.py: no fracparts sources under {SRC}; run from a checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import fracparts
    if Path(fracparts.__file__).resolve().parent != SRC / "fracparts":
        sys.exit(f"run.py: imported fracparts from {fracparts.__file__}, not {SRC}")


def git_commit():
    """The checked-out commit read from .git, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import mpmath
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "blas_threads": int(BLAS_THREADS), "commit": git_commit(), "seed": seed}


def percentile(values, pct):
    """Nearest-rank percentile, with the number of values beyond it."""
    ordered = sorted(values)
    idx = min(max(math.ceil(pct / 100 * len(ordered)) - 1, 0), len(ordered) - 1)
    return ordered[idx], len(ordered) - idx - 1


class SetupProbes:
    """Raw and scaled wall times of fresh processes that import fracparts and
    build round 0.

    The probes are spread evenly over the timed phase, between operations,
    rather than run back to back: setup is import- and file-bound, so the
    calibration tracks its slow spells less well than the solver's, and
    probes taken together all fall in the same spell.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.argv = [sys.executable, str(Path(__file__).resolve()),
                     "--workload", workload, "--seed", str(seed), "--setup-probe"]
        self.interval = seconds / SETUP_PROBES
        self.raw, self.scaled = [], []

    def probe(self):
        before = calibrate()
        t0 = clock()
        subprocess.run(self.argv, check=True, stdout=subprocess.DEVNULL)
        self.raw.append(clock() - t0)
        self.scaled.append(self.raw[-1] * 2 * CAL_REF_S / (before + calibrate()))

    def between(self, elapsed: float) -> float:
        """Probe if one is due `elapsed` seconds into the timed phase; returns
        the seconds spent."""
        if len(self.raw) >= SETUP_PROBES or elapsed < len(self.raw) * self.interval:
            return 0.0
        t0 = clock()
        self.probe()
        return clock() - t0

    def finish(self):
        while len(self.raw) < SETUP_PROBES:
            self.probe()


# ---------------------------------------------------------------------------
# Operations.
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, workload: str, seed: int, tracer):
        import workloads
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.make_round = workloads.ROUNDS[workload]
        self.config = workloads.CONFIGS.get(workload)
        self.records = []
        self.op_stats = {}

    def _begin(self, op_id, name):
        if self.tracer is None:
            return None
        self.tracer.op = op_id
        return self.tracer.open(name)

    def _end(self, span):
        if span is not None:
            self.tracer.close(span)
            self.tracer.op = None

    def solve_op(self, rnd, inp):
        from fracparts import driver, reduction, serialize
        op = len(self.records)
        rec = {"round": rnd, "input": inp, "ops": [2 * op, 2 * op + 1],
               "outcome": None, "error": None, "op_s": None, "replay_s": None}
        self.records.append(rec)
        span = self._begin(2 * op, "driver.solve")
        t0 = clock()
        try:
            rec["outcome"] = driver.solve(inp.state, self.config)
        except Exception as exc:   # a failed operation, counted and reported
            rec["error"] = repr(exc)
        finally:
            rec["op_s"] = clock() - t0
            self._end(span)
        if rec["outcome"] is None:
            return rec
        stats = rec["outcome"].stats
        self.op_stats[2 * op] = {"reductions": stats.reductions,
                                 "fallbacks": len(stats.fallbacks)}
        # replay: canonical bytes, load, verify_certificate
        span = self._begin(2 * op + 1, "replay")
        t0 = clock()
        try:
            rec["blob"] = serialize.certificate_bytes(rec["outcome"].certificate)
            rec["loaded"] = reduction.Certificate.from_dict(json.loads(rec["blob"]))
            rec["verify"] = reduction.verify_certificate(rec["loaded"])
        except Exception as exc:
            rec["error"] = repr(exc)
        finally:
            rec["replay_s"] = clock() - t0
            self._end(span)
        return rec

    def trial_op(self, rnd, inp):
        from fracparts import driver
        op = len(self.records)
        rec = {"round": rnd, "input": inp, "ops": [op], "rows": None, "error": None,
               "op_s": None, "replay_s": None}
        self.records.append(rec)
        span = self._begin(op, "driver.measure_exponent")
        t0 = clock()
        try:
            rec["rows"], _summary = driver.measure_exponent(
                "monomial", inp.k, inp.d, list(inp.grid), 1,
                driver.SolverConfig(seed=inp.seed))
        except Exception as exc:
            rec["error"] = repr(exc)
        finally:
            rec["op_s"] = clock() - t0
            self._end(span)
        return rec

    def traced_times(self):
        """Each traced root span's op id -> the time measured around it."""
        times = {}
        for rec in self.records:
            times.update(zip(rec["ops"], (rec["op_s"], rec["replay_s"])))
        return {op: t for op, t in times.items() if t is not None}

    def run(self, seconds: float, between):
        """Whole rounds until `seconds` have passed.

        Each operation is checked as soon as it ends, outside its timing, and
        only its times and problems are kept, so that the process's peak
        memory is the solver's, not the results'.  After each operation
        `between(elapsed)` runs; the seconds it returns do not count towards
        `seconds`.  Returns the number of rounds run.
        """
        op = self.trial_op if self.workload == "exponent" else self.solve_op
        start = clock()
        paused = 0.0
        rnd = 0
        while True:
            for inp in self.make_round(self.seed, rnd):
                before = calibrate()
                rec = op(rnd, inp)
                rec["scale"] = 2 * CAL_REF_S / (before + calibrate())
                rec["problems"] = self.verify(rec, resolve=len(self.records) <= RESOLVE_SUBSET)
                for key in ("input", "outcome", "blob", "loaded", "verify", "rows"):
                    rec.pop(key, None)
                rec["cell"] = inp.cell
                paused += between(clock() - start - paused)
            rnd += 1
            if clock() - start - paused >= seconds:
                return rnd

    # -- checks, outside the operations' timing ------------------------------

    def summary(self):
        """(failed ops, wrong-output ops, first problems) over the run."""
        import checks
        failed = wrong = 0
        problems = []
        for i, rec in enumerate(self.records):
            if rec["problems"]:
                failed += 1
                wrong += any(p.kind == checks.WRONG for p in rec["problems"])
                problems.extend(f"op {i} ({rec['cell']}): {p.kind}: {p.detail}"
                                for p in rec["problems"])
        return failed, wrong, problems[:5]

    def verify(self, rec, resolve: bool = False):
        """The problems found in one operation's result (empty when it holds)."""
        import checks
        if rec["error"] is not None:
            return [checks.Problem("error", rec["error"])]
        if self.workload == "exponent":
            found = [self._check_trial(rec)]
        else:
            found = self._check_solve(rec, resolve)
        return [p for p in found if p is not None]

    def _check_solve(self, rec, resolve: bool):
        import checks
        from fracparts import driver, serialize
        inp, out = rec["input"], rec["outcome"]
        ref = checks.Reference(inp.polys, inp.eps, inp.x)
        found = []
        if out.status == "found":
            found.append(checks.check_found(ref, out.n))
            if not out.certificate.chain and found[-1] is None:
                # a root-level scan returns the smallest hit
                found.append(checks.check_smallest(ref, out.n))
        elif out.status == "not-found":
            found.append(checks.check_not_found(ref))
        else:
            found.append(checks.Problem("error", f"status {out.status!r}"))
        found.append(checks.check_certificate(
            rec["blob"], serialize.certificate_bytes(rec["loaded"]), rec["verify"],
            out.status, out.n))
        if resolve:
            again = serialize.certificate_bytes(driver.solve(inp.state, self.config).certificate)
            if again != rec["blob"]:
                found.append(checks.Problem(checks.WRONG, "re-solve changed the certificate bytes"))
        return found

    def _check_trial(self, rec):
        import checks
        inp = rec["input"]
        rows = rec["rows"]
        if [(r.k, r.d, r.x) for r in rows] != [(inp.k, inp.d, x) for x in inp.grid]:
            return checks.Problem(checks.WRONG, "rows do not match the requested grid")
        nums = checks.monomial_numerators(inp.k, inp.d, inp.seed)
        # every checkpoint of round 0's trials (one per k), the first elsewhere
        return checks.check_trial(inp.grid, [r.min_max_dist for r in rows], nums,
                                  inp.d, full=rec["round"] == 0)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the acceptance suite's seed of the workload)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_program()
    import workloads
    seed = workloads.ACCEPTANCE_SEEDS[args.workload] if args.seed is None else args.seed
    if args.setup_probe:
        workloads.ROUNDS[args.workload](seed, 0)
        return 0

    # one CPU for the run and its setup probes, so that the calibration and
    # the work it scales always share a core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup = SetupProbes(args.workload, seed, args.seconds)

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    runner = Runner(args.workload, seed, tracer)
    t0 = clock()
    rounds = runner.run(args.seconds, setup.between)
    timed_s = clock() - t0
    setup.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.restore()

    failed, wrong, problems = runner.summary()
    correct = wrong == 0
    pct = TAIL_PCT[args.workload]

    def end_to_end(setup, scaled):
        factor = [rec["scale"] if scaled else 1.0 for rec in runner.records]
        ops = [rec["op_s"] * f for rec, f in zip(runner.records, factor)]
        replays = [rec["replay_s"] * f for rec, f in zip(runner.records, factor)
                   if rec["replay_s"] is not None]
        # every timed operation of the run, per round
        wall = sum(ops + replays) / rounds
        tail, beyond = percentile(ops, pct)
        return {"setup_s": statistics.median(setup),
                "wall_s": wall,
                "peak_rss_mb": peak_rss_mb, "op_ms_p50": 1e3 * statistics.median(ops),
                "op_ms_tail": 1e3 * tail}, beyond, replays

    scaled, beyond, replays = end_to_end(setup.scaled, True)
    raw, _beyond, _replays = end_to_end(setup.raw, False)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        import spans
        values = spans.summarise(tracer, runner.op_stats,
                                 {op: rec["scale"] for rec in runner.records
                                  for op in rec["ops"]},
                                 runner.traced_times())
        values["traced.wall_s"] = scaled["wall_s"]
        values["traced.op_ms_p50"] = scaled["op_ms_p50"]
        correct = correct and values["trace.self_sum_ok"]
        listed = bench["per_layer"]
    else:
        values, listed = scaled, bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print(json.dumps({"env": environment(seed)}))
    print(json.dumps({
        "workload": args.workload, "trace": args.trace, "rounds": rounds,
        "operations": len(runner.records), "ops_per_round": len(runner.records) // rounds,
        "tail_pct": pct, "ops_beyond_tail": beyond,
        "replay_ms_p50": 1e3 * statistics.median(replays) if replays else None,
        "raw": raw, "speed_p10_p50_p90": [
            percentile([rec["scale"] for rec in runner.records], p)[0] for p in (10, 50, 90)],
        "setup_probes_s": setup.scaled, "timed_s": timed_s, "problems": problems}))
    print(json.dumps({"correct": correct, "attempted": len(runner.records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
