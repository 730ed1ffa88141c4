#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steady.py

Runs every workload of BENCHMARK.json RUNS times in each of two sets, each
run with its own seed (set 1: seeds 1000 to 1009, set 2: 1010 to 1019), for
BENCHMARK.json's run_seconds.  The runs of the two sets are interleaved so
that a slow spell of the machine falls on both.  For every workload and
end-to-end metric it prints both medians, each set's quartile spread
((Q3 - Q1) / median, from statistics.quantiles) and the shift of the second
median against the first, then PASS when both spreads are within the
metric's bound and the shift is within the bound in the metric's worse
direction.  The failed-operation share must also be the same in both sets.
Run from the root of a checkout; exits 0 when every row passes.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2
SEED_BASE = 1000


def run_once(command, workload, seed, seconds):
    out = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for i in range(RUNS):
        for s in range(SETS):
            for w in workloads:
                seed = SEED_BASE + s * RUNS + i
                res = run_once(bench["command"], w, seed, bench["run_seconds"])
                results[w][s].append(res)
                print(f"# set {s + 1} run {i + 1} {w} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                      flush=True)

    ok = True
    print(f"{'workload':15} {'metric':12} {'median1':>10} {'median2':>10} "
          f"{'spread1':>8} {'spread2':>8} {'shift':>7} {'bound':>6}  verdict")
    for w in workloads:
        sets = results[w]
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            meds = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            shift = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                shift = -shift
            good = shift <= bound and max(spreads) <= bound
            ok = ok and good
            print(f"{w:15} {name:12} {meds[0]:10.4g} {meds[1]:10.4g} {spreads[0]:8.3f} "
                  f"{spreads[1]:8.3f} {shift:+7.3f} {bound:6.2f}  {'PASS' if good else 'FAIL'}")
        same = len(set(shares)) == 1
        ok = ok and same and correct
        print(f"{w:15} failed share {' / '.join(f'{s:.4g}' for s in shares)}"
              f"{'' if same else ' (differs)'}; correct: {correct}")
    print("steady: PASS" if ok else "steady: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
