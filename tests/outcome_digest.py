"""Digests of the solver's outcomes on the acceptance suite's inputs.

A change meant to keep outcomes (a speed-up, a refactor) prints the same
digests before and after it.  Run from the repository root:

    PYTHONPATH=src python tests/outcome_digest.py

and compare the output with the same command on the parent commit (copy this
file there if it lacks it).  One SHA-256 is printed per set:

- ``planted``: PLANT_SEED's 200 systems under PLANT_CONFIG;
- ``planted-default``: the same 200 under the default SolverConfig;
- ``criterion-4``: criterion 4's 100 systems under the default SolverConfig,
  with each system's `large_coefficients` record;
- ``criterion-6``: criterion 6's 450 rows (k = 1..3, 50 trials) and summaries.

A solve contributes its status, n, certificate bytes, `SolveStats` without
`wall_time`, and the checks `verify_certificate` makes of its certificate.
This file is not a test module; pytest does not collect it.
"""

import hashlib
import json
import random
import sys
import time

from fracparts.core import SystemState
from fracparts.diophantine import large_coefficients
from fracparts.driver import SolverConfig, measure_exponent, solve
from fracparts.reduction import verify_certificate
from fracparts.serialize import certificate_bytes
from test_acceptance import (
    PLANT_CONFIG,
    PLANT_COUNT,
    PLANT_SEED,
    _random_dichotomy_state,
    planted_state,
)


def _update(digest, record) -> None:
    digest.update(json.dumps(record, sort_keys=True).encode())
    digest.update(b"\n")


def _solve_record(state, config) -> dict:
    out = solve(state, config)
    stats = out.stats.to_dict()
    del stats["wall_time"]
    return {
        "status": out.status,
        "n": out.n,
        "certificate_sha256": hashlib.sha256(certificate_bytes(out.certificate)).hexdigest(),
        "stats": stats,
        "replay": verify_certificate(out.certificate),
    }


def planted(config) -> str:
    rng = random.Random(PLANT_SEED)
    digest = hashlib.sha256()
    for _ in range(PLANT_COUNT):
        _update(digest, _solve_record(planted_state(rng), config))
    return digest.hexdigest()


def criterion_4() -> str:
    rng = random.Random(40441)
    digest = hashlib.sha256()
    for _ in range(100):
        system, eps, x = _random_dichotomy_state(rng)
        state = SystemState(system, eps, x)
        record = _solve_record(state, SolverConfig())
        record["large_coefficients"] = large_coefficients(system, eps, x, c_hit=0.05).to_dict()
        _update(digest, record)
    return digest.hexdigest()


def criterion_6() -> str:
    digest = hashlib.sha256()
    for k in (1, 2, 3):
        rows, summary = measure_exponent("monomial", k, 2, [10 ** 4, 10 ** 5, 10 ** 6],
                                         trials=50, config=SolverConfig(seed=60661))
        for row in rows:
            _update(digest, row.csv_row() + [str(row.min_max_dist), row.flagged])
        _update(digest, summary)
    return digest.hexdigest()


SETS = {
    "planted": lambda: planted(PLANT_CONFIG),
    "planted-default": lambda: planted(SolverConfig()),
    "criterion-4": criterion_4,
    "criterion-6": criterion_6,
}


def main(names) -> None:
    for name in names or SETS:
        t0 = time.monotonic()
        value = SETS[name]()
        print(f"{name} {value}  ({time.monotonic() - t0:.1f} s)", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
