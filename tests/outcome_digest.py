"""Digests of the solver's outcomes on the acceptance suite's inputs.

A change meant to keep outcomes (a speed-up, a refactor) prints the same
digests before and after it.  Run from the repository root:

    PYTHONPATH=src python tests/outcome_digest.py [SET ...]

One SHA-256 is printed per set and checked against its pin in ``PINS``; the
script exits 1 if any set differs, naming it.  A change that moves outcomes
on purpose re-pins the sets it moves and says why.  The sets:

- ``planted``: PLANT_SEED's 200 systems under PLANT_CONFIG;
- ``planted-default``: the same 200 under the default SolverConfig;
- ``criterion-4``: criterion 4's 100 systems under the default SolverConfig,
  with each system's `large_coefficients` record;
- ``criterion-6``: criterion 6's 450 rows (k = 1..3, 50 trials) and summaries;
- ``linear``: 300 seeded linear systems (k <= 3; 48-bit dyadic, small
  ``p/q``, 200-bit ``p/q`` and ``sqrt(m)/q`` coefficients; tolerances from
  1/2 down to 10^-4; x <= 5000), each with `hit_count` at eps and eps/2,
  `first_hit` and `_checkpointed_min` at four horizons, then criterion-6-style
  d = 1 monomial rows;
- ``det-identity``: criterion 1's 1,000 draws (seed 20103) through
  ``fracparts lattice --det-identity``, each draw's printed output.

A solve contributes its status, n, certificate bytes, `SolveStats` without
`wall_time`, and the checks `verify_certificate` makes of its certificate.
This file is not a test module; pytest does not collect it.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import time
from fractions import Fraction

from fracparts.cli import main as cli_main
from fracparts.core import (
    Epsilons,
    Poly,
    PolySystem,
    SystemState,
    _checkpointed_min,
    first_hit,
    hit_count,
    parse_scalar,
)
from fracparts.diophantine import large_coefficients
from fracparts.driver import SolverConfig, measure_exponent, solve
from fracparts.intlinalg import det_bareiss
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


def _linear_coeff(rng) -> str:
    kind = rng.randrange(4)
    sign = rng.choice(["", "-"])
    if kind == 0:
        return f"{sign}{rng.getrandbits(48)}/{1 << 48}"
    if kind == 1:
        return f"{sign}{rng.randint(0, 200)}/{rng.randint(1, 200)}"
    if kind == 2:
        return f"{sign}{rng.getrandbits(200)}/{rng.getrandbits(200) | 1}"
    return f"{sign}sqrt({rng.randint(2, 10 ** 6)})/{rng.randint(1, 100)}"


def linear() -> str:
    rng = random.Random(90977)
    digest = hashlib.sha256()
    for _ in range(300):
        k, d = rng.randint(1, 3), rng.randint(1, 2)
        coeffs = [parse_scalar(_linear_coeff(rng)) for _ in range(k)]
        # a d = 2 system here has zero quadratic coefficients
        system = PolySystem(tuple(Poly((c,) + (0,) * (d - 1)) for c in coeffs))
        # log-uniform tolerances in [10^-4, 1/2]
        eps = Epsilons(tuple(min(Fraction(1, 2), Fraction(1, round(10 ** rng.uniform(0.3, 4))))
                             for _ in range(k)))
        half = Epsilons(tuple(e / 2 for e in eps.eps))
        x = rng.randint(2, 5000)
        checkpoints = sorted(rng.sample(range(2, x + 2), min(4, x)))
        _update(digest, {
            "hit_count": hit_count(system, eps, x),
            "hit_count_half": hit_count(system, half, x),
            "first_hit": first_hit(system, eps, x),
            "min": [(n, str(v)) for n, v in _checkpointed_min(system, checkpoints)],
        })
    for k in (1, 2, 3):
        rows, summary = measure_exponent("monomial", k, 1, [10 ** 3, 10 ** 4, 10 ** 5],
                                         trials=20, config=SolverConfig(seed=60661))
        for row in rows:
            _update(digest, row.csv_row() + [str(row.min_max_dist), row.flagged])
        _update(digest, summary)
    return digest.hexdigest()


def det_identity() -> str:
    rng = random.Random(20103)
    digest = hashlib.sha256()
    for _ in range(1000):
        r, ell = rng.randint(1, 4), rng.randint(1, 4)
        while True:
            H1 = [[rng.randint(-5, 5) for _ in range(r)] for _ in range(r)]
            if det_bareiss(H1) != 0:
                break
        H2 = [[rng.randint(-5, 5) for _ in range(ell)] for _ in range(r)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(["lattice", "--det-identity",
                             "--h1", json.dumps(H1), "--h2", json.dumps(H2)])
        _update(digest, [code, out.getvalue()])
    return digest.hexdigest()


SETS = {
    "planted": lambda: planted(PLANT_CONFIG),
    "planted-default": lambda: planted(SolverConfig()),
    "criterion-4": criterion_4,
    "criterion-6": criterion_6,
    "linear": linear,
    "det-identity": det_identity,
}

PINS = {
    "planted":
        "83a793bec1989ee9870949d18d5fd80f624ae126aaf7cb8fb0882fe4178d28a7",
    "planted-default":
        "f8b600238f8ca7f343b1035d74c59df520792116dac30391a33b2627f8b117d1",
    "criterion-4":
        "4b1a0ecca07de774328a237564ccf4d7c88023417ca570e85ab916f0dea5cc8e",
    "criterion-6":
        "719e9912eef73e44cbaac6b6d38c2cf308e5d9ec31b2c9e0d08105436968b75e",
    "linear":
        "4bb33e459ffc9b9d3c48bc2a39f0167e08b0087c678579aed2315c6a6b770ea4",
    "det-identity":
        "3f73181890cd5a258cc57da21a963d98593f5329cf64a4bbe1f7367cff8e60fb",
}


def main(names) -> int:
    moved = []
    for name in names or SETS:
        t0 = time.monotonic()
        value = SETS[name]()
        ok = value == PINS[name]
        print(f"{name} {value}  ({time.monotonic() - t0:.1f} s)"
              + ("" if ok else f"  MISMATCH, pinned {PINS[name]}"), flush=True)
        if not ok:
            moved.append(name)
    if moved:
        print("digests differ from their pins: " + ", ".join(moved), file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
