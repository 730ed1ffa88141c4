"""Seeded inputs for the three benchmark workloads.

Every workload runs in rounds.  A round is a fixed list of cells (an input
shape) and each cell gets a fresh draw from a generator keyed by
(workload, seed, round, cell), so every run sees the same mix of shapes
whatever its length, and the same seed always gives the same inputs.  The
mix is stratified (one draw per cell, horizons spread over fixed strata)
because solve time depends mostly on k, d and x; drawing those freely would
make the per-run medians depend on the seed rather than on the code.

Cells whose solve time is heavy-tailed from draw to draw hold one fixed
system instead, the same in every round and for every seed (see
`_cell_rng`).  The heavy tail comes from `diophantine.best_rational`: a
Fourier witness h makes sigma = sum_i h_i f_i close to an integer, and the
walk through intermediate fractions takes about 1/||sigma|| steps (up to
Q_rel = 10^6), so a draw with one near-resonance costs seconds where its
neighbours cost milliseconds.  A free draw of such cells would make the
run's total time follow a few draws rather than the code.

Each solve input carries, next to the `SystemState` the solver sees, the
intended reals of its coefficients as terms (`Fraction` or `Sqrt`), which the
reference checks in `checks.py` evaluate without going through the solver.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple, Union

from checks import Reference, Sqrt
from fracparts.core import Epsilons, Poly, PolySystem, Real, SystemState
from fracparts.driver import SolverConfig
from fracparts.expsum import DEFAULT_MAX_BOX, frequency_caps


Coeff = Tuple[Union[Fraction, Sqrt], ...]   # the coefficient is the sum of its terms


@dataclass
class SolveInput:
    cell: str
    state: SystemState                 # what the solver receives
    polys: Tuple[Tuple[Coeff, ...], ...]   # intended reals, per poly per degree
    eps: Tuple[Fraction, ...]
    x: Fraction


@dataclass
class TrialInput:
    cell: str
    k: int
    d: int
    grid: Tuple[int, ...]
    seed: int                          # SolverConfig.seed of this trial


# the acceptance suite's seeds for the planted batch, criterion 4 and criterion 6
ACCEPTANCE_SEEDS = {"planted": 77031, "random-default": 40441, "exponent": 60661}


def _rng(workload: str, seed: int, rnd: int, cell: int) -> random.Random:
    # string seeds are hashed with SHA-512, so draws do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{rnd}:{cell}")


def _cell_rng(workload: str, seed: int, rnd: int, cell: int, fixed: bool) -> random.Random:
    """The draw of one cell; a fixed cell always gets the acceptance seed's round 0."""
    if fixed:
        seed, rnd = ACCEPTANCE_SEEDS[workload], 0
    return _rng(workload, seed, rnd, cell)


# ---------------------------------------------------------------------------
# planted: the acceptance suite's planted-dependency systems.
# ---------------------------------------------------------------------------

# c_hit is huge so the dichotomy always takes the structure branch, exactly as
# the acceptance suite's PLANT_CONFIG (seeded with its PLANT_SEED).
PLANT_CONFIG = SolverConfig(c_hit=1e9, brute_force_threshold=32, seed=77031)
PLANT_EPS = {2: Fraction(1, 20), 3: Fraction(1, 9), 4: Fraction(1, 5)}
# x is drawn from 1000..1200, below the acceptance range 2000..9000: box-scan
# time grows linearly in x, and a 30-second run must hold four to six solves
# of every cell for steady medians.  Each (k, d) cell has one coefficient
# kind, the two kinds alternating over the grid, so every round has the same
# make-up.
PLANT_X = (1000, 1200)
PLANT_CELLS = [(k, d, "sqrt" if (k + d) % 2 else "rational")
               for k in (2, 3, 4) for d in (1, 2, 3)]
# k = 4, d = 1 with square roots is the one heavy-tailed planted cell: over
# 23 draws its solves took 0.4 to 11 s (median 1.5 s) in rounds of about
# 4 s, while no other cell's took more than 0.8 s
PLANT_FIXED = {(4, 1, "sqrt")}


def _planted_coeff(rng: random.Random, kind: str) -> Tuple[str, Coeff]:
    if kind == "rational":
        value = Fraction(rng.randint(0, 20), rng.randint(1, 20))
        return str(value), (value,)
    m, q = rng.choice([2, 3, 5, 7]), rng.randint(1, 6)
    return f"sqrt({m})/{q}", (Sqrt(1, m, q),)


def planted_input(rng: random.Random, k: int, d: int, kind: str) -> SolveInput:
    """k polys of degree bound d, one of them an exact duplicate or a sum."""
    base = [[_planted_coeff(rng, kind) for _ in range(d)] for _ in range(k - 1)]
    polys = [Poly.from_strings([s for s, _ in row]) for row in base]
    terms = [tuple(t for _, t in row) for row in base]
    if k >= 3 and rng.random() < 0.4:
        i, j = rng.sample(range(k - 1), 2)
        polys.append(Poly(tuple(polys[i].coeffs[t] + polys[j].coeffs[t]
                                for t in range(d))))
        terms.append(tuple(terms[i][t] + terms[j][t] for t in range(d)))
    else:
        i = rng.randrange(k - 1)
        polys.append(polys[i])
        terms.append(terms[i])
    order = list(range(k))
    rng.shuffle(order)
    x = Fraction(rng.randint(*PLANT_X))
    eps = (PLANT_EPS[k],) * k
    state = SystemState(PolySystem(tuple(polys[i] for i in order)),
                        Epsilons(eps), Real(x))
    return SolveInput(f"k{k}d{d}-{kind}", state,
                      tuple(terms[i] for i in order), eps, x)


def planted_round(seed: int, rnd: int) -> List[SolveInput]:
    round_ = []
    for c, (k, d, kind) in enumerate(PLANT_CELLS):
        fixed = (k, d, kind) in PLANT_FIXED
        inp = planted_input(_cell_rng("planted", seed, rnd, c, fixed), k, d, kind)
        if fixed:
            inp.cell += "-fixed"
        round_.append(inp)
    return round_


# ---------------------------------------------------------------------------
# random-default: criterion-4-style random dyadic systems, default config.
# ---------------------------------------------------------------------------

RANDOM_CONFIG = SolverConfig()         # what `fracparts solve` uses
RANDOM_X_MAX = 10 ** 4
RANDOM_STRATA = 3
# (k, d, regime): "sparse" is criterion 4's k = 1 regime with x at or below
# 1/eps, where zero-hit draws are common and the relation stage runs.
RANDOM_SHAPES = [(1, 1, "sparse"), (1, 2, "sparse"), (1, 1, "dense"),
                 (1, 2, "dense"), (2, 1, "dense"), (2, 2, "dense"),
                 (3, 1, "dense"), (3, 2, "dense")]
# Not-found solves cost 10 to 1000 times a hit-density solve, so a free
# share of them would make every run's percentiles depend on the seed.
# Draws are redrawn until they have a hit below x, except one sparse cell of
# each stratum, which is redrawn until it has none: every round has 3
# not-found systems in 24 (criterion 4's random draws give about 1 in 9).
# Their relation stage makes them heavy-tailed (over 143 draws per cell,
# medians of 52 to 139 ms, means 1.4 to 3.6 times as much, up to 11 s), so
# the not-found cells are the fixed ones.
RANDOM_CELLS = [(k, d, regime, s, regime == "sparse" and d == 1 + s % 2)
                for k, d, regime in RANDOM_SHAPES for s in range(RANDOM_STRATA)]


def _stratum(rng: random.Random, lo: int, hi: int, s: int) -> int:
    width = (hi - lo) / RANDOM_STRATA
    return rng.randint(int(lo + s * width), int(lo + (s + 1) * width) - 1)


def random_input(rng: random.Random, k: int, d: int, regime: str, s: int,
                 no_hit: bool) -> SolveInput:
    while True:
        inp = _random_draw(rng, k, d, regime, s)
        ref = Reference(inp.polys, inp.eps, inp.x)
        if any(ref.hit(n) for n in ref.horizon()) != no_hit:
            if no_hit:
                inp.cell += "-nohit-fixed"
            return inp


def _random_draw(rng: random.Random, k: int, d: int, regime: str, s: int) -> SolveInput:
    while True:
        if regime == "sparse":
            E = _stratum(rng, 200, 1001, s)
            eps = (Fraction(1, E),)
            x = rng.randint(max(200, E // 3), E)
        else:
            # criterion 4 draws each 1/eps from 10..120 and rejects boxes over
            # the cap; no accepted draw exceeds e_max, so drawing from
            # 10..e_max and rejecting gives the same distribution, faster
            e_max = min(120, (DEFAULT_MAX_BOX // 21 ** (k - 1) - 1) // 2)
            eps = tuple(Fraction(1, rng.randint(10, e_max)) for _ in range(k))
            x = _stratum(rng, 200, RANDOM_X_MAX + 1, s)
        box = 1
        for c in frequency_caps(Epsilons(eps)):
            box *= 2 * c + 1
        if box <= DEFAULT_MAX_BOX:
            break
    coeffs = tuple(tuple(Fraction(rng.getrandbits(48), 2 ** 48) for _ in range(d))
                   for _ in range(k))
    state = SystemState(PolySystem(tuple(Poly(tuple(Real(c) for c in row))
                                         for row in coeffs)),
                        Epsilons(eps), Real(Fraction(x)))
    return SolveInput(f"k{k}d{d}-{regime}{s}", state,
                      tuple(tuple((c,) for c in row) for row in coeffs),
                      eps, Fraction(x))


def random_round(seed: int, rnd: int) -> List[SolveInput]:
    return [random_input(_cell_rng("random-default", seed, rnd, c, cell[4]), *cell)
            for c, cell in enumerate(RANDOM_CELLS)]


# ---------------------------------------------------------------------------
# exponent: criterion-6-style monomial trials on a short grid.
# ---------------------------------------------------------------------------

EXPONENT_GRID = (300, 1000, 3000, 10000)
EXPONENT_D = 2
EXPONENT_KS = (1, 2, 3)


def exponent_round(seed: int, rnd: int) -> List[TrialInput]:
    # one trial per k; the trial's system is drawn by the program from
    # SolverConfig.seed, so the seed is the whole input
    return [TrialInput(f"k{k}", k, EXPONENT_D, EXPONENT_GRID,
                       _rng("exponent", seed, rnd, c).getrandbits(62))
            for c, k in enumerate(EXPONENT_KS)]


ROUNDS = {"planted": planted_round, "random-default": random_round,
          "exponent": exponent_round}
CONFIGS = {"planted": PLANT_CONFIG, "random-default": RANDOM_CONFIG}
