"""The density-increment solve loop and the exponent-measurement harness.

Each level runs the dichotomy's hit-density gate (`expsum.density_gate`),
one pass that counts the hits and finds the smallest; it stops once the
count reaches the gate's threshold and a hit n < y is known.  Dense hits
return that hit; otherwise a level with k >= 2 tries one reduction, with
generators from the relation lattice over q0 = 1, searched in the level's
own region (`SystemState.region`, which `reduce_dimension` checks them
against), and recurses on the smaller child.  The lattice is built from
the coefficients themselves, so the Fourier box scan, relation
reconstruction and denominator clustering serve only the CLI chain.  When
c_hit * Delta > 1 (the acceptance suite's c_hit = 1e9) the gate's branch is
decided without a count, and the level scans only if the reduction path
gives no hit.

Fallback ladder (the analytic argument's dichotomies need not fire at desk
scale): the gate, then the reduction branch, then the level's smallest
hit: the gate's, where it counted, else one `first_hit` scan.  A level
whose gate does not run scans with `first_hit` within the enumeration cap,
else is inconclusive.  Every fallback is recorded in the run stats, and a
level scans its horizon at most once.

A level returns plain values: status, n, n's distances if a lift checked
them, the chain of reduction steps below it and, unless found, the reason.
Only `solve`, at the root, writes the certificate and the outcome; a found
n is checked exactly on the root once, by its lift or else by `check_hit`.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from typing import List, Optional, Sequence

from .core import (
    DEFAULT_ENUM_CAP,
    DEFAULT_PRECISION_BITS,
    HorizonCapError,
    Poly,
    PolySystem,
    Real,
    SystemState,
    _checkpointed_min,
    first_hit,
    horizon_count,
)
from .expsum import HIT_DENSITY, BoxTooLargeError, density_gate
from .latgeom import NoShortVector, PrecisionError, quasi_orthogonal_generators
from .reduction import (
    TERMINAL_EXHAUSTED,
    TERMINAL_FOUND,
    Certificate,
    DegenerateHorizonError,
    HorizonOverflowError,
    LiftVerificationError,
    ReductionPreconditionError,
    check_hit,
    density_invariant,
    lift_solution,
    reduce_dimension,
)

STATUS_FOUND = "found"
STATUS_NOT_FOUND = "not-found"
STATUS_INCONCLUSIVE = "inconclusive"

# N_target of the generator search, 2m + 1 for m = 1 relation: the loosest
# product bound N_target^(-1/(d+1)) that a nonempty relation family sets
N_TARGET = 3

# least orthogonality ratio of an accepted generator set
C_ORTH = 0.05


@dataclass
class SolverConfig:
    c_hit: float = 0.05
    enum_cap: int = DEFAULT_ENUM_CAP
    brute_force_threshold: int = 64
    seed: int = 0

    def to_dict(self) -> dict:
        # the fields are scalars, so a shallow copy is asdict's dict without
        # its deep copy
        return dict(vars(self))

    @staticmethod
    def from_dict(d: dict) -> "SolverConfig":
        if not isinstance(d, dict):
            raise ValueError(f"config must be an object of fields, got {d!r}")
        names = {f.name for f in fields(SolverConfig)}
        for key, value in d.items():
            if key not in names:
                raise ValueError(f"unknown config field {key!r}")
            # a bool is never accepted, although Python counts it as an int
            types, what = ((int, float), "a number") if key == "c_hit" else (int, "an integer")
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"config field {key!r}: need {what}, got {value!r}")
            # every field but the seed is a cap or a threshold (NaN fails this)
            if key != "seed" and not 0 <= value < math.inf:
                raise ValueError(f"config field {key!r}: need a finite value >= 0, "
                                 f"got {value!r}")
        return SolverConfig(**d)


@dataclass
class SolveStats:
    evaluations: int = 0
    reductions: int = 0
    max_depth_reached: int = 0
    fourier_branches: List[str] = field(default_factory=list)
    fallbacks: List[str] = field(default_factory=list)
    density_reports: List[dict] = field(default_factory=list)
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SolveOutcome:
    status: str
    n: Optional[int]
    certificate: Certificate
    stats: SolveStats


def solve(state: SystemState, config: Optional[SolverConfig] = None) -> SolveOutcome:
    """Find n < x meeting every tolerance, preferring structure to brute force.

    Never raises for a solver-path failure; all failure modes land in the
    outcome.  A Found outcome has been re-verified exactly on the root
    system, and only here is the certificate written.
    """
    if config is None:
        config = SolverConfig()
    stats = SolveStats()
    t0 = time.monotonic()
    status, n, dists, chain, reason = _solve_level(state, config, stats, depth=0)
    if status == STATUS_FOUND:
        if dists is None:  # a scan's hit, not yet checked on the root
            dists = check_hit(state.system, state.eps, n)
        terminal = {"kind": TERMINAL_FOUND, "n": n, "dists": [str(dv) for dv in dists]}
    else:
        terminal = {"kind": TERMINAL_EXHAUSTED, "reason": reason}
    constants = {
        "config": config.to_dict(),
        # the analytic guarantee is only claimed for eps_i <= 1/100; larger
        # tolerances are solved anyway and the departure is recorded
        "within_theorem_hypothesis": state.eps.within_theorem_hypothesis,
    }
    certificate = Certificate(root=state.to_dict(), chain=[s.to_dict() for s in chain],
                              terminal=terminal, constants=constants)
    stats.wall_time = time.monotonic() - t0
    return SolveOutcome(status, n, certificate, stats)


# A level returns (status, n, dists, chain, reason), as the module docstring says.
def _smallest_hit(state: SystemState, config: SolverConfig, stats: SolveStats,
                  reason: str, counted=None):
    """The level's result from its smallest hit n < y: the gate's, where it
    counted (``counted``), else one `first_hit` scan within the cap."""
    if counted is not None:
        n = counted[1]
    else:
        try:
            n = first_hit(state.system, state.eps, state.y, enum_cap=config.enum_cap)
        except HorizonCapError:
            stats.fallbacks.append(f"{reason}:enum-cap")
            return STATUS_INCONCLUSIVE, None, None, [], f"{reason}; horizon over enum cap"
    stats.evaluations += horizon_count(state.y) if n is None else n
    if n is not None:
        return STATUS_FOUND, n, None, [], None
    return STATUS_NOT_FOUND, None, None, [], f"{reason}; exhaustive scan found no hit"


def _solve_level(state: SystemState, config: SolverConfig, stats: SolveStats,
                 depth: int):
    stats.max_depth_reached = max(stats.max_depth_reached, depth)
    if horizon_count(state.y) <= config.brute_force_threshold:
        return _smallest_hit(state, config, stats, "below brute-force threshold")

    try:
        gate, counted = density_gate(state.system, state.eps, state.y,
                                     c_hit=config.c_hit, enum_cap=config.enum_cap,
                                     count_all=False)
    except (BoxTooLargeError, ValueError, HorizonCapError) as exc:
        stats.fallbacks.append(f"fourier:{exc}")
        return _smallest_hit(state, config, stats, "fourier unavailable")
    stats.fourier_branches.append(gate.branch)

    if gate.branch == HIT_DENSITY:
        # the gate's pass found the smallest hit before it stopped, or scanned
        # the whole horizon and found none; return it
        return _smallest_hit(state, config, stats, "hit-density scan", counted)

    if state.k == 1:
        # a reduction leaves at least one polynomial behind, so none exists
        stats.fallbacks.append("reduction:k=1")
    else:
        found = _reduction_path(state, config, stats, depth)
        if found is not None:
            return found
        stats.fallbacks.append("reduction-path-exhausted")
    # the gate checked the cap on this horizon, so this scan cannot exceed it
    return _smallest_hit(state, config, stats, "reduction path exhausted", counted)


def _reduction_path(state, config, stats, depth):
    """One reduction over q0 = 1, then the child's solve and the lift; None
    unless the lifted n is found.  The generators are searched in the
    level's own region, the one `reduce_dimension` checks them against."""
    B, eta = state.region
    try:
        gens = quasi_orthogonal_generators(state.system, B, eta,
                                           N_target=N_TARGET, c_orth=C_ORTH,
                                           max_r=state.k - 1)
        if isinstance(gens, NoShortVector):
            stats.fallbacks.append("reduction:no-short-vector")
            return None
        step = reduce_dimension(state, gens)
    except (PrecisionError, ReductionPreconditionError, DegenerateHorizonError) as exc:
        stats.fallbacks.append(f"reduction:{type(exc).__name__}")
        return None
    stats.reductions += 1
    stats.density_reports.append(
        density_invariant(state, step).to_dict())
    status, n_child, _dists, chain, _reason = _solve_level(
        step.child_state(), config, stats, depth + 1)
    if status != STATUS_FOUND:
        stats.fallbacks.append(f"reduction:child-{status}")
        return None
    try:
        n, dists = lift_solution(step, n_child, state)
    except (LiftVerificationError, HorizonOverflowError):
        stats.fallbacks.append("reduction:lift-verification")
        return None
    step.child_hit = n_child
    return STATUS_FOUND, n, dists, [step] + chain, None


# ---------------------------------------------------------------------------
# Exponent measurement harness.
# ---------------------------------------------------------------------------

GENERATOR_SPECS = ("monomial", "full", "zero")


@dataclass
class ExperimentRow:
    k: int
    d: int
    x: int
    trial_id: int
    seed: int
    min_max_dist: Fraction
    fitted_exponent: float
    flagged: bool = False

    def csv_row(self) -> List[str]:
        min_field = "" if self.min_max_dist < 0 else repr(float(self.min_max_dist))
        return [str(self.k), str(self.d), str(self.x), str(self.trial_id),
                str(self.seed), min_field,
                "nan" if math.isnan(self.fitted_exponent) else repr(self.fitted_exponent)]


CSV_COLUMNS = ["k", "d", "x", "trial_id", "seed", "min_max_dist", "fitted_exponent"]


def _counter_uniform(seed: int, trial: int, index: int) -> Fraction:
    """Deterministic uniform draw in [0,1): a keyed counter hashed to
    DEFAULT_PRECISION_BITS bits."""
    digest = hashlib.sha256(f"{seed}:{trial}:{index}".encode()).digest()
    value = int.from_bytes(digest, "big") >> (256 - DEFAULT_PRECISION_BITS)
    return Fraction(value, 1 << DEFAULT_PRECISION_BITS)


def draw_system(generator_spec: str, k: int, d: int, seed: int, trial: int) -> PolySystem:
    if generator_spec not in GENERATOR_SPECS:
        raise ValueError(f"unknown generator spec {generator_spec!r}")
    polys = []
    index = 0
    for _i in range(k):
        coeffs = []
        for j in range(1, d + 1):
            if generator_spec == "zero":
                coeffs.append(Real(Fraction(0)))
            elif generator_spec == "monomial" and j < d:
                coeffs.append(Real(Fraction(0)))
            else:
                coeffs.append(Real(_counter_uniform(seed, trial, index)))
            index += 1
        polys.append(Poly(tuple(coeffs)))
    return PolySystem(tuple(polys))


def _fit_exponent(xs: Sequence[int], mins: Sequence[Fraction]) -> float:
    """Least-squares slope of log(min) against log(x), negated."""
    pts = [(math.log(float(x)), math.log(float(m))) for x, m in zip(xs, mins)
           if m > 0]
    if len(pts) < 2:
        return float("nan")
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    var = sum((p[0] - mx) ** 2 for p in pts)
    cov = sum((p[0] - mx) * (p[1] - my) for p in pts)
    if var == 0:
        return float("nan")
    return -(cov / var)


def measure_exponent(generator_spec: str, k: int, d: int, x_grid: Sequence[int],
                     trials: int, config: Optional[SolverConfig] = None):
    """Seeded trials of min_{n<x} max_i ||f_i(n)|| across an ascending x grid.

    Returns (rows, summary); summary carries the per-trial fitted exponents
    and their median.  Rows whose minimum is exactly zero (degenerate
    generators) are flagged and excluded from the fit.
    """
    if config is None:
        config = SolverConfig()
    xs = sorted(set(int(x) for x in x_grid))
    if xs != [int(x) for x in x_grid]:
        raise ValueError("x grid must be ascending and duplicate-free")
    rows: List[ExperimentRow] = []
    exponents: List[float] = []
    for trial in range(trials):
        system = draw_system(generator_spec, k, d, config.seed, trial)
        try:
            results = _checkpointed_min(system, xs, enum_cap=config.enum_cap)
        except HorizonCapError:
            for x in xs:
                rows.append(ExperimentRow(k, d, x, trial, config.seed,
                                          Fraction(-1), float("nan"), flagged=True))
            continue
        mins = [v for _n, v in results]
        exponent = _fit_exponent(xs, mins)
        if not math.isnan(exponent):
            exponents.append(exponent)
        for x, m in zip(xs, mins):
            rows.append(ExperimentRow(k, d, x, trial, config.seed, m, exponent,
                                      flagged=(m == 0)))
    exponents.sort()
    median = exponents[len(exponents) // 2] if exponents else float("nan")
    summary = {
        "generator_spec": generator_spec, "k": k, "d": d,
        "x_grid": xs, "trials": trials, "seed": config.seed,
        "fitted_exponents": exponents, "median_exponent": median,
    }
    return rows, summary
