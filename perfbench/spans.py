"""Spans around calls into fracparts, recorded from the benchmark process only.

The solver imports its helpers by name (`from .core import first_hit`), so a
function is wrapped in the namespace where its caller looks it up, for
example `fracparts.driver.first_hit` and `fracparts.expsum.hit_count`.  No
source file changes.  Spans are kept in memory while the run lasts and are
summarised when it ends; a span records its name, start, end, parent span and
operation id, plus the counts its note function reads from the call.

A span's self time is its duration minus the durations of its children.
The benchmark times each operation itself, apart from the spans; the self
times of an operation's spans must sum to that time, which holds when every
span of the operation nests under its root span and the root span covers
the operation.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info", "child_time")

    def __init__(self, name, parent, op):
        self.name = name
        self.start = None
        self.end = None
        self.parent = parent
        self.op = op
        self.info = None
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._patches = []
        self.op = None          # id of the operation now running; None: no spans

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, self.op)
        self._stack.append(span)
        self.spans.append(span)
        # read the clock last: no allocation, so no garbage collection, lies
        # between it and the caller's own clock read
        span.start = _clock()
        return span

    def close(self, span: Span):
        span.end = _clock()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration

    def wrap(self, module: str, attr: str, name: str,
             note: Optional[Callable] = None):
        """Replace module.attr by a wrapper that records a span per call.

        note(args, kwargs, result, error) returns a dict kept on the span.
        """
        mod = importlib.import_module(module)
        orig = getattr(mod, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return orig(*args, **kwargs)
            span = tracer.open(name)
            result = error = None
            try:
                result = orig(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                tracer.close(span)
                if note is not None:
                    span.info = note(args, kwargs, result, error)

        setattr(mod, attr, wrapper)
        self._patches.append((mod, attr, orig))

    def restore(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()


# ---------------------------------------------------------------------------
# What is wrapped, and the counts read from each call.
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _floor(x) -> int:
    from fracparts.core import Real
    v = x.value if isinstance(x, Real) else x
    return int(v.__floor__())


def _note_hit_count(args, kwargs, result, error):
    points = max(_floor(_arg(args, kwargs, 2, "x")), 0) if error is None else 0
    return {"points": points, "key": (id(args[0]), id(args[1]))}


def _note_first_hit(args, kwargs, result, error):
    from fracparts.core import horizon_count
    points = result if result is not None else horizon_count(_arg(args, kwargs, 2, "x"))
    return {"points": points if error is None else 0,
            "key": (id(args[0]), id(args[1]))}


def _note_checkpointed_min(args, kwargs, result, error):
    return {"k": args[0].k, "points": max(int(c) for c in args[1]) - 1}


def _note_large_coefficients(args, kwargs, result, error):
    from fracparts.expsum import LARGE_COEFFICIENTS, frequency_caps
    if error is not None or result is None:
        return {"branch": None}
    info = {"branch": result.branch}
    if result.branch == LARGE_COEFFICIENTS:
        box = 1
        for c in frequency_caps(args[1]):
            box *= 2 * c + 1
        info["pairs"] = (box - 1) // 2 * result.x_floor
        info["kept"] = len(result.witnesses) // 2   # each witness comes with its mirror
    return info


def _note_build_relations(args, kwargs, result, error):
    dich = _arg(args, kwargs, 3, "dich")
    return {"witnesses": len(dich.witnesses),
            "kept": len(result) if error is None else 0}


def _note_generators(args, kwargs, result, error):
    from fracparts.latgeom import GeneratorSet
    return {"ok": error is None and isinstance(result, GeneratorSet)}


def _note_ok(args, kwargs, result, error):
    return {"ok": error is None}


def _note_bytes(args, kwargs, result, error):
    return {"bytes": len(result) if error is None else 0}


# determinant, inverse, solve and kernel helpers
INTLINALG = ("det_bareiss", "det_fraction", "frac_inverse", "solve_integer",
             "kernel_columns", "column_echelon", "lattice_det_from_columns",
             "gram_det")

WRAPS = [
    ("fracparts.expsum", "hit_count", "core.hit_count", _note_hit_count),
    ("fracparts.driver", "first_hit", "core.first_hit", _note_first_hit),
    ("fracparts.driver", "_checkpointed_min", "core.checkpointed_min",
     _note_checkpointed_min),
    ("fracparts.driver", "large_coefficients", "expsum.large_coefficients",
     _note_large_coefficients),
    ("fracparts.expsum", "_abs_sum_exact_phase", "expsum.exact_reeval", None),
    ("fracparts.driver", "build_relations", "diophantine.build_relations",
     _note_build_relations),
    ("fracparts.diophantine", "best_rational", "diophantine.best_rational", None),
    ("fracparts.driver", "cluster_by_denominator",
     "denomstruct.cluster_by_denominator", None),
    ("fracparts.driver", "quasi_orthogonal_generators",
     "latgeom.quasi_orthogonal_generators", _note_generators),
    ("fracparts.latgeom", "reduce_basis", "latgeom.reduce_basis", None),
    ("fracparts.reduction", "reduce_basis", "latgeom.reduce_basis", None),
    ("fracparts.driver", "reduce_dimension", "reduction.reduce_dimension", _note_ok),
    ("fracparts.driver", "lift_solution", "reduction.lift_solution", None),
    ("fracparts.driver", "density_invariant", "reduction.density_invariant", None),
    ("fracparts.reduction", "verify_certificate", "reduction.verify_certificate", None),
    ("fracparts.serialize", "certificate_bytes", "serialize.certificate_bytes",
     _note_bytes),
] + [(mod, fn, "intlinalg", None)
     for mod in ("fracparts.latgeom", "fracparts.reduction") for fn in INTLINALG]


def install(tracer: Tracer):
    for module, attr, name, note in WRAPS:
        if hasattr(importlib.import_module(module), attr):
            tracer.wrap(module, attr, name, note)


# ---------------------------------------------------------------------------
# Per-layer metrics.
# ---------------------------------------------------------------------------

# root span names of the benchmark's operations
SOLVE, TRIAL, REPLAY = "driver.solve", "driver.measure_exponent", "replay"


# The self times of an operation's spans may differ from the time measured
# around it by the clock reads between the two, and by the host preempting
# the process there (a scheduler slice is a few milliseconds).
SELF_SUM_TOL_S = 0.01
SELF_SUM_TOL_REL = 0.02


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def summarise(tracer: Tracer, op_stats: Dict[int, dict],
              scales: Dict[int, float], measured: Dict[int, float]) -> Dict[str, float]:
    """Per-layer metrics; times and counts are per operation (solve or trial).

    op_stats maps a solve's op id to its SolveStats counts, scales maps each
    op id to the machine-speed factor its times are multiplied by, and
    measured maps each op id to the time the benchmark measured around it.
    """
    incl = defaultdict(float)
    self_t = defaultdict(float)
    calls = defaultdict(int)
    by_op = defaultdict(list)

    def dur(s):
        return s.duration * scales[s.op]

    def self_time(s):
        return s.self_time * scales[s.op]

    for s in tracer.spans:
        incl[s.name] += dur(s)
        self_t[s.name] += self_time(s)
        calls[s.name] += 1
        by_op[s.op].append(s)

    ops = calls[SOLVE] + calls[TRIAL]
    per_op = (lambda v: v / ops) if ops else (lambda v: 0.0)
    m: Dict[str, float] = {}

    # core: points scanned; a first_hit rescans what a hit_count of the same
    # system and tolerances already covered in the same solve
    scan_points = rescan = 0
    for spans in by_op.values():
        covered = defaultdict(int)
        for s in spans:
            if s.name == "core.hit_count":
                scan_points += s.info["points"]
                covered[s.info["key"]] = max(covered[s.info["key"]], s.info["points"])
            elif s.name == "core.first_hit":
                scan_points += s.info["points"]
                rescan += min(s.info["points"], covered[s.info["key"]])
    m["core.hit_count.s"] = per_op(incl["core.hit_count"])
    m["core.first_hit.s"] = per_op(incl["core.first_hit"])
    m["core.scan.points"] = per_op(scan_points)
    m["core.scan.us_per_point"] = 1e6 * _ratio(
        incl["core.hit_count"] + incl["core.first_hit"], scan_points)
    m["core.first_hit.rescan_points"] = per_op(rescan)

    cm = [s for s in tracer.spans if s.name == "core.checkpointed_min"]
    m["core.checkpointed_min.s"] = per_op(incl["core.checkpointed_min"])
    for k in (1, 2, 3):
        ks = [s for s in cm if s.info["k"] == k]
        m[f"core.checkpointed_min.us_per_point.k{k}"] = 1e6 * _ratio(
            sum(dur(s) for s in ks), sum(s.info["points"] for s in ks))
    m["scan_mpoints_per_s"] = 1e-6 * _ratio(
        sum(s.info["k"] * s.info["points"] for s in cm), incl[TRIAL])

    lc = [s for s in tracer.spans if s.name == "expsum.large_coefficients"]
    scanned = [s for s in lc if "pairs" in s.info]
    pairs = sum(s.info["pairs"] for s in scanned)
    m["expsum.large_coefficients.s"] = per_op(incl["expsum.large_coefficients"])
    m["expsum.large_coefficients.calls"] = per_op(len(lc))
    m["expsum.box_scan.self_s"] = per_op(self_t["expsum.large_coefficients"])
    m["expsum.box_scan.pairs"] = per_op(pairs)
    m["expsum.box_scan.ns_per_pair"] = 1e9 * _ratio(
        sum(self_time(s) for s in scanned), pairs)
    m["expsum.exact_reeval.s"] = per_op(incl["expsum.exact_reeval"])
    m["expsum.exact_reeval.calls"] = per_op(calls["expsum.exact_reeval"])
    m["expsum.witness_keep_ratio"] = _ratio(
        sum(s.info["kept"] for s in scanned), calls["expsum.exact_reeval"])
    m["expsum.branch.hit_density"] = per_op(
        sum(s.info["branch"] == "hit-density" for s in lc))
    m["expsum.branch.large_coefficients"] = per_op(
        sum(s.info["branch"] == "large-coefficients" for s in lc))

    br = [s for s in tracer.spans if s.name == "diophantine.build_relations"]
    for name in ("diophantine.build_relations", "diophantine.best_rational"):
        m[f"{name}.s"] = per_op(incl[name])
        m[f"{name}.calls"] = per_op(calls[name])
    m["diophantine.relation_keep_ratio"] = _ratio(
        sum(s.info["kept"] for s in br), sum(s.info["witnesses"] for s in br))

    m["denomstruct.cluster_by_denominator.s"] = per_op(
        incl["denomstruct.cluster_by_denominator"])

    qog = "latgeom.quasi_orthogonal_generators"
    m[f"{qog}.s"] = per_op(incl[qog])
    m[f"{qog}.self_s"] = per_op(self_t[qog])
    m[f"{qog}.calls"] = per_op(calls[qog])
    m["latgeom.reduce_basis.s"] = per_op(incl["latgeom.reduce_basis"])
    m["latgeom.reduce_basis.calls"] = per_op(calls["latgeom.reduce_basis"])
    m["latgeom.generator_ok_ratio"] = _ratio(
        sum(s.info["ok"] for s in tracer.spans if s.name == qog), calls[qog])

    m["intlinalg.s"] = per_op(incl["intlinalg"])
    m["intlinalg.calls"] = per_op(calls["intlinalg"])

    rd = "reduction.reduce_dimension"
    m[f"{rd}.s"] = per_op(incl[rd])
    m[f"{rd}.calls"] = per_op(calls[rd])
    m["reduction.reduce_ok_ratio"] = _ratio(
        sum(s.info["ok"] for s in tracer.spans if s.name == rd), calls[rd])
    for name in ("reduction.lift_solution", "reduction.density_invariant",
                 "reduction.verify_certificate"):
        m[f"{name}.s"] = per_op(incl[name])

    m["driver.solve.self_s"] = per_op(self_t[SOLVE])
    m["driver.reductions"] = per_op(sum(st["reductions"] for st in op_stats.values()))
    m["driver.fallbacks"] = per_op(sum(st["fallbacks"] for st in op_stats.values()))
    m["driver.q0_tried"] = per_op(calls[qog])
    m["driver.measure_exponent.self_s"] = per_op(self_t[TRIAL])

    cb = [s for s in tracer.spans if s.name == "serialize.certificate_bytes"]
    m["serialize.certificate_bytes.s"] = per_op(incl["serialize.certificate_bytes"])
    m["serialize.cert_bytes"] = _ratio(sum(s.info["bytes"] for s in cb), len(cb))

    replays = [dur(s) for s in tracer.spans if s.name == REPLAY]
    m["replay_ms_p50"] = 1e3 * statistics.median(replays) if replays else 0.0

    m["trace.self_sum_max_err_s"], m["trace.self_sum_ok"] = self_sum_error(by_op, measured)
    return m


def self_sum_error(by_op: Dict[int, List[Span]], measured: Dict[int, float]):
    """The largest difference between the summed self times of an operation's
    spans and its measured time, and whether every difference is in bounds."""
    err, ok = 0.0, set(by_op) == set(measured)
    for op, t in measured.items():
        diff = abs(sum(s.self_time for s in by_op.get(op, ())) - t)
        err = max(err, diff)
        ok = ok and diff <= SELF_SUM_TOL_S + SELF_SUM_TOL_REL * t
    return err, ok
