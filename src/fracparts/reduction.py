"""Dimension reduction: from quasi-orthogonal generators with a common
denominator to a strictly smaller polynomial system, plus the lifting map
back and the density bookkeeping.

Soundness is never assumed: a lifted solution is re-evaluated exactly
against the parent system and rejected loudly if any tolerance fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .core import Epsilons, Poly, PolySystem, Real, SystemState, eval_system, parse_rational
from .intlinalg import adjugate, solve_integer
from .latgeom import GeneratorSet, decisively_in_region, max_minor, scaled_h_rows, solution_lattice

class ReductionPreconditionError(ValueError):
    pass


class DegenerateHorizonError(ValueError):
    """The reduced horizon collapsed to y <= 1; reduction is unprofitable."""


class LiftVerificationError(AssertionError):
    """A lifted solution failed exact re-evaluation against the parent."""

    def __init__(self, index: int, dist: Fraction, bound: Fraction):
        self.index = index
        self.dist = dist
        self.bound = bound
        super().__init__(
            f"constraint {index}: distance {dist} >= tolerance {bound}")


class HorizonOverflowError(ValueError):
    pass


# Desk-scale default for the reduction constant delta.  The proof only needs
# delta small in terms of k and d; 1/4 keeps the child horizon y ~
# delta^3-sized windows usable at desk scale, and the exact lift
# re-verification bounds the risk of a too-large choice.
DEFAULT_DELTA_CONST = Fraction(1, 4)

# The relation-quality exponent C of the density invariant's exponents
# 3C^2 - C^2/k^3.
C_CFG = 4


def _linf_col(Z: Sequence[Sequence[int]], col: int) -> int:
    return max(abs(Z[row][col]) for row in range(len(Z)))


@dataclass
class ReductionStep:
    """One executed dimension reduction.

    A certificate records the step's choice, its generators, and the
    child's hit, plus q0 = 1 and D2 (`to_dict`).  Every other field follows
    from the parent and the generators, and replay rebuilds it with
    `reduce_dimension`.
    """

    k: int
    k_prime: int
    r: int
    perm: Tuple[int, ...]         # position p holds original index perm[p] (0-based)
    D1: int
    D2: int
    Z: List[List[int]]            # columns: reduced basis of the solution lattice
    b_prime_upper: List[List[int]]   # rows i = 1..r, slots j = 1..d
    b_prime: List[List[int]]         # rows i = r+1..k, slots j = 1..d
    g: PolySystem
    eps_prime: Epsilons
    y: Fraction
    gens: GeneratorSet
    B_prime: Tuple[Fraction, ...]
    child_hit: Optional[int] = None

    def child_state(self) -> SystemState:
        return SystemState(self.g, self.eps_prime, self.y)

    def to_dict(self) -> dict:
        # q0 is always 1; it and D2 let a reader recompose n as child_hit
        # times q0 * D2 over the chain without rebuilding it
        return {"gens": self.gens.to_dict(), "q0": 1, "D2": self.D2,
                "child_hit": self.child_hit}


def read_step(record: dict) -> GeneratorSet:
    """Read a chain entry (`to_dict` above): its generators, with integer q0,
    D2 and child hit (or a null hit).  Raises KeyError, TypeError or ValueError."""
    gens = GeneratorSet.from_dict(record["gens"])
    for key in ("q0", "D2"):
        if type(record[key]) is not int:
            raise ValueError(f"{key!r} must be an integer")
    if not (record["child_hit"] is None or type(record["child_hit"]) is int):
        raise ValueError("'child_hit' must be an integer or null")
    return gens


def reduce_dimension(state: SystemState, gens: GeneratorSet) -> ReductionStep:
    """Build the k' = k - r reduced system from a generator set.

    The generators are the step's only input besides the parent: the region
    (B, eta) they must lie in is the parent's own (`SystemState.region`), so a
    generator outside it raises ReductionPreconditionError, as does a set
    that is not r h vectors of length k with r a vectors of length d.  Their
    a-vectors are integers (the common denominator q0 is 1, as they come
    straight from the relation lattice), and the window constant is
    DEFAULT_DELTA_CONST.  The solution lattice and D1, D2 come from
    `latgeom.solution_lattice`, the b' table is solved exactly over Z, and a
    collapsed child horizon raises DegenerateHorizonError.  ArithmeticError
    means an invariant failed: the determinant identity, or a b' slot with
    no integer solution.
    """
    k, d = state.k, state.system.d
    r = gens.r
    if not (1 <= r < k):
        raise ReductionPreconditionError(f"need 1 <= r < k, got r={r}, k={k}")
    if (len(gens.a_vecs) != r or any(len(h) != k for h in gens.h_vecs)
            or any(len(a) != d for a in gens.a_vecs)):
        raise ReductionPreconditionError(
            f"need {r} h vectors of length k = {k} and as many a vectors of length d = {d}")
    delta = DEFAULT_DELTA_CONST
    x = state.y
    B, eta = state.region

    # each generator is a point of the region, with coefficient error slack
    for ell in range(r):
        if not decisively_in_region(state.system, gens.h_vecs[ell], gens.a_vecs[ell],
                                    B, eta):
            raise ReductionPreconditionError(
                f"generator {ell} is not in the region |h| <= B, residual_j <= eta^j")

    M, h_rows = scaled_h_rows(gens.h_vecs, B)  # M times h~ = h_i / B_i
    minor, lead = max_minor(h_rows)
    if minor == 0:
        raise ReductionPreconditionError("generator h vectors are rank deficient")
    perm = tuple(list(lead) + [c for c in range(k) if c not in lead])

    H1 = [[gens.h_vecs[ell][perm[p]] for p in range(r)] for ell in range(r)]
    H2 = [[gens.h_vecs[ell][perm[p]] for p in range(r, k)] for ell in range(r)]
    D1, D2, Z = solution_lattice(H1, H2)  # Z: (k-r) x (k-r), columns generate

    # b' tables: H1 u_j - H2 w_j = D2^j a_j, solved exactly over Z, every
    # slot j from one echelon form.  The columns of [H1 | -H2] generate
    # Lambda_2, of index D2 in Z^r, so D2 Z^r lies in it and every slot solves.
    A = [list(H1[ell]) + [-v for v in H2[ell]] for ell in range(r)]
    solved = solve_integer(A, [[D2 ** j * a[j - 1] for a in gens.a_vecs]
                               for j in range(1, d + 1)])
    if None in solved:
        raise ArithmeticError(f"no integer b' for slot {solved.index(None) + 1}, "
                              "though D2 Z^r lies in Lambda_2")
    b_upper = [[v[i] for v in solved] for i in range(r)]
    b_lower = [[v[i] for v in solved] for i in range(r, k)]

    # g = Z^-1 (f~(D2 X) - sum_j b'_j X^j), f~ the trailing block, on the
    # parent's integer form f = N / D, err = E / R, with Z^-1 = adj(Z) / det3:
    # one Fraction per child value and per radius; det3 is row 0 of Z times
    # column 0 of adj(Z), since Z adj(Z) = det3 I
    (D, N), (R, E) = state.system.numerators, state.system.radii
    adj = adjugate(Z)
    det3 = sum(z * adj_row[0] for z, adj_row in zip(Z[0], adj))
    tail = perm[r:]
    g_polys = []
    for adj_row in adj:
        coeffs = []
        for j in range(d):
            scale = D2 ** (j + 1)
            val = sum(z * (N[i][j] * scale - D * b[j])
                      for z, i, b in zip(adj_row, tail, b_lower))
            err = sum(abs(z) * E[i][j] for z, i in zip(adj_row, tail)) * scale
            coeffs.append(Real(Fraction(val, D * det3), Fraction(err, R * abs(det3))))
        g_polys.append(Poly(tuple(coeffs)))
    g = PolySystem(tuple(g_polys))

    B_perm = [B[perm[p]] for p in range(k)]
    B_prime = tuple(delta ** -2 * B_perm[r + i] * _linf_col(Z, i)
                    for i in range(k - r))
    eps_prime = Epsilons(tuple(1 / b for b in B_prime))

    min_h = Fraction(min(max(map(abs, row)) for row in h_rows), M)
    y_new = delta * x * min_h / D2
    if y_new <= 1:
        raise DegenerateHorizonError(f"reduced horizon {y_new} <= 1")

    return ReductionStep(
        k=k, k_prime=k - r, r=r, perm=perm, D1=D1, D2=D2, Z=Z,
        b_prime_upper=b_upper, b_prime=b_lower, g=g, eps_prime=eps_prime,
        y=y_new, gens=gens, B_prime=B_prime)


def check_hit(system: PolySystem, eps: Epsilons, n: int) -> List[Fraction]:
    """The exact distances of system at n, each checked below its tolerance.

    Raises LiftVerificationError at the first tolerance missed.
    """
    dists = eval_system(system, n)
    for i, (dist, e) in enumerate(zip(dists, eps.eps)):
        if dist >= e:
            raise LiftVerificationError(i, dist, e)
    return dists


def lift_solution(step: ReductionStep, n_prime: int, parent: SystemState):
    """Map a solution of the reduced system to the parent: n = n' * step.D2.

    The child's hit and the lifted n are both checked exactly (check_hit);
    returns n and its distances on the parent.
    """
    if n_prime < 1:
        raise ValueError("n' must be a positive integer")
    if not (n_prime < step.y):
        raise HorizonOverflowError(f"n' = {n_prime} not below child horizon {step.y}")
    check_hit(step.g, step.eps_prime, n_prime)
    n = n_prime * step.D2
    if not (n < parent.y):
        raise HorizonOverflowError(f"lifted n = {n} not below parent horizon {parent.y}")
    return n, check_hit(parent.system, parent.eps, n)


@dataclass
class DensityReport:
    lhs_str: str
    rhs_str: str
    ratio: float
    log10_ratio: float
    passed: bool
    C_impl: float           # may be inf as a float; the log form is always finite
    log10_C_impl: float

    def to_dict(self) -> dict:
        return {"lhs": self.lhs_str, "rhs": self.rhs_str, "ratio": self.ratio,
                "log10_ratio": self.log10_ratio, "passed": self.passed,
                "C_impl": self.C_impl, "log10_C_impl": self.log10_C_impl}


def implementation_constant(step: ReductionStep) -> float:
    """log10 of this implementation's provable density-invariant slack.

    The chain ratio >= 1/C_impl follows from the construction's own bounds:
    prod B' = delta^(-2k') * (prod ||z_i||_inf) * (tail B) exactly, the LLL
    orthogonality defect prod||z_i|| <= 2^(k'(k'-1)/4) * D1/D2, Hadamard
    D1 <= (head B) * r^(r/2) * tilde_product, and min||h~|| >= tilde_product
    (each factor lies in (0, 1]).  Collecting terms, with C = C_CFG and
    delta = DEFAULT_DELTA_CONST:

        C_impl = delta^-(1 + 2 k' E') * 2^(k'(k'-1)/4 * E') * r^(r E' / 2),
        E' = 3C^2 - C^2/k'^3.
    """
    C = C_CFG
    kp, r = step.k_prime, step.r
    E_new = float(3 * C * C - Fraction(C * C, kp ** 3))
    delta = float(DEFAULT_DELTA_CONST)
    return (-(1 + 2 * kp * E_new) * math.log10(delta)
            + (kp * (kp - 1) / 4) * E_new * math.log10(2)
            + (r * E_new / 2) * math.log10(r))


def density_invariant(parent: SystemState, step: ReductionStep) -> DensityReport:
    """Compare y' / (prod B')^(3C^2 - C^2/k'^3) with x / (prod B)^(3C^2 - C^2/k^3 - C^2/k^4).

    Computed in logs so astronomically large products stay finite; pass
    means lhs >= rhs / C_impl, where C_impl is the implementation's own
    provable slack for this step (see implementation_constant), recorded in
    the report.  C is C_CFG.
    """
    C = C_CFG
    k, kp = step.k, step.k_prime
    C2 = Fraction(C) ** 2
    E_new = 3 * C2 - C2 / kp ** 3
    E_old = 3 * C2 - C2 / k ** 3 - C2 / k ** 4

    def logf(fr: Fraction) -> float:
        return math.log(fr.numerator) - math.log(fr.denominator)

    log_bp = sum(logf(b) for b in step.B_prime)
    log_b = sum(logf(Fraction(b)) for b in parent.region[0])
    llhs = logf(step.y) - float(E_new) * log_bp
    lrhs = logf(parent.y) - float(E_old) * log_b
    lratio = llhs - lrhs
    ratio = math.exp(lratio) if lratio < 700 else math.inf
    lhs_s = f"{math.exp(llhs):.8g}" if abs(llhs) < 700 else f"exp({llhs:.8g})"
    rhs_s = f"{math.exp(lrhs):.8g}" if abs(lrhs) < 700 else f"exp({lrhs:.8g})"
    log10r = lratio / math.log(10)
    log10_C = implementation_constant(step)
    C_impl_val = 10.0 ** log10_C if log10_C < 308 else math.inf
    passed = log10r >= -log10_C - 1e-9
    return DensityReport(lhs_str=lhs_s, rhs_str=rhs_s, ratio=ratio,
                         log10_ratio=log10r, passed=passed, C_impl=C_impl_val,
                         log10_C_impl=log10_C)


# ---------------------------------------------------------------------------
# Certificates.
# ---------------------------------------------------------------------------

TERMINAL_FOUND = "found-n"
TERMINAL_EXHAUSTED = "exhausted"


@dataclass
class Certificate:
    """Replayable record: root problem, reduction chain, terminal outcome.

    Each chain entry is a step record, `ReductionStep.to_dict()`: the
    generators, q0 = 1, D2 and the child's hit, root first.
    """

    root: dict                      # SystemState.to_dict() of the root problem
    chain: List[dict]
    terminal: dict                  # {"kind": found-n|exhausted, ...}
    constants: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "chain": self.chain,
            "terminal": self.terminal,
            "constants": self.constants,
        }

    @staticmethod
    def from_dict(d: dict) -> "Certificate":
        return Certificate(d["root"], d["chain"], d["terminal"], d.get("constants", {}))


class CertificateRecordError(ValueError):
    """A record refused by its reader; ``check`` is 'root', 'chain', 'step{i}',
    'terminal' or 'constants'."""

    def __init__(self, section: str, index: Optional[int], exc: Exception):
        self.check = section if index is None else f"step{index}"
        self.detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        super().__init__(f"field {section!r}: {self.detail}")


def read_terminal(terminal: dict) -> Tuple[str, Optional[int], List[Fraction]]:
    """Read a terminal record: its kind, n and distances (None and [] when
    exhausted).  Raises KeyError, TypeError or ValueError."""
    kind = terminal["kind"]
    if kind == TERMINAL_EXHAUSTED:
        if type(terminal["reason"]) is not str:
            raise ValueError("'reason' must be a string")
        return kind, None, []
    if kind != TERMINAL_FOUND:
        raise ValueError(f"unknown kind {kind!r}")
    n, dists = terminal["n"], terminal["dists"]
    if type(n) is not int or n < 1:
        raise ValueError("'n' must be an integer, at least 1")
    if not isinstance(dists, list):
        raise ValueError("'dists' must be a list of rational strings")
    return kind, n, [parse_rational(text) for text in dists]


def read_constants(constants: dict, root: SystemState) -> None:
    """Read a constants record against its root: a present
    `within_theorem_hypothesis` must be the bool that the root's eps give,
    and an absent one claims nothing.  `config` is not read: it tuned the
    search, which replay does not re-run.  Raises ValueError."""
    if not isinstance(constants, dict):
        raise ValueError("need an object")
    within = root.eps.within_theorem_hypothesis
    if constants.get("within_theorem_hypothesis", within) is not within:
        raise ValueError(f"'within_theorem_hypothesis' must be {str(within).lower()}, "
                         "as the root's eps give")


def read_certificate(cert: Certificate):
    """The root state, each step's generators and the terminal's fields, each
    read by its record's reader, and the constants checked against the root.
    Raises CertificateRecordError."""
    section, index = "root", None
    try:
        root = SystemState.from_dict(cert.root)
        section, gens = "chain", []
        if not isinstance(cert.chain, list):
            raise ValueError("need a list of step records")
        for index, record in enumerate(cert.chain):
            gens.append(read_step(record))
        section, index = "terminal", None
        terminal = read_terminal(cert.terminal)
        section = "constants"
        read_constants(cert.constants, root)
    except (KeyError, TypeError, ValueError) as exc:
        raise CertificateRecordError(section, index, exc) from exc
    return root, gens, terminal


def verify_certificate(cert: Certificate) -> List[Tuple[str, bool, str]]:
    """Re-check a certificate without re-running any search.

    A record its reader refuses is the one failed check, `{record}.parse`;
    the constants' `within_theorem_hypothesis` is read against the root's
    eps, and their `config` is not read, since replay re-runs no search.
    Each chain step is rebuilt by reduce_dimension from its parent (the root,
    then the previous rebuilt child) and its recorded generators, and must
    give the same record, the child's hit apart.  Under a found n, each
    step's recorded child hit must lift by lift_solution to the hit recorded
    one step up, or to n at the root.  Returns (check name, ok, detail)
    triples; the certificate is valid iff every ok flag is True.
    """
    checks: List[Tuple[str, bool, str]] = []

    def add(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    try:
        root_state, gens, (kind, n, dists) = read_certificate(cert)
    except CertificateRecordError as exc:
        add(f"{exc.check}.parse", False, exc.detail)
        return checks
    parent, above = root_state, n
    for idx, (record, step_gens) in enumerate(zip(cert.chain, gens)):
        try:
            step = reduce_dimension(parent, step_gens)
        except Exception as exc:  # noqa: BLE001 - report, never crash replay
            add(f"step{idx}.rebuild", False, f"reduce_dimension raised {exc!r}")
            break
        differ = [key for key, value in step.to_dict().items()
                  if key != "child_hit" and value != record.get(key)]
        add(f"step{idx}.rebuild", not differ,
            "differs in " + ", ".join(differ) if differ else "")
        if kind == TERMINAL_FOUND:
            hit = record["child_hit"]
            try:
                lifted, _dists = lift_solution(step, hit, parent)
                add(f"step{idx}.lift", lifted == above,
                    f"child hit {hit} lifts to {lifted}, recorded {above}")
            except Exception as exc:  # noqa: BLE001 - report, never crash replay
                add(f"step{idx}.lift", False, f"lift_solution raised {exc!r}")
            above = hit
        parent = step.child_state()

    if kind == TERMINAL_FOUND:
        fresh = eval_system(root_state.system, n)
        add("terminal.dists_match", fresh == dists)
        add("terminal.meets_eps",
            all(dv < e for dv, e in zip(fresh, root_state.eps.eps)))
        add("terminal.in_horizon", n < root_state.y)
    else:
        # the reader has checked that its reason is a string
        add("terminal.exhausted", True)
    return checks
