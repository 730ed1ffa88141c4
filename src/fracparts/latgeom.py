"""Geometry of numbers: the scaled relation lattice, LLL reduction, quasi-
orthogonal generator extraction, and the sublattice determinant identity.

The LLL is the integral LLL (Cohen Alg. 2.6.7), updated in place: exact,
with integer Gram determinants that each swap updates rather than
recomputes.  Reduction quality constants are explicit: LLL at delta = 0.99
with the transform retained, successive minima estimated by reduced-basis
sup norms, and an exact shortest-vector enumeration available in small
dimensions to validate those estimates.  The residue-counting oracles that
cross-check the determinant identity by enumeration are part of the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from .core import PolySystem, coefficient_sums
from .intlinalg import (
    det_bareiss,
    det_fraction,
    frac_inverse,
    gram_det,
    identity,
    kernel_columns,
    lattice_det_from_columns,
    mat_mul,
)

LLL_DELTA = Fraction(99, 100)


class DependenceError(ValueError):
    pass


class SingularH1Error(ValueError):
    pass


class PrecisionError(ValueError):
    pass


def _linf(v: Sequence[Fraction]) -> Fraction:
    return max((abs(Fraction(x)) for x in v), default=Fraction(0))


def _dot(u, v) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def wedge_norm_sq(vectors: Sequence[Sequence[Fraction]]) -> Fraction:
    """Squared r-volume of the parallelepiped (Gram determinant), exact."""
    return gram_det(vectors)


def wedge_norm(vectors: Sequence[Sequence[Fraction]]) -> float:
    return math.sqrt(float(wedge_norm_sq(vectors)))


@dataclass
class LatticeBasis:
    """Basis rows over Q, optionally with the unimodular transform that
    produced them from the construction-order generators."""

    vectors: List[List[Fraction]]
    reduced_flag: bool = False
    minima_estimates: List[Fraction] = field(default_factory=list)
    transform: Optional[List[List[int]]] = None  # rows: new basis in old generators


def build_relation_lattice(system: PolySystem, B: Sequence, eta) -> LatticeBasis:
    """The (k+d)-dimensional scaled relation lattice.

    Generators: (1/B_i) e_i - sum_j (beta_ij / eta^j) e_{k+j} for each i, and
    (1/eta^j) e_{k+j} for each j, with beta_ij the system coefficients.
    Lattice points with sup norm <= 1 are exactly the integer pairs (h, a)
    with |h_i| <= B_i and |sum_i h_i beta_ij - a_j| <= eta^j.
    """
    k, d = system.k, system.d
    Bv = [Fraction(b) for b in B]
    if len(Bv) != k or any(b < 1 for b in Bv):
        raise ValueError("need one bound B_i >= 1 per polynomial")
    # the lemma hypothesis wants eta <= 1/100; the construction itself only
    # needs eta < 1/2 (so that unit-box points force integer a), and the
    # desk-scale examples exercise larger eta
    ev = Fraction(eta)
    if not (0 < ev < Fraction(1, 2)):
        raise ValueError("eta must lie in (0, 1/2)")
    max_err = max((system.coeff(i, j).err for i in range(1, k + 1)
                   for j in range(1, d + 1)), default=Fraction(0))
    if max_err > ev ** d / 2 ** 20:
        raise PrecisionError(
            f"coefficient rounding radius {max_err} too coarse for eta^d = {ev ** d}")
    dim = k + d
    rows = []
    for i in range(k):
        row = [Fraction(0)] * dim
        row[i] = 1 / Bv[i]
        for j in range(1, d + 1):
            row[k + j - 1] = -system.coeff(i + 1, j).value / ev ** j
        rows.append(row)
    for j in range(1, d + 1):
        row = [Fraction(0)] * dim
        row[k + j - 1] = 1 / ev ** j
        rows.append(row)
    return LatticeBasis(vectors=rows, transform=identity(dim))


def _integral_rows(rows) -> Tuple[int, List[List[int]]]:
    """(L, L * rows) with L the common denominator of the entries."""
    rows = [[Fraction(x) for x in row] for row in rows]
    L = math.lcm(*(x.denominator for row in rows for x in row))
    return L, [[int(x * L) for x in row] for row in rows]


def _integral_gram(rows: Sequence[Sequence[int]]) -> Tuple[List[int], List[List[int]]]:
    """Gram determinants d and lambda of integer rows, all integers.

    d[0] = 1 and d[i+1] is the Gram determinant of rows 0..i, so the squared
    Gram-Schmidt norm of row i is d[i+1] / d[i]; lambda[i][j] = d[j+1] mu_ij
    for j < i.  Raises DependenceError when the rows are dependent.
    """
    n = len(rows)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = sum(a * b for a, b in zip(rows[i], rows[j]))
            for t in range(j):
                u = (d[t + 1] * u - lam[i][t] * lam[j][t]) // d[t]
            if j < i:
                lam[i][j] = u
            else:
                d[i + 1] = u
        if d[i + 1] == 0:
            raise DependenceError("input vectors are linearly dependent")
    return d, lam


def reduce_basis(basis: LatticeBasis) -> LatticeBasis:
    """LLL reduction at LLL_DELTA; same lattice, transform kept.

    Integral LLL (Cohen Alg. 2.6.7), updated in place: on the rows scaled by
    their common denominator L, the Gram determinants d and lambda = d mu
    stay integers and each swap updates them in O(n).  The steps are those
    of rational LLL with full size reduction before each Lovasz test, mu
    rounded half to even.
    """
    L, vecs = _integral_rows(basis.vectors)
    n = len(vecs)
    U = [list(row) for row in (basis.transform or identity(n))]
    d, lam = _integral_gram(vecs)
    num, den = LLL_DELTA.numerator, LLL_DELTA.denominator
    kk = 1
    while kk < n:
        lk = lam[kk]
        for j in range(kk - 1, -1, -1):
            r = round(Fraction(lk[j], d[j + 1]))
            if r:
                vecs[kk] = [a - r * b for a, b in zip(vecs[kk], vecs[j])]
                U[kk] = [a - r * b for a, b in zip(U[kk], U[j])]
                lj = lam[j]
                for t in range(j):
                    lk[t] -= r * lj[t]
                lk[j] -= r * d[j + 1]
        # B_kk >= (delta - mu^2) B_{kk-1}, times den * d[kk] * d[kk-1] > 0
        lk1 = lk[kk - 1]
        if den * (d[kk + 1] * d[kk - 1] + lk1 * lk1) >= num * d[kk] ** 2:
            kk += 1
            continue
        vecs[kk], vecs[kk - 1] = vecs[kk - 1], vecs[kk]
        U[kk], U[kk - 1] = U[kk - 1], U[kk]
        lam[kk][:kk - 1], lam[kk - 1][:kk - 1] = lam[kk - 1][:kk - 1], lam[kk][:kk - 1]
        B = (d[kk - 1] * d[kk + 1] + lk1 * lk1) // d[kk]
        for li in lam[kk + 1:]:
            t = li[kk]
            li[kk] = (d[kk + 1] * li[kk - 1] - lk1 * t) // d[kk]
            li[kk - 1] = (B * t + lk1 * li[kk]) // d[kk + 1]
        d[kk] = B
        kk = max(kk - 1, 1)
    vectors = [[Fraction(x, L) for x in row] for row in vecs]
    estimates = sorted(_linf(v) for v in vectors)
    return LatticeBasis(vectors=vectors, reduced_flag=True, minima_estimates=estimates,
                        transform=U)


def shortest_vector(basis: LatticeBasis) -> Tuple[List[Fraction], Fraction]:
    """Exact shortest nonzero lattice vector (l2) by depth-first enumeration.

    Intended for validating reduced-basis estimates in dimension <= 8.
    """
    red = basis if basis.reduced_flag else reduce_basis(basis)
    vecs = red.vectors
    n = len(vecs)
    if n > 8:
        raise ValueError("exact enumeration is limited to dimension <= 8")
    L, rows = _integral_rows(vecs)
    d, lam = _integral_gram(rows)
    mu = [[Fraction(lam[i][j], d[j + 1]) for j in range(i)] for i in range(n)]
    norms = [Fraction(d[i + 1], d[i] * L * L) for i in range(n)]
    best_sq = min(_dot(v, v) for v in vecs)
    best_x = None

    def recurse(i, partial, coeffs):
        nonlocal best_sq, best_x
        if i < 0:
            if any(coeffs) and partial < best_sq:
                best_sq = partial
                best_x = list(coeffs)
            return
        center = -sum(coeffs[j] * mu[j][i] for j in range(i + 1, n))
        x0 = round(center)
        step = 0
        while True:
            done = 0
            for x in ({x0} if step == 0 else {x0 - step, x0 + step}):
                add = (x - center) ** 2 * norms[i]
                if partial + add <= best_sq:
                    coeffs[i] = x
                    recurse(i - 1, partial + add, coeffs)
                    coeffs[i] = 0
                else:
                    done += 1
            if done == (1 if step == 0 else 2):
                break
            step += 1

    recurse(n - 1, Fraction(0), [0] * n)
    if best_x is None:  # b_1 itself is the minimum
        best_x = [1] + [0] * (n - 1)
        best_sq = _dot(vecs[0], vecs[0])
    vec = [sum(best_x[j] * vecs[j][t] for j in range(n)) for t in range(len(vecs[0]))]
    return vec, best_sq


@dataclass
class GeneratorSet:
    """r quasi-orthogonal relations (h, a) extracted from the reduced lattice.

    They are a reduction step's only recorded choice: the region they lie
    in, their measures and everything the step derives follow from them and
    the parent level (see `reduction.region`).
    """

    h_vecs: Tuple[Tuple[int, ...], ...]
    a_vecs: Tuple[Tuple[int, ...], ...]

    @property
    def r(self) -> int:
        return len(self.h_vecs)

    def h_tilde(self, B: Sequence) -> List[List[Fraction]]:
        """The rows h_i / B_i."""
        return [[Fraction(h) / b for h, b in zip(hv, B)] for hv in self.h_vecs]

    def to_dict(self) -> dict:
        return {"h_vecs": [list(h) for h in self.h_vecs],
                "a_vecs": [list(a) for a in self.a_vecs]}

    @staticmethod
    def from_dict(d: dict) -> "GeneratorSet":
        return GeneratorSet(h_vecs=tuple(tuple(h) for h in d["h_vecs"]),
                            a_vecs=tuple(tuple(a) for a in d["a_vecs"]))


@dataclass
class NoShortVector:
    """Dichotomy outcome: the reduced lattice offers no usable generator subset."""

    reason: str


def membership_residuals(system: PolySystem, h: Sequence[int], a: Sequence[int]):
    """Centers and interval radii of |sum_i h_i beta_ij - a_j| per slot j."""
    sums = coefficient_sums(system, h)
    return ([abs(s.value - a_j) for s, a_j in zip(sums, a)],
            [s.err for s in sums])


def decisively_in_region(system: PolySystem, h: Sequence[int], a: Sequence[int],
                         B: Sequence[Fraction], eta: Fraction) -> bool:
    """True when (h, a) is in the region R with the coefficient error interval
    decisively inside (no false positives from rounded coefficients)."""
    if any(abs(hi) > b for hi, b in zip(h, B)):
        return False
    centers, slacks = membership_residuals(system, h, a)
    return all(c + s <= eta ** j for j, (c, s) in enumerate(zip(centers, slacks), start=1))


def max_minor(rows: Sequence[Sequence[Fraction]]) -> Tuple[Fraction, Tuple[int, ...]]:
    """Largest |det| over the r x r minors of r rows, and the lexicographically
    first columns that attain it."""
    best_val, best_cols = None, None
    for cols in combinations(range(len(rows[0])), len(rows)):
        val = abs(det_fraction([[row[c] for c in cols] for row in rows]))
        if best_val is None or val > best_val:
            best_val, best_cols = val, cols
    return best_val, best_cols


def subset_measures(rows: Sequence[Sequence[Fraction]]) -> Tuple[Fraction, Fraction]:
    """The generator search's measures of rescaled rows h~: the exact
    orthogonality ratio squared wedge^2 / prod ||v||_2^2 (0 for dependent
    rows) and the sup-norm product prod ||v||_inf."""
    wsq = wedge_norm_sq(rows)
    l2sq = tp = Fraction(1)
    for v in rows:
        l2sq *= _dot(v, v)
        tp *= _linf(v)
    return (wsq / l2sq if wsq else Fraction(0)), tp


def quasi_orthogonal_generators(system: PolySystem, B: Sequence, eta,
                                N_target: int, c_orth: float,
                                max_r: Optional[int] = None):
    """Extract r quasi-orthogonal (h, a) pairs from the reduced relation lattice.

    Walks the maximal reduced-basis prefix of sup norm <= 1 (each member
    re-verified as a region point exactly), then searches index subsets by
    descending size; a subset qualifies when the rescaled h vectors have
    orthogonality ratio >= c_orth and sup-norm product within the slack
    factor 2^(k+d) of N_target^(-1/(d+1)).  Among qualifying subsets of a
    size, the one with the largest maximal r x r minor wins, ties
    lexicographic.  Returns NoShortVector when nothing qualifies.  ``max_r``
    caps the subset size (a caller that must leave at least one polynomial
    behind passes k - 1).
    """
    if N_target < 2:
        raise ValueError("N_target must be at least 2")
    k, d = system.k, system.d
    Bv = tuple(Fraction(b) for b in B)
    ev = Fraction(eta)
    red = reduce_basis(build_relation_lattice(system, Bv, ev))

    prefix = []  # (h, a) integer pairs for the usable prefix
    for row, coeffs in zip(red.vectors, red.transform):
        if _linf(row) > 1:
            break
        h = tuple(coeffs[:k])
        a = tuple(coeffs[k:])
        if not decisively_in_region(system, h, a, Bv, ev):
            break
        prefix.append((h, a))
    J = len(prefix)
    if J == 0:
        return NoShortVector("no reduced basis vector fits in the unit box")

    c_orth_sq = Fraction(c_orth) ** 2
    # tilde_product^(d+1) <= (2^(k+d))^(d+1) / N_target, compared exactly
    prod_bound_pow = Fraction(2 ** (k + d)) ** (d + 1) / N_target

    htils = [[Fraction(h_i) / b for h_i, b in zip(h, Bv)] for h, _a in prefix]
    r_hi = min(J, k if max_r is None else max_r)
    for r in range(r_hi, 0, -1):
        best = None  # (max_minor_abs, subset)
        for subset in combinations(range(J), r):
            rows = [htils[i] for i in subset]
            ratio_sq, tp = subset_measures(rows)
            if ratio_sq == 0 or ratio_sq < c_orth_sq or tp ** (d + 1) > prod_bound_pow:
                continue
            minor, _cols = max_minor(rows)
            if best is None or minor > best[0]:
                best = (minor, subset)
        if best is not None:
            _minor, subset = best
            return GeneratorSet(h_vecs=tuple(prefix[i][0] for i in subset),
                                a_vecs=tuple(prefix[i][1] for i in subset))
    return NoShortVector(
        f"no subset of the {J}-vector prefix met the orthogonality/product bounds")


# ---------------------------------------------------------------------------
# Sublattice determinant identity.
# ---------------------------------------------------------------------------


@dataclass
class SublatticeReport:
    det1: int
    det2: int
    det3: int
    identity_holds: bool

    def to_dict(self) -> dict:
        return {"det1": self.det1, "det2": self.det2, "det3": self.det3,
                "identity_holds": self.identity_holds}


def solution_lattice_basis(H1: Sequence[Sequence[int]],
                           H2: Sequence[Sequence[int]]) -> List[List[int]]:
    """Column basis of {y in Z^l : H1 x = H2 y solvable in integers x}.

    Computed as the projection of the integer kernel of [M | det(H1) I] with
    M = det(H1) H1^{-1} H2 (an integer matrix).
    """
    r = len(H1)
    ell = len(H2[0])
    D = det_bareiss(H1)
    if D == 0:
        raise SingularH1Error("H1 must be invertible")
    H1inv = frac_inverse(H1)
    A = mat_mul(H1inv, H2)
    M = [[int(D * A[i][j]) for j in range(ell)] for i in range(r)]
    for i in range(r):
        for j in range(ell):
            if D * A[i][j] != M[i][j]:
                raise ArithmeticError("adjugate product was not integral")
    stacked = [[M[i][j] for j in range(ell)] + [D * int(i == t) for t in range(r)]
               for i in range(r)]
    ker = kernel_columns(stacked)
    if len(ker) != ell:
        raise ArithmeticError("solution lattice is not full rank")
    return [[ker[j][i] for j in range(ell)] for i in range(ell)]  # columns -> matrix


def sublattice_determinants(H1: Sequence[Sequence[int]],
                            H2: Sequence[Sequence[int]]) -> SublatticeReport:
    """det(Lambda_1), det(Lambda_2), det(Lambda_3) and the product identity.

    Lambda_1 = H1 Z^r, Lambda_2 = H1 Z^r + H2 Z^l, Lambda_3 the solution
    lattice; all three determinants are computed independently and the
    identity det1 = det2 * det3 is checked, not assumed.
    """
    r = len(H1)
    det1 = abs(det_bareiss(H1))
    if det1 == 0:
        raise SingularH1Error("H1 must be invertible")
    combined = [list(H1[i]) + list(H2[i]) for i in range(r)]
    det2 = lattice_det_from_columns(combined)
    Zb = solution_lattice_basis(H1, H2)
    det3 = abs(det_bareiss(Zb))
    ok = det1 == det2 * det3
    if not ok:
        raise ArithmeticError(
            f"determinant identity failed: {det1} != {det2} * {det3}")
    return SublatticeReport(det1=det1, det2=det2, det3=det3, identity_holds=ok)
