"""Geometry of numbers: the scaled relation lattice, LLL reduction, quasi-
orthogonal generator extraction, and the solution lattice of a reduction
step with its determinant identity.

The lattice path runs in exact integers from end to end.  A lattice is its
integer rows with their scale L: the rows are L times the rational
generators, L a common multiple of their denominators.  The relation
lattice is built that way from numerators and denominators, at the
precision its region needs: a coefficient whose denominator exceeds 2^b is
rounded to the nearest multiple of 2^-b, with b (`relation_lattice_bits`)
large enough that no region residual moves by more than
eta^d 2^-RELATION_GUARD_BITS (the rounding step of Lagarias, SIAM J.
Comput. 14, 1985), and every candidate the search keeps is re-verified
exactly against the unrounded coefficients and their radii.  The LLL is the
integral LLL (Cohen Alg. 2.6.7): the Gram determinants of the integer rows
stay integers, built for a row when the loop first reaches it, the loop
carries only the transform, and mu is rounded half to even from an integer
divmod.  Its steps do not depend on the scale, so a reduced row is in the
unit box when its sup norm is at most L.  The generator search scores
subsets on the integer rows h_i (M / B_i), M the lcm of the B_i, with
fraction-free determinants; region membership is tested in integers on the
system's integer form (`PolySystem.numerators` and `.radii`).  Reduction
quality constants are explicit: LLL at delta = 0.99 with the transform
retained.  The Fraction construction of the relation lattice and the
Fraction-based search the integer ones replaced, the Fraction region test,
the integral LLL that updated every row in place and the rational LLL
before it, an exact shortest-vector enumeration and the residue-counting
oracles that cross-check the determinant identity are part of the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .core import PolySystem
from .intlinalg import (
    adjugate,
    det_bareiss,
    identity,
    kernel_columns,
    lattice_det_from_columns,
)

LLL_DELTA = Fraction(99, 100)

# Guard bits of the rounded relation lattice: rounding moves a region
# residual by at most eta^d 2^-RELATION_GUARD_BITS.  Measured on the
# acceptance suite's inputs: outcomes, certificates and stats are identical
# at 64, 32, 16 and 10 guard bits, and the 200-solve planted batch takes
# 0.345, 0.301, 0.289 and 0.298 s (0.393 s unrounded, at 192 bits; median
# of 9, CPython 3.11 on one core of a 2-core Xeon), so 32 costs little over
# 16 and keeps the rounding 2^-32 below the region's finest width.
RELATION_GUARD_BITS = 32


class DependenceError(ValueError):
    pass


class SingularH1Error(ValueError):
    pass


class PrecisionError(ValueError):
    pass


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _gram_det(rows: Sequence[Sequence[int]]) -> int:
    """Gram determinant (squared r-volume) of integer rows; 0 iff dependent."""
    return det_bareiss([[_dot(u, v) for v in rows] for u in rows])


def wedge_norm_sq(vectors: Sequence[Sequence[Fraction]]) -> Fraction:
    """Squared r-volume of the parallelepiped (Gram determinant), exact."""
    L, rows = _integral_rows(vectors)
    return Fraction(_gram_det(rows), L ** (2 * len(rows)))


def wedge_norm(vectors: Sequence[Sequence[Fraction]]) -> float:
    return math.sqrt(float(wedge_norm_sq(vectors)))


def relation_lattice_bits(k: int, d: int, B: Sequence, eta) -> int:
    """b = ceil(d log2(1/eta)) + bitlen(k ceil(max B)) + RELATION_GUARD_BITS.

    A coefficient moved by at most 2^-(b+1) moves sum_i h_i beta_ij, for
    |h_i| <= B_i, by at most k max(B) 2^-(b+1) < eta^d 2^-(RELATION_GUARD_BITS+1).
    """
    # ceil(log2 v) = bitlen(ceil(v) - 1) for v >= 1
    return ((math.ceil(Fraction(eta) ** -d) - 1).bit_length()
            + (k * math.ceil(max(B))).bit_length() + RELATION_GUARD_BITS)


def build_relation_lattice(system: PolySystem, B: Sequence,
                           eta) -> Tuple[int, List[List[int]]]:
    """The (k+d)-dimensional scaled relation lattice, at the precision its
    region needs, as (L, rows): integer rows that are L times the generators
    below, L the least common denominator of their entries.

    Generators: (1/B_i) e_i - sum_j (beta_ij / eta^j) e_{k+j} for each i, and
    (1/eta^j) e_{k+j} for each j.  beta_ij is the coefficient value when its
    denominator is at most 2^b, b = `relation_lattice_bits`, and else that
    value rounded to the nearest multiple of 2^-b, which moves every
    residual sum_i h_i beta_ij - a_j of the region by at most
    eta^d 2^-RELATION_GUARD_BITS.  Lattice points with sup norm <= L are the
    integer pairs (h, a) with |h_i| <= B_i and |sum_i h_i beta_ij - a_j| <= eta^j,
    so a candidate is a region point only once re-verified against the
    unrounded coefficients (`decisively_in_region`).  PrecisionError is
    raised from the coefficients' own radii, not from the rounding.
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
    scale = 1 << relation_lattice_bits(k, d, Bv, ev)
    p, q = ev.numerator, ev.denominator
    # the nonzero entries: (row, column) -> (numerator, denominator), in lowest terms
    entries = {}
    for i in range(k):
        entries[i, i] = Bv[i].denominator, Bv[i].numerator
        for j in range(1, d + 1):
            u, v = system.coeff(i + 1, j).value.as_integer_ratio()
            if v > scale:
                # u / v to the nearest multiple of 1 / scale, a tie to the even one
                u, rem = divmod(u * scale, v)
                if 2 * rem > v or (2 * rem == v and u & 1):
                    u += 1
                v = scale
            u, v = -u * q ** j, v * p ** j  # -beta_ij / eta^j
            g = math.gcd(u, v)
            entries[i, k + j - 1] = u // g, v // g
    for j in range(1, d + 1):
        entries[k + j - 1, k + j - 1] = q ** j, p ** j
    L = math.lcm(*(v for _u, v in entries.values()))
    rows = [[0] * (k + d) for _ in range(k + d)]
    for (i, c), (u, v) in entries.items():
        rows[i][c] = u * (L // v)
    return L, rows


def _integral_rows(rows) -> Tuple[int, List[List[int]]]:
    """(L, L * rows) with L the common denominator of the entries; rows of
    unequal length raise ValueError."""
    rows = [[Fraction(x) for x in row] for row in rows]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("rows must all have the same length")
    L = math.lcm(*(x.denominator for row in rows for x in row))
    return L, [[x.numerator * (L // x.denominator) for x in row] for row in rows]


def reduce_basis(rows: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[List[int]]]:
    """LLL reduction of integer rows at LLL_DELTA: (reduced rows, U), U the
    unimodular transform with U rows = reduced rows.

    Integral LLL (Cohen Alg. 2.6.7): the Gram determinants d and
    lambda = d mu stay integers.  The loop carries only U and forms the
    reduced rows as U rows once, at the end.  A row's d and lambda are built
    when the loop first reaches it, from the input rows' Gram entries and U:
    a row the loop has not reached is still an input row.  A swap therefore
    updates lambda only for the rows reached so far, and trades the two
    lambda rows as objects.  d and lambda are exact functions of the current
    basis, so building them late gives the integers an in-place update
    would, and with them the same steps, U and rows.  The steps are those
    of rational LLL with full size reduction before each Lovasz test, mu
    rounded half to even.  Rows of unequal length raise ValueError,
    dependent rows DependenceError.

    Rational rows are reduced as L times themselves, L any common multiple
    of their denominators.  Every decision compares like powers of L:
    d_i grows by L^(2i) and lambda_ij by L^(2(j+1)), so mu and the Lovasz
    test do not move.  U is therefore the same for every L, and the reduced
    rows are L times the rational ones, so |row| <= L tests |row / L| <= 1.
    """
    if len({len(row) for row in rows}) > 1:
        raise ValueError("rows must all have the same length")
    n = len(rows)
    if not n:
        return [], []
    U = identity(n)
    # d[i + 1] and lam[i] = [lambda_i0, ..., lambda_i,i-1] are appended when
    # the loop first reaches row i
    d = [1, _dot(rows[0], rows[0])]
    if not d[1]:
        raise DependenceError("input vectors are linearly dependent")
    lam = [[]]
    num, den = LLL_DELTA.numerator, LLL_DELTA.denominator
    kk = 1
    while kk < n:
        if kk == len(lam):
            # first visit: row kk is still input row kk, and the rows below
            # it are U's combinations of input rows 0..kk - 1
            row = rows[kk]
            gram = [_dot(v, row) for v in rows[:kk]]
            lk = []
            for j in range(kk):
                u = sum(map(mul, U[j], gram))
                lj = lam[j]
                for t in range(j):
                    u = (d[t + 1] * u - lk[t] * lj[t]) // d[t]
                lk.append(u)
            u = _dot(row, row)
            for t in range(kk):
                u = (d[t + 1] * u - lk[t] * lk[t]) // d[t]
            if not u:
                raise DependenceError("input vectors are linearly dependent")
            d.append(u)
            lam.append(lk)
        lk = lam[kk]
        for j in range(kk - 1, -1, -1):
            dj = d[j + 1]
            if 2 * abs(lk[j]) <= dj:  # |mu| <= 1/2 rounds to 0
                continue
            # r = floor(mu + 1/2), a tie going to the even neighbour
            r, rem = divmod(2 * lk[j] + dj, 2 * dj)
            if not rem and r & 1:
                r -= 1
            U[kk] = [a - r * b for a, b in zip(U[kk], U[j])]
            lj = lam[j]
            for t in range(j):
                lk[t] -= r * lj[t]
            lk[j] -= r * dj
        # B_kk >= (delta - mu^2) B_{kk-1}, times den * d[kk] * d[kk-1] > 0;
        # d[kk-1] d[kk+1] + lambda^2 is also d[kk] times the swap's new d[kk]
        lk1 = lk[kk - 1]
        B = d[kk - 1] * d[kk + 1] + lk1 * lk1
        if den * B >= num * d[kk] ** 2:
            kk += 1
            continue
        U[kk], U[kk - 1] = U[kk - 1], U[kk]
        # swap the lambda rows as objects: their entries below kk - 1 trade
        # places, and lambda_{kk,kk-1} keeps its value
        lk.pop()
        lam[kk - 1].append(lk1)
        lam[kk], lam[kk - 1] = lam[kk - 1], lk
        B //= d[kk]
        for li in lam[kk + 1:]:  # the rows reached so far
            t = li[kk]
            li[kk] = (d[kk + 1] * li[kk - 1] - lk1 * t) // d[kk]
            li[kk - 1] = (B * t + lk1 * li[kk]) // d[kk + 1]
        d[kk] = B
        kk = max(kk - 1, 1)
    # reduced = U rows, summed over U's nonzero entries; a unit row of U
    # copies its input row
    reduced = []
    for u in U:
        acc = None
        for c, v in zip(u, rows):
            if c:
                if acc is None:
                    acc = list(v) if c == 1 else [c * x for x in v]
                else:
                    acc = [s + c * x for s, x in zip(acc, v)]
        reduced.append(acc)
    return reduced, U


@dataclass
class GeneratorSet:
    """r quasi-orthogonal relations (h, a) extracted from the reduced lattice.

    They are a reduction step's only recorded choice: the region they lie
    in, their measures and everything the step derives follow from them and
    the parent level (see `core.SystemState.region`).
    """

    h_vecs: Tuple[Tuple[int, ...], ...]
    a_vecs: Tuple[Tuple[int, ...], ...]

    @property
    def r(self) -> int:
        return len(self.h_vecs)

    def to_dict(self) -> dict:
        return {"h_vecs": [list(h) for h in self.h_vecs],
                "a_vecs": [list(a) for a in self.a_vecs]}

    @staticmethod
    def from_dict(d: dict) -> "GeneratorSet":
        """Read `to_dict`'s record: KeyError for a missing key, ValueError for
        an entry that is not an integer (a bool is not)."""
        vecs = {key: d[key] for key in ("h_vecs", "a_vecs")}
        for key, rows in vecs.items():
            if not (isinstance(rows, list) and all(
                    isinstance(row, list) and all(type(v) is int for v in row) for row in rows)):
                raise ValueError(f"'gens.{key}' must be a list of integer lists")
        return GeneratorSet(**{key: tuple(map(tuple, rows)) for key, rows in vecs.items()})


@dataclass
class NoShortVector:
    """Dichotomy outcome: the reduced lattice offers no usable generator subset."""

    reason: str


def decisively_in_region(system: PolySystem, h: Sequence[int], a: Sequence[int],
                         B: Sequence[Fraction], eta: Fraction) -> bool:
    """True when (h, a) is in the region R with the coefficient error interval
    decisively inside (no false positives from rounded coefficients):
    |h_i| <= B_i and |sum_i h_i f_{i,j} - a_j| + sum_i |h_i| err_{i,j} <= eta^j.
    Each slot is tested in integers on the system's integer form: with
    f = N / D, err = E / R and eta^j = p / q, the test is
    (|sum_i h_i N_ij - a_j D| R + sum_i |h_i| E_ij D) q <= p D R."""
    if any(abs(hi) > b for hi, b in zip(h, B)):
        return False
    if len(h) != system.k:
        raise ValueError("frequency vector length must equal k")
    eta = Fraction(eta)
    (D, N), (R, E) = system.numerators, system.radii
    for j, a_j in zip(range(system.d), a):
        p, q = eta.numerator ** (j + 1), eta.denominator ** (j + 1)
        center = sum(hi * row[j] for hi, row in zip(h, N))
        slack = sum(abs(hi) * row[j] for hi, row in zip(h, E))
        if (abs(center - a_j * D) * R + slack * D) * q > p * D * R:
            return False
    return True


def max_minor(rows: Sequence[Sequence[int]]) -> Tuple[int, Tuple[int, ...]]:
    """Largest |det| over the r x r minors of r integer rows, and the
    lexicographically first columns that attain it."""
    best_val, best_cols = None, None
    for cols in combinations(range(len(rows[0])), len(rows)):
        val = abs(det_bareiss([[row[c] for c in cols] for row in rows]))
        if best_val is None or val > best_val:
            best_val, best_cols = val, cols
    return best_val, best_cols


def scaled_h_rows(h_vecs: Sequence[Sequence[int]],
                  B: Sequence) -> Tuple[int, List[List[int]]]:
    """(M, rows): M the lcm of the numerators of the B_i, and the integer rows
    h_i (M / B_i), which are M times the rescaled rows h~ = h_i / B_i.

    Every measure of h~ the reduction compares is scale-free or scales alike
    for rows of one count: the orthogonality ratio is unchanged, and r x r
    minors and sup-norm products of r rows gain M^r.
    """
    B = [Fraction(b) for b in B]
    M = math.lcm(*(b.numerator for b in B))
    w = [M // b.numerator * b.denominator for b in B]
    return M, [[h_i * w_i for h_i, w_i in zip(h, w)] for h in h_vecs]


def _measures(rows: Sequence[Sequence[int]]) -> Tuple[int, int, int]:
    """(wedge^2, prod ||v||_2^2, prod ||v||_inf) of integer rows."""
    l2sq = tp = 1
    for v in rows:
        l2sq *= _dot(v, v)
        tp *= max(map(abs, v))
    return _gram_det(rows), l2sq, tp


def subset_measures(h_vecs: Sequence[Sequence[int]],
                    B: Sequence) -> Tuple[Fraction, Fraction]:
    """The generator search's measures of the rescaled rows h~ = h_i / B_i:
    the exact orthogonality ratio squared wedge^2 / prod ||v||_2^2 (0 for
    dependent rows) and the sup-norm product prod ||v||_inf."""
    M, rows = scaled_h_rows(h_vecs, B)
    wsq, l2sq, tp = _measures(rows)
    return (Fraction(wsq, l2sq) if wsq else Fraction(0)), Fraction(tp, M ** len(rows))


def quasi_orthogonal_generators(system: PolySystem, B: Sequence, eta,
                                N_target: int, c_orth: float,
                                max_r: Optional[int] = None):
    """Extract r quasi-orthogonal (h, a) pairs from the reduced relation lattice.

    Walks the maximal reduced-basis prefix of sup norm <= L on the lattice's
    integer rows, <= 1 on its generators (each member re-verified as a
    region point exactly), then searches index subsets by descending size; a
    subset qualifies when the rescaled h vectors have orthogonality ratio
    >= c_orth and sup-norm product within the slack factor 2^(k+d) of
    N_target^(-1/(d+1)).  Among qualifying subsets of a
    size, the one with the largest maximal r x r minor wins, ties
    lexicographic.  Returns NoShortVector when nothing qualifies.  ``max_r``
    caps the subset size (a caller that must leave at least one polynomial
    behind passes k - 1).  Subsets are scored on the integer rows of
    `scaled_h_rows`, which decide every comparison as h~ would.
    """
    if N_target < 2:
        raise ValueError("N_target must be at least 2")
    k, d = system.k, system.d
    Bv = tuple(Fraction(b) for b in B)
    ev = Fraction(eta)
    L, lattice = build_relation_lattice(system, Bv, ev)
    reduced, U = reduce_basis(lattice)

    prefix = []  # (h, a) integer pairs for the usable prefix
    for row, coeffs in zip(reduced, U):
        if max(map(abs, row)) > L:
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
    num, den = c_orth_sq.numerator, c_orth_sq.denominator
    M, rows = scaled_h_rows([h for h, _a in prefix], Bv)
    r_hi = min(J, k if max_r is None else max_r)
    for r in range(r_hi, 0, -1):
        # tilde_product^(d+1) <= (2^(k+d))^(d+1) / N_target, on rows M h~
        cap = 2 ** ((k + d) * (d + 1)) * M ** (r * (d + 1))
        best = None  # (max_minor_abs, subset)
        for subset in combinations(range(J), r):
            sub = [rows[i] for i in subset]
            wsq, l2sq, tp = _measures(sub)
            if not wsq or wsq * den < num * l2sq or tp ** (d + 1) * N_target > cap:
                continue
            minor, _cols = max_minor(sub)
            if best is None or minor > best[0]:
                best = (minor, subset)
        if best is not None:
            _minor, subset = best
            return GeneratorSet(h_vecs=tuple(prefix[i][0] for i in subset),
                                a_vecs=tuple(prefix[i][1] for i in subset))
    return NoShortVector(
        f"no subset of the {J}-vector prefix met the orthogonality/product bounds")


# ---------------------------------------------------------------------------
# The solution lattice and the determinant identity.
# ---------------------------------------------------------------------------


def solution_lattice(H1: Sequence[Sequence[int]],
                     H2: Sequence[Sequence[int]]) -> Tuple[int, int, List[List[int]]]:
    """(D1, D2, Z) for the lattices Lambda_1 = H1 Z^r, Lambda_2 = H1 Z^r + H2 Z^l
    and Lambda_3 = {y in Z^l : H1 x = H2 y solvable in integers x}.

    D1 = |det H1| = det Lambda_1, D2 = det Lambda_2, and Z is the LLL-reduced
    column basis of Lambda_3: the integer kernel of [adj(H1) H2 | det(H1) I],
    projected to its first l coordinates and reduced by `reduce_basis`.  The
    three are computed independently, and the identity D1 = D2 |det Z| is
    checked, not assumed: ArithmeticError if it fails.
    """
    r = len(H1)
    ell = len(H2[0])
    D = det_bareiss(H1)
    if D == 0:
        raise SingularH1Error("H1 must be invertible")
    D2 = lattice_det_from_columns([list(h1) + list(h2) for h1, h2 in zip(H1, H2)])
    adj = adjugate(H1)
    M = [[sum(adj[i][t] * H2[t][j] for t in range(r)) for j in range(ell)]
         for i in range(r)]
    ker = kernel_columns([M[i] + [D * int(i == t) for t in range(r)] for i in range(r)])
    if len(ker) != ell:
        raise ArithmeticError("solution lattice is not full rank")
    # the kernel columns' first l coordinates, LLL-reduced as rows
    reduced, _U = reduce_basis([col[:ell] for col in ker])
    Z = [list(row) for row in zip(*reduced)]
    det3 = abs(det_bareiss(Z))
    if abs(D) != D2 * det3:
        raise ArithmeticError(f"determinant identity failed: {abs(D)} != {D2} * {det3}")
    return abs(D), D2, Z
