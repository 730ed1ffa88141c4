"""Rational linear algebra, the Fraction relation lattice and generator
search, and polynomial values as Fractions.

`latgeom.build_relation_lattice` computes the relation lattice's integer
rows and their scale L from numerators and denominators;
`build_relation_lattice` here makes its generators as Fractions, the
reference whose rows, times L, it must equal.

`latgeom.quasi_orthogonal_generators` and `reduction.reduce_dimension` score
generator subsets on integer rows h_i (M / B_i) with fraction-free
determinants, and test region membership in integers.  This is the rational
code they replaced: the same search on the rows h~ = h_i / B_i, kept as the
reference that must decide alike, GeneratorSet or NoShortVector, and the
same leading columns.

`core.eval_system` computes each distance ||f_i(n)|| from an integer
residue mod the system's common denominator; `poly_eval` and `frac_dist`
are the Fraction arithmetic it replaced, the reference it must equal.

`latgeom.decisively_in_region` and `reduction.reduce_dimension` read the
system's integer form (`PolySystem.numerators` and `.radii`);
`decisively_in_region` here, on `coefficient_sums`, and the child system
rebuilt with `frac_inverse` are the Fraction references they must equal.
"""

from fractions import Fraction
from itertools import combinations

from fracparts.core import coefficient_sums
from fracparts.latgeom import (
    GeneratorSet,
    NoShortVector,
    _integral_rows,
    reduce_basis,
    relation_lattice_bits,
)


def poly_eval(p, n) -> Fraction:
    """p(n) as an exact Fraction: Horner on X * (c_1 + X * (c_2 + ...))."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * n + c.value
    return acc * n


def frac_dist(t) -> Fraction:
    """Distance from t to the nearest integer, as an exact Fraction in [0, 1/2]."""
    r = Fraction(t) % 1
    return min(r, 1 - r)


def mat_mul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    return [[sum(A[i][t] * B[t][j] for t in range(inner)) for j in range(cols)]
            for i in range(rows)]


def mat_vec(A, v):
    return [sum(A[i][t] * v[t] for t in range(len(v))) for i in range(len(A))]


def _linf(v) -> Fraction:
    return max((abs(Fraction(x)) for x in v), default=Fraction(0))


def _dot(u, v) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def det_fraction(M) -> Fraction:
    """Exact determinant of a square Fraction matrix by Gaussian elimination."""
    n = len(M)
    a = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                factor = a[i][k] * inv
                for j in range(k, n):
                    a[i][j] -= factor * a[k][j]
    return det


def frac_inverse(M):
    """The inverse of an invertible square matrix, as Fractions, by
    Gauss-Jordan elimination."""
    n = len(M)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if a[i][c] != 0)
        a[c], a[pivot] = a[pivot], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def gram_det(vectors) -> Fraction:
    """det(G^T G) for the matrix with the given rows; 0 iff dependent."""
    r = len(vectors)
    return det_fraction([[_dot(vectors[i], vectors[j]) for j in range(r)]
                         for i in range(r)])


def h_tilde(h_vecs, B):
    """The rows h_i / B_i."""
    return [[Fraction(h) / b for h, b in zip(hv, B)] for hv in h_vecs]


def subset_measures(rows):
    """(wedge^2 / prod ||v||_2^2, or 0 for dependent rows; prod ||v||_inf)."""
    wsq = gram_det(rows)
    l2sq = tp = Fraction(1)
    for v in rows:
        l2sq *= _dot(v, v)
        tp *= _linf(v)
    return (wsq / l2sq if wsq else Fraction(0)), tp


def max_minor(rows):
    """Largest |det| over the r x r minors, and the first columns attaining it."""
    best_val, best_cols = None, None
    for cols in combinations(range(len(rows[0])), len(rows)):
        val = abs(det_fraction([[row[c] for c in cols] for row in rows]))
        if best_val is None or val > best_val:
            best_val, best_cols = val, cols
    return best_val, best_cols


def leading_perm(h_vecs, B, k):
    """reduce_dimension's perm: the max-minor columns of h~ first."""
    _minor, lead = max_minor(h_tilde(h_vecs, B))
    return tuple(list(lead) + [c for c in range(k) if c not in lead])


def decisively_in_region(system, h, a, B, eta) -> bool:
    if any(abs(hi) > b for hi, b in zip(h, B)):
        return False
    sums = coefficient_sums(system, h)
    return all(abs(s.value - a_j) + s.err <= Fraction(eta) ** j
               for j, (s, a_j) in enumerate(zip(sums, a), start=1))


def build_relation_lattice(system, B, eta):
    """The relation lattice's generators as Fraction rows: (1/B_i) e_i -
    sum_j (beta_ij / eta^j) e_{k+j} and (1/eta^j) e_{k+j}, beta_ij rounded to
    a multiple of 2^-b where its denominator exceeds 2^b."""
    k, d = system.k, system.d
    Bv, ev = [Fraction(b) for b in B], Fraction(eta)
    scale = 2 ** relation_lattice_bits(k, d, Bv, ev)
    rows = []
    for i in range(k):
        row = [Fraction(0)] * (k + d)
        row[i] = 1 / Bv[i]
        for j in range(1, d + 1):
            beta = system.coeff(i + 1, j).value
            if beta.denominator > scale:
                beta = Fraction(round(beta * scale), scale)
            row[k + j - 1] = -beta / ev ** j
        rows.append(row)
    for j in range(1, d + 1):
        row = [Fraction(0)] * (k + d)
        row[k + j - 1] = 1 / ev ** j
        rows.append(row)
    return rows


def quasi_orthogonal_generators(system, B, eta, N_target, c_orth, max_r=None):
    """The generator search on Fraction rows h~, as it was before the integer one."""
    if N_target < 2:
        raise ValueError("N_target must be at least 2")
    k, d = system.k, system.d
    Bv = tuple(Fraction(b) for b in B)
    ev = Fraction(eta)
    L, rows = _integral_rows(build_relation_lattice(system, Bv, ev))
    reduced, U = reduce_basis(rows)
    prefix = []
    for row, coeffs in zip(reduced, U):
        if _linf(row) > L:
            break
        h, a = tuple(coeffs[:k]), tuple(coeffs[k:])
        if not decisively_in_region(system, h, a, Bv, ev):
            break
        prefix.append((h, a))
    J = len(prefix)
    if J == 0:
        return NoShortVector("no reduced basis vector fits in the unit box")
    c_orth_sq = Fraction(c_orth) ** 2
    prod_bound_pow = Fraction(2 ** (k + d)) ** (d + 1) / N_target
    htils = h_tilde([h for h, _a in prefix], Bv)
    for r in range(min(J, k if max_r is None else max_r), 0, -1):
        best = None
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
