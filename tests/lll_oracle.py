"""The integral LLL that updated every row's Gram-Schmidt data in place, the
rational LLL that rebuilds it after every swap, and an exact shortest-vector
enumeration.

`latgeom.reduce_basis` carries only the transform and builds a row's
integral Gram-Schmidt data when its loop first reaches the row.
`reduce_basis_integral` is the routine it replaced, kept as its bit-identity
oracle: the same (rows, U) on every input, or the same exception class.
`reduce_basis_reference` is the plain rational algorithm the integral one
replaced, and must take the same steps: the same vectors (over the common
scale L) and transform, or DependenceError on the same inputs.
`shortest_vector` gives the exact first minimum that bounds an LLL-reduced
basis's first row.
"""

from fractions import Fraction
from typing import List, Sequence, Tuple

from fracparts.intlinalg import identity
from fracparts.latgeom import LLL_DELTA, DependenceError, _dot


def gram_schmidt(basis):
    """Orthogonalised rows, mu and squared norms, all rational."""
    n = len(basis)
    ortho = []
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = []
    for i in range(n):
        v = [Fraction(x) for x in basis[i]]
        for j in range(i):
            if norms[j] == 0:
                raise DependenceError("input vectors are linearly dependent")
            mu[i][j] = _dot(basis[i], ortho[j]) / norms[j]
            v = [a - mu[i][j] * b for a, b in zip(v, ortho[j])]
        ortho.append(v)
        norms.append(_dot(v, v))
    if any(nsq == 0 for nsq in norms):
        raise DependenceError("input vectors are linearly dependent")
    return ortho, mu, norms


def reduce_basis_reference(rows):
    """LLL at LLL_DELTA with exact rationals, Gram-Schmidt recomputed per
    swap: (reduced rows, U)."""
    vecs = [list(row) for row in rows]
    n = len(vecs)
    U = identity(n)
    _ortho, mu, norms = gram_schmidt(vecs)
    kk = 1
    while kk < n:
        for j in range(kk - 1, -1, -1):
            r = round(mu[kk][j])
            if r:
                vecs[kk] = [a - r * b for a, b in zip(vecs[kk], vecs[j])]
                U[kk] = [a - r * b for a, b in zip(U[kk], U[j])]
                for t in range(j):
                    mu[kk][t] -= r * mu[j][t]
                mu[kk][j] -= r
        if norms[kk] >= (LLL_DELTA - mu[kk][kk - 1] ** 2) * norms[kk - 1]:
            kk += 1
        else:
            vecs[kk], vecs[kk - 1] = vecs[kk - 1], vecs[kk]
            U[kk], U[kk - 1] = U[kk - 1], U[kk]
            _ortho, mu, norms = gram_schmidt(vecs)
            kk = max(kk - 1, 1)
    return vecs, U


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
            u = _dot(rows[i], rows[j])
            for t in range(j):
                u = (d[t + 1] * u - lam[i][t] * lam[j][t]) // d[t]
            if j < i:
                lam[i][j] = u
            else:
                d[i + 1] = u
        if d[i + 1] == 0:
            raise DependenceError("input vectors are linearly dependent")
    return d, lam


def reduce_basis_integral(rows: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[List[int]]]:
    """LLL reduction of integer rows at LLL_DELTA: (reduced rows, U), U the
    unimodular transform with U rows = reduced rows.

    Integral LLL (Cohen Alg. 2.6.7), updated in place: the Gram determinants
    d and lambda = d mu stay integers and each swap updates them in O(n).
    The steps are those of rational LLL with full size reduction before each
    Lovasz test, mu rounded half to even.  Rows of unequal length raise
    ValueError, dependent rows DependenceError.

    Rational rows are reduced as L times themselves, L any common multiple
    of their denominators.  Every decision compares like powers of L:
    d_i grows by L^(2i) and lambda_ij by L^(2(j+1)), so mu and the Lovasz
    test do not move.  U is therefore the same for every L, and the reduced
    rows are L times the rational ones, so |row| <= L tests |row / L| <= 1.
    """
    vecs = [list(row) for row in rows]
    if len({len(row) for row in vecs}) > 1:
        raise ValueError("rows must all have the same length")
    n = len(vecs)
    U = identity(n)
    d, lam = _integral_gram(vecs)
    num, den = LLL_DELTA.numerator, LLL_DELTA.denominator
    kk = 1
    while kk < n:
        lk = lam[kk]
        for j in range(kk - 1, -1, -1):
            dj = d[j + 1]
            if 2 * abs(lk[j]) <= dj:  # |mu| <= 1/2 rounds to 0
                continue
            # r = floor(mu + 1/2), a tie going to the even neighbour
            r, rem = divmod(2 * lk[j] + dj, 2 * dj)
            if not rem and r & 1:
                r -= 1
            vecs[kk] = [a - r * b for a, b in zip(vecs[kk], vecs[j])]
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
        vecs[kk], vecs[kk - 1] = vecs[kk - 1], vecs[kk]
        U[kk], U[kk - 1] = U[kk - 1], U[kk]
        lam[kk][:kk - 1], lam[kk - 1][:kk - 1] = lam[kk - 1][:kk - 1], lam[kk][:kk - 1]
        B //= d[kk]
        for li in lam[kk + 1:]:
            t = li[kk]
            li[kk] = (d[kk + 1] * li[kk - 1] - lk1 * t) // d[kk]
            li[kk - 1] = (B * t + lk1 * li[kk]) // d[kk + 1]
        d[kk] = B
        kk = max(kk - 1, 1)
    return vecs, U


def shortest_vector(rows):
    """Exact shortest nonzero vector (l2) of the lattice of the rows, and its
    squared norm, by depth-first enumeration over their Gram-Schmidt
    coefficients; dimension <= 8.  LLL-reduced rows keep the search small."""
    n = len(rows)
    if n > 8:
        raise ValueError("exact enumeration is limited to dimension <= 8")
    _ortho, mu, norms = gram_schmidt(rows)
    # the shortest basis row stands until enumeration finds a shorter vector
    first = min(range(n), key=lambda i: _dot(rows[i], rows[i]))
    best_sq = _dot(rows[first], rows[first])
    best_x = [int(i == first) for i in range(n)]

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
    vec = [sum(best_x[j] * rows[j][t] for j in range(n)) for t in range(len(rows[0]))]
    return vec, best_sq
