"""Rational LLL that rebuilds the whole Gram-Schmidt after every swap, and an
exact shortest-vector enumeration.

`latgeom.reduce_basis` keeps integral Gram determinants and updates them in
place; `reduce_basis_reference` is the plain rational algorithm it
replaced, kept as the reference that must take the same steps: the same
vectors (over the common scale L) and transform, or DependenceError on the
same inputs.  `shortest_vector` gives the exact first minimum that bounds
an LLL-reduced basis's first row.
"""

from fractions import Fraction

from fracparts.intlinalg import identity
from fracparts.latgeom import LLL_DELTA, DependenceError
from fraction_oracle import _dot


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
