"""Rational LLL that rebuilds the whole Gram-Schmidt after every swap.

`latgeom.reduce_basis` keeps integral Gram determinants and updates them in
place; this is the plain rational algorithm it replaced, kept as the
reference that must take the same steps: same vectors, transform and
minima estimates, or DependenceError on the same inputs.
"""

from fractions import Fraction

from fracparts.intlinalg import identity
from fracparts.latgeom import LLL_DELTA, DependenceError, LatticeBasis
from fraction_oracle import _dot, _linf


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


def reduce_basis_reference(basis: LatticeBasis) -> LatticeBasis:
    """LLL at LLL_DELTA with exact rationals, Gram-Schmidt recomputed per swap."""
    vecs = [list(row) for row in basis.vectors]
    n = len(vecs)
    U = [list(row) for row in (basis.transform or identity(n))]
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
    estimates = sorted(_linf(v) for v in vecs)
    return LatticeBasis(vectors=vecs, reduced_flag=True, minima_estimates=estimates,
                        transform=U)
