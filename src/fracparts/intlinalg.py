"""Exact linear algebra over Z and Q used by the lattice machinery.

Everything here is deterministic pure-Python big-int / Fraction arithmetic:
column echelon forms with unimodular transforms, determinants, integer
solves and kernels, and Fraction matrix inverses.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Matrix = List[List[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A: Sequence[Sequence], B: Sequence[Sequence]):
    rows, inner, cols = len(A), len(B), len(B[0])
    return [[sum(A[i][t] * B[t][j] for t in range(inner)) for j in range(cols)]
            for i in range(rows)]


def mat_vec(A: Sequence[Sequence], v: Sequence):
    return [sum(A[i][t] * v[t] for t in range(len(v))) for i in range(len(A))]


def det_bareiss(M: Sequence[Sequence[int]]) -> int:
    """Fraction-free exact determinant of a square integer matrix."""
    n = len(M)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_fraction(M: Sequence[Sequence[Fraction]]) -> Fraction:
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


def column_echelon(A: Sequence[Sequence[int]]) -> Tuple[Matrix, Matrix, int]:
    """Column echelon form with unimodular transform: A @ U = E.

    E is lower "staircase" with positive pivots and zero columns at the
    right; U is m x m unimodular.  Returns (E, U, rank).
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    E = [list(map(int, row)) for row in A]
    U = identity(cols)
    rank = 0
    for i in range(rows):
        if rank == cols:
            break
        # gcd-eliminate row i across columns rank..cols-1
        while True:
            live = [j for j in range(rank, cols) if E[i][j] != 0]
            if len(live) <= 1:
                break
            jmin = min(live, key=lambda j: (abs(E[i][j]), j))
            p = E[i][jmin]
            for j in live:
                if j == jmin:
                    continue
                q = E[i][j] // p  # floor division keeps remainders in [0, |p|)
                if q:
                    for t in range(rows):
                        E[t][j] -= q * E[t][jmin]
                    for t in range(cols):
                        U[t][j] -= q * U[t][jmin]
        live = [j for j in range(rank, cols) if E[i][j] != 0]
        if not live:
            continue
        j = live[0]
        if j != rank:
            for t in range(rows):
                E[t][j], E[t][rank] = E[t][rank], E[t][j]
            for t in range(cols):
                U[t][j], U[t][rank] = U[t][rank], U[t][j]
        if E[i][rank] < 0:
            for t in range(rows):
                E[t][rank] = -E[t][rank]
            for t in range(cols):
                U[t][rank] = -U[t][rank]
        rank += 1
    return E, U, rank


def lattice_det_from_columns(A: Sequence[Sequence[int]]) -> int:
    """Determinant of the full-rank lattice generated by the columns of A.

    A is r x m with column span of rank r; the value is the covolume
    (product of echelon pivots).
    """
    E, _U, rank = column_echelon(A)
    r = len(A)
    if rank < r:
        raise ValueError("columns do not span a full-rank lattice")
    det = 1
    # pivots sit at the first nonzero entry of each echelon column
    col = 0
    for i in range(r):
        while col < rank and E[i][col] == 0:
            col += 1
        if col == rank:
            raise ValueError("echelon form lost rank")
        det *= E[i][col]
        col += 1
    return abs(det)


def solve_integer(A: Sequence[Sequence[int]], t: Sequence[int]) -> Optional[List[int]]:
    """One integer solution v of A v = t, or None when t is outside the column span."""
    E, U, rank = column_echelon(A)
    rows = len(A)
    cols = len(A[0])
    # forward-substitute through the staircase
    s = [0] * rank
    residual = list(map(int, t))
    col = 0
    for i in range(rows):
        if col < rank and E[i][col] != 0:
            if residual[i] % E[i][col] != 0:
                return None
            s[col] = residual[i] // E[i][col]
            for r2 in range(i, rows):
                residual[r2] -= s[col] * E[r2][col]
            col += 1
        elif residual[i] != 0:
            return None
    if any(r != 0 for r in residual):
        return None
    return [sum(U[i][j] * s[j] for j in range(rank)) for i in range(cols)]


def kernel_columns(A: Sequence[Sequence[int]]) -> List[List[int]]:
    """Basis (as column vectors) of the integer kernel {v : A v = 0}."""
    E, U, rank = column_echelon(A)
    cols = len(A[0])
    return [[U[i][j] for i in range(cols)] for j in range(rank, cols)]


def frac_inverse(M: Sequence[Sequence]) -> List[List[Fraction]]:
    """Exact inverse of a square matrix over Q."""
    n = len(M)
    a = [[Fraction(M[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        a[k], a[pivot] = a[pivot], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


def gram_det(vectors: Sequence[Sequence[Fraction]]) -> Fraction:
    """det(G^T G) for the matrix with the given rows; 0 iff dependent."""
    r = len(vectors)
    G = [[sum(Fraction(a) * Fraction(b) for a, b in zip(vectors[i], vectors[j]))
          for j in range(r)] for i in range(r)]
    return det_fraction(G)
