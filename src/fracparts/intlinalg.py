"""Exact linear algebra over Z used by the lattice machinery.

Everything here is deterministic pure-Python big-int arithmetic: column
echelon forms with unimodular transforms, fraction-free determinants and
adjugates, integer solves and kernels.
"""

from __future__ import annotations

from math import prod
from operator import mul
from typing import List, Sequence, Tuple

Matrix = List[List[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


def adjugate(M: Sequence[Sequence[int]]) -> Matrix:
    """adj(M) of a square integer matrix, from its cofactors: M adj(M) =
    det(M) I, so adj(M) / det(M) is the inverse when det(M) != 0."""
    n = len(M)
    return [[(-1) ** (i + j) * det_bareiss([[*row[:i], *row[i + 1:]]
                                            for t, row in enumerate(M) if t != j])
             for j in range(n)] for i in range(n)]


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
    """Determinant (covolume) of the full-rank lattice generated by the
    columns of A.

    A is r x m; a column span of rank below r is refused.  At rank r each
    row i of the column echelon form has its pivot at column i, so the value
    is the product of the positive pivots E[i][i].
    """
    E, _U, rank = column_echelon(A)
    if rank < len(A):
        raise ValueError("columns do not span a full-rank lattice")
    return prod(E[i][i] for i in range(rank))


def solve_integer(A: Sequence[Sequence[int]],
                  targets: Sequence[Sequence[int]]) -> List[List[int]]:
    """One integer solution v of A v = t for each t in ``targets``, all from
    one column echelon form of A.  A t outside the column lattice of A
    raises ArithmeticError naming it."""
    E, U, rank = column_echelon(A)

    def solve(t):
        # forward-substitute through the staircase; a remainder left in any
        # row puts t outside the lattice
        s = []
        residual = list(map(int, t))
        for i, row in enumerate(E):
            col = len(s)
            if col < rank and row[col] != 0:
                s.append(residual[i] // row[col])
                for r2 in range(i, len(E)):
                    residual[r2] -= s[col] * E[r2][col]
        if any(residual):
            raise ArithmeticError(f"no integer solution for target {list(t)}")
        return [sum(map(mul, u, s)) for u in U]
    return [solve(t) for t in targets]


def kernel_columns(A: Sequence[Sequence[int]]) -> List[List[int]]:
    """Basis (as column vectors) of the integer kernel {v : A v = 0}."""
    E, U, rank = column_echelon(A)
    cols = len(A[0])
    return [[U[i][j] for i in range(cols)] for j in range(rank, cols)]
