"""Residue-enumeration oracles for the sublattice determinant identity.

`latgeom.solution_lattice` computes det(Lambda_1), det(Lambda_2) and a basis Z
of Lambda_3, whose |det Z| is det(Lambda_3), independently; these count the
residues of Lambda_2 and Lambda_3 mod D = det(Lambda_1) by enumeration, so
that D^r = det2 * #Lambda_2 and D^l = det3 * #Lambda_3 cross-check them.
"""

import itertools
from typing import List, Tuple

import numpy as np

# residues of y decoded per numpy batch in lambda3_residue_count
CHUNK = 1 << 20


def _encode(coords: np.ndarray, D: int) -> np.ndarray:
    out = np.zeros(coords.shape[0], dtype=np.int64)
    for c in range(coords.shape[1]):
        out = out * D + coords[:, c]
    return out


def _decode(idx: np.ndarray, D: int, r: int) -> np.ndarray:
    out = np.empty((idx.shape[0], r), dtype=np.int64)
    rem = idx.copy()
    for c in range(r - 1, -1, -1):
        out[:, c] = rem % D
        rem //= D
    return out


def _subgroup_closure(generators: List[List[int]], D: int, r: int) -> np.ndarray:
    """Sorted encoded elements of the subgroup of (Z/D)^r the generators span.

    Cosets of the running subgroup are disjoint, so each generator g only
    needs its multiplier m (smallest m >= 1 with m g inside) and then m-1
    whole-coset appends.
    """
    S = np.array([0], dtype=np.int64)
    for g in generators:
        gv = np.array([x % D for x in g], dtype=np.int64)
        if not gv.any():
            continue
        m = 1
        acc = gv.copy()
        while True:
            code = int(_encode(acc[None, :], D)[0])
            pos = int(np.searchsorted(S, code))
            if pos < S.size and S[pos] == code:
                break
            m += 1
            acc = (acc + gv) % D
        if m == 1:
            continue
        coords = _decode(S, D, r)
        blocks = [S]
        for t in range(1, m):
            blocks.append(_encode((coords + t * gv) % D, D))
        S = np.sort(np.concatenate(blocks))
    return S


def _member(code_coords: np.ndarray, S1: np.ndarray, extra, D: int) -> bool:
    """Membership of one residue in S1 extended by the coset generators in extra."""
    for combo in itertools.product(*[range(m) for _g, m in extra]):
        w = code_coords.copy()
        for (g, _m), t in zip(extra, combo):
            if t:
                w = (w - t * g) % D
        code = int(_encode(w[None, :], D)[0])
        pos = int(np.searchsorted(S1, code))
        if pos < S1.size and S1[pos] == code:
            return True
    return False


def lambda2_residue_count(H1, H2, D: int) -> int:
    """#{z in [0,D)^r reachable as H1 x + H2 y mod D}.

    The H1 subgroup is enumerated outright; each H2 column then contributes
    its coset multiplier, and the count is the product (cosets of a subgroup
    partition it, so no residue is double-counted).
    """
    r = len(H1)
    gens1 = [[H1[i][j] for i in range(r)] for j in range(len(H1[0]))]
    S1 = _subgroup_closure(gens1, D, r)
    extra: List[Tuple[np.ndarray, int]] = []
    count = S1.size
    for j in range(len(H2[0])):
        g = np.array([H2[i][j] % D for i in range(r)], dtype=np.int64)
        if not g.any():
            continue
        m = 1
        while not _member((m * g) % D, S1, extra, D):
            m += 1
        if m > 1:
            extra.append((g, m))
            count *= m
    return int(count)


def lambda3_residue_count(H1, H2, D: int) -> int:
    """#{y in [0,D)^l : H1 x = H2 y mod D solvable} by direct enumeration."""
    r = len(H1)
    ell = len(H2[0])
    gens1 = [[H1[i][j] for i in range(r)] for j in range(len(H1[0]))]
    S1 = _subgroup_closure(gens1, D, r)
    member = np.zeros(D ** r, dtype=bool)
    member[S1] = True
    H2a = np.array(H2, dtype=np.int64)
    total = D ** ell
    count = 0
    for lo in range(0, total, CHUNK):
        idx = np.arange(lo, min(lo + CHUNK, total), dtype=np.int64)
        ys = _decode(idx, D, ell)
        codes = _encode((ys @ H2a.T) % D, D)
        count += int(np.count_nonzero(member[codes]))
    return count
