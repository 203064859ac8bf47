"""Exact linear algebra over the rationals and the integers.

Everything here is small and dense: fraction-free (Bareiss) elimination
for ranks, plain rational elimination for kernels and solves, and a
row-style Hermite form used to extract an integer-coefficient basis of a
finitely generated subgroup of Q^n.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def clear_denominators(rows: list[list[Fraction]]) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (rank-preserving)."""
    out = []
    for row in rows:
        d = lcm(*(f.denominator for f in row)) if row else 1
        out.append([int(f * d) for f in row])
    return out


def rank_bareiss(rows: list[list[int]]) -> int:
    """Rank via fraction-free Gaussian elimination (Bareiss)."""
    m = [row[:] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    rank = 0
    prev = 1
    for col in range(n_cols):
        piv = next((i for i in range(rank, n_rows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, n_rows):
            for j in range(col + 1, n_cols):
                m[i][j] = (m[rank][col] * m[i][j] - m[i][col] * m[rank][j]) // prev
            m[i][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == n_rows:
            break
    return rank


def rank_rational(rows: list[list[Fraction]]) -> int:
    return rank_bareiss(clear_denominators(rows))


def kernel_basis(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of {x : A x = 0} by reduced row echelon over Fractions."""
    m = [row[:] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots: list[int] = []
    r = 0
    for col in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [v * inv for v in m[r]]
        for i in range(n_rows):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][fc]
        basis.append(vec)
    return basis


def solve_square(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve A x = b for square A; None when A is singular or inconsistent."""
    n = len(rows)
    m = [rows[i][:] + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return [m[i][n] for i in range(n)]


def hermite_row_basis(rows: list[list[int]]) -> list[list[int]]:
    """Row-echelon basis of the integer row module generated by `rows`.

    Row operations are unimodular, so the returned rows generate exactly
    the same subgroup of Z^n; pivots are positive.
    """
    m = [row[:] for row in rows if any(row)]
    if not m:
        return []
    n_cols = len(m[0])
    r = 0
    for col in range(n_cols):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            # gcd step: zero m[i][col] with a unimodular 2x2 transform
            a, b = m[r][col], m[i][col]
            while b != 0:
                q = a // b
                m[r], m[i] = m[i], [x - q * y for x, y in zip(m[r], m[i])]
                a, b = m[r][col], m[i][col]
        if m[r][col] < 0:
            m[r] = [-x for x in m[r]]
        r += 1
    return [row for row in m[:r] if any(row)]


def integer_coordinates(basis: list[list[int]], vec: list[int]) -> list[int] | None:
    """Express vec as an integer combination of echelon `basis` rows.

    Returns None when vec is outside the generated module (which cannot
    happen when basis came from hermite_row_basis over rows including vec).
    """
    res = vec[:]
    coords = []
    pivcols = [next(j for j, x in enumerate(row) if x != 0) for row in basis]
    for row, pc in zip(basis, pivcols):
        t, rem = divmod(res[pc], row[pc])
        if rem != 0:
            return None
        coords.append(t)
        res = [x - t * y for x, y in zip(res, row)]
    if any(res):
        return None
    return coords

