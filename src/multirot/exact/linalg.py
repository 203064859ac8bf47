"""Exact linear algebra over the rationals and the integers.

Everything here is small and dense.  Ranks come from fraction-free
(Bareiss) elimination; kernels, solves and the simplex's tableau all go
through one Gauss-Jordan `pivot` over Fractions, and a row-style Hermite
form extracts an integer-coefficient basis of a finitely generated
subgroup of Q^n.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def common_denominator(rows: list[list[Fraction]]) -> tuple[int, list[list[int]]]:
    """(d, rows scaled by d), d the lcm of every entry's denominator."""
    d = lcm(*(c.denominator for row in rows for c in row))
    return d, [[int(c * d) for c in row] for row in rows]


def rank_rational(rows: list[list[Fraction]]) -> int:
    """Rank over Q by fraction-free Gaussian elimination (Bareiss).

    Each row is first scaled by the lcm of its own denominators, which
    keeps the rank and leaves integers only; rows of ints are accepted too.
    """
    m = []
    for row in rows:
        d = lcm(*(f.denominator for f in row))
        m.append([int(f * d) for f in row])
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


def pivot(m: list[list[Fraction]], r: int, col: int) -> None:
    """Gauss-Jordan step in place: scale row r to a 1 at col, clear col from every other row."""
    inv = 1 / m[r][col]
    m[r] = [v * inv for v in m[r]]
    for i, row in enumerate(m):
        if i != r and row[col] != 0:
            f = row[col]
            m[i] = [a - f * b for a, b in zip(row, m[r])]


def rref(rows: list[list[Fraction]], n_cols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of rows: (reduced rows, pivot columns).

    Pivots are sought in the first n_cols columns only; later columns (a
    right-hand side) ride along.  The form is unique, so the result does
    not depend on the order of elimination.
    """
    m = [row[:] for row in rows]
    pivots: list[int] = []
    for col in range(n_cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pivot(m, r, col)
        pivots.append(col)
    return m, pivots


def kernel_basis(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of {x : A x = 0}, one vector per non-pivot column of rref(A)."""
    n_cols = len(rows[0]) if rows else 0
    m, pivots = rref(rows, n_cols)
    basis = []
    for fc in range(n_cols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][fc]
        basis.append(vec)
    return basis


def solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """The unique x with A x = b.

    None when A's columns are dependent or the system is inconsistent.
    """
    n = len(rows[0]) if rows else 0
    m, pivots = rref([row + [b] for row, b in zip(rows, rhs)], n)
    if len(pivots) < n or any(row[n] != 0 for row in m[n:]):
        return None
    return [row[n] for row in m[:n]]


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

