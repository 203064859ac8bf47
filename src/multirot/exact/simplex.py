"""Exact phase-1 simplex over the rationals.

Used to decide, with no floating point anywhere, whether a system
A x = b, x >= 0 is feasible, and to extract a basic (vertex) solution.
Bland's rule guarantees termination.  The tableau, objective row
included, is updated by `linalg.pivot`, and vertices are enumerated by
`linalg.solve` on each column support.  Problems here are tiny (a
handful of variables), so no effort is spent on sparsity.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .linalg import pivot, solve

ZERO = Fraction(0)


def feasible_point(a_rows: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Return x >= 0 with A x = b, or None when the system is infeasible."""
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    if m == 0:
        return [ZERO] * n
    # normalize to b >= 0, then minimize the sum of artificial variables
    rows = []
    rhs = []
    for i in range(m):
        if b[i] < 0:
            rows.append([-x for x in a_rows[i]])
            rhs.append(-b[i])
        else:
            rows.append(a_rows[i][:])
            rhs.append(b[i])
    total = n + m
    tableau = [rows[i] + [Fraction(int(j == i)) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    # the objective row for min(sum of artificials), in reduced costs, is the
    # tableau's last row, so each pivot updates it along with the rest
    tableau.append([sum(col, ZERO) for col in zip(*tableau)])

    while True:
        enter = next((j for j in range(total) if j not in basis and tableau[m][j] > 0), None)
        if enter is None:
            break
        # ratio test with Bland tie-break on the leaving basic variable
        leave = None
        best = None
        for i in range(m):
            if tableau[i][enter] > 0:
                ratio = tableau[i][total] / tableau[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            # unbounded phase-1 objective cannot happen (bounded below by 0)
            raise RuntimeError("phase-1 simplex: no leaving variable")
        pivot(tableau, leave, enter)
        basis[leave] = enter

    if tableau[m][total] != 0:
        return None
    x = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][total]
        elif tableau[i][total] != 0:
            return None  # artificial stuck at a nonzero value
    return x


def nonneg_kernel_vector(a_rows: list[list[Fraction]], n_vars: int) -> list[Fraction] | None:
    """A nonzero x >= 0 with A x = 0, or None when only x = 0 qualifies.

    Any nonzero nonnegative kernel element has some coordinate > 0, so it
    can be rescaled to put that coordinate at 1; we test each coordinate.
    """
    if n_vars == 0:
        return None
    if not a_rows:
        vec = [ZERO] * n_vars
        vec[0] = Fraction(1)
        return vec
    for i in range(n_vars):
        sub = [[row[j] for j in range(n_vars) if j != i] for row in a_rows]
        rhs = [-row[i] for row in a_rows]
        sol = feasible_point(sub, rhs)
        if sol is not None:
            vec = sol[:i] + [Fraction(1)] + sol[i:]
            return vec
    return None


def basic_feasible_solutions(a_rows: list[list[Fraction]], b: list[Fraction]) -> list[list[Fraction]]:
    """Enumerate vertex solutions of {A x = b, x >= 0} (small systems only)."""
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    out = []
    seen = set()
    for size in range(0, min(m, n) + 1):
        for cols in combinations(range(n), size):
            square = solve([[row[c] for c in cols] for row in a_rows], b)
            if square is None:
                continue
            x = [ZERO] * n
            for c, v in zip(cols, square):
                x[c] = v
            if any(v < 0 for v in x):
                continue
            key = tuple(x)
            if key not in seen:
                seen.add(key)
                out.append(x)
    return out
