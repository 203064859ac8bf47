"""Multiplicative commensurability witnesses.

Decides, for contraction ratios rho_1..rho_ell and gamma_1..gamma_m in
(0,1), whether gamma_j = prod_i rho_i ** t_ij for nonnegative rationals
t_ij.  In log space this is the exact feasibility of a linear system over
nonnegative rationals.  Rational ratios are encoded by prime-exponent
vectors (independent over Q by unique factorization); irrational ratios
may be supplied as exact logarithms expanded over a declared log-basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import DomainError
from .primes import exponent_vector
from .simplex import basic_feasible_solutions, feasible_point
from .symbolic import SymbolicReal

Ratio = "Fraction | SymbolicReal"  # SymbolicReal carries log(ratio)


def log_vector(ratio) -> dict[tuple, Fraction]:
    """Exact coordinates of log(ratio) over Q-independent log coordinates.

    Keys: ("p", prime) for prime logarithms, ("1",) for the rational unit,
    ("b", label) for declared log-basis entries.
    """
    if isinstance(ratio, SymbolicReal):
        if ratio.value() >= 0:
            raise DomainError("symbolic log must be negative (ratio in (0,1))")
        vec: dict[tuple, Fraction] = {}
        if ratio.q0 != 0:
            vec[("1",)] = ratio.q0
        for label, c in ratio.coeffs.items():
            vec[("b", label)] = c
        return vec
    q = Fraction(ratio)
    if not (0 < q < 1):
        raise DomainError(f"ratio {q} outside (0,1)")
    return {("p", p): Fraction(e) for p, e in exponent_vector(q).items()}


def log_rows(ratios) -> tuple[list[tuple], list[list[Fraction]]]:
    """(keys, rows): the sorted union of the ratios' log_vector keys, and
    each ratio's log_vector as a dense row over them."""
    vecs = [log_vector(r) for r in ratios]
    keys = sorted({k for v in vecs for k in v})
    return keys, [[v.get(k, Fraction(0)) for k in keys] for v in vecs]


@dataclass(frozen=True)
class CommensurabilityWitness:
    """Nonnegative rational exponents t[i][j] with gamma_j = prod rho_i^t[i][j]."""

    exponents: tuple[tuple[Fraction, ...], ...]  # ell x m

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.exponents)


@dataclass(frozen=True)
class ColumnVerdict:
    feasible: bool
    exponents: tuple[Fraction, ...] | None  # exact witness when feasible
    within_bound: bool


@dataclass(frozen=True)
class CommensurabilityOutcome:
    columns: tuple[ColumnVerdict, ...]
    denominator_bound: int

    @property
    def witness(self) -> CommensurabilityWitness | None:
        """The bounded witness matrix, or None (infeasible or out of bound)."""
        if not all(c.feasible and c.within_bound for c in self.columns):
            return None
        ell = len(self.columns[0].exponents)
        rows = tuple(
            tuple(self.columns[j].exponents[i] for j in range(len(self.columns)))
            for i in range(ell)
        )
        return CommensurabilityWitness(rows)

    def __bool__(self) -> bool:
        return self.witness is not None


def commensurability_witness(rhos, gammas, denominator_bound: int = 64) -> CommensurabilityOutcome:
    """Decide each gamma_j independently; exact, never floating point.

    Returns a bounded witness when one exists among vertex solutions with
    all denominators <= denominator_bound, otherwise records the exact
    feasibility verdict (with an unbounded witness when feasible).
    """
    ell = len(rhos)
    keys, logs = log_rows([*rhos, *gammas])
    # one equation per log coordinate, one unknown per rho
    a_rows = [[row[i] for row in logs[:ell]] for i in range(len(keys))]
    columns = []
    for b in logs[ell:]:
        t = feasible_point(a_rows, b)
        if t is None:
            columns.append(ColumnVerdict(False, None, False))
            continue
        if max(x.denominator for x in t) > denominator_bound:
            # the first vertex found is not bounded; look through all vertices
            for cand in basic_feasible_solutions(a_rows, b):
                if max(x.denominator for x in cand) <= denominator_bound:
                    t = cand
                    break
        within = max(x.denominator for x in t) <= denominator_bound
        columns.append(ColumnVerdict(True, tuple(t), within))
    return CommensurabilityOutcome(tuple(columns), denominator_bound)
