"""Rational rank and mod-1 independence decisions for declared-basis reals.

The step family alpha_1..alpha_ell is carried by a StepSystem, which
stores the integer expansion alpha_i = sum_j p_ij beta_j + q_i over a
basis 1, beta_1..beta_r that is independent over Q (by declaration).  A
combination sum_i t_i alpha_i is an integer exactly when every beta
coordinate cancels, sum_i t_i p_ij = 0 for all j, and the leftover
rational sum_i t_i q_i is an integer.  Because a candidate t may be
rescaled by any positive rational, the integrality constraint is free:
when s = sum t_i q_i is nonzero, t/|s| makes the sum +-1; when s = 0 the
sum is already the integer 0.  The decision therefore reduces to whether
the coefficient matrix has a nonzero (nonnegative) rational kernel
vector, decided exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import UsageError
from .linalg import kernel_basis, rank_rational
from .simplex import nonneg_kernel_vector
from .symbolic import SymbolicReal


def rank_span(reals: list[SymbolicReal], include_one: bool = False) -> int:
    """dim span_Q of the inputs, optionally adjoining the constant 1.

    Each input contributes the vector (q0, c_1, ..., c_R) over the
    coordinate system (1, beta_1, ..., beta_R); adjoining 1 adds the unit
    vector on the first coordinate.  Computed by fraction-free elimination.
    """
    if not reals:
        return 1 if include_one else 0
    table = reals[0].table
    for x in reals:
        if x.table is not table:
            raise UsageError("mixed BasisTables")
    labels = [l for l in table.labels() if any(l in x.coeffs for x in reals)]
    rows = [[x.q0] + x.coefficient_vector(labels) for x in reals]
    if include_one:
        rows.append([Fraction(1)] + [Fraction(0)] * len(labels))
    return rank_rational(rows)


@dataclass(frozen=True)
class IndependenceVerdict:
    independent: bool
    witness: tuple[Fraction, ...] | None = None  # satisfies the mod-1 equation exactly

    def __bool__(self) -> bool:
        return self.independent


def _scaled_witness(t: list[Fraction], q: list[Fraction]) -> tuple[Fraction, ...]:
    """Rescale a kernel vector so sum t_i q_i lands exactly in Z."""
    s = sum((ti * qi for ti, qi in zip(t, q)), Fraction(0))
    if s != 0:
        t = [ti / abs(s) for ti in t]
    return tuple(t)


def _p_columns(steps) -> list[list[Fraction]]:
    """Rows = beta coordinates, columns = steps (the system sum_i t_i p_ij = 0)."""
    ell = len(steps.alphas)
    return [[Fraction(steps.p[i][j]) for i in range(ell)] for j in range(steps.r)]


def qplus_independent_mod1(steps) -> IndependenceVerdict:
    """Q_+ independence mod 1 of the step family (exact decision).

    Dependent iff some nonzero t >= 0 in Q^ell has all beta coordinates of
    sum t_i alpha_i vanish; the returned witness is rescaled so that
    sum t_i alpha_i is exactly an integer (see module docstring).
    """
    if len(steps.alphas) < 1:
        raise UsageError("need at least one step")
    rows = _p_columns(steps)
    t = nonneg_kernel_vector(rows, len(steps.alphas))
    if t is None:
        return IndependenceVerdict(True)
    return IndependenceVerdict(False, _scaled_witness(t, steps.q))


def q_independent_mod1(steps) -> IndependenceVerdict:
    """Q independence mod 1: t ranges over all of Q^ell."""
    if len(steps.alphas) < 1:
        raise UsageError("need at least one step")
    rows = _p_columns(steps)
    if not rows:
        t = [Fraction(0)] * len(steps.alphas)
        t[0] = Fraction(1)
        return IndependenceVerdict(False, _scaled_witness(t, steps.q))
    basis = kernel_basis(rows)
    if not basis:
        return IndependenceVerdict(True)
    return IndependenceVerdict(False, _scaled_witness(basis[0], steps.q))


def witness_combination(steps, witness: tuple[Fraction, ...]) -> SymbolicReal:
    """sum_i t_i alpha_i as an exact SymbolicReal (for re-substitution checks)."""
    acc = steps.alphas[0] * witness[0]
    for ti, alpha in zip(witness[1:], steps.alphas[1:]):
        acc = acc + alpha * ti
    return acc
