"""Step systems: a family alpha_1..alpha_ell with its integer expansion.

Given the steps as declared-basis reals, we choose a basis 1, beta_1..beta_r
of span_Q(1, alpha_1..alpha_ell) such that every alpha_i is an *integer*
combination of the betas plus a rational:

    alpha_i = sum_j p_ij beta_j + q_i,   p_ij in Z,  q_i in Q.

The irrational parts of the alphas generate a free abelian group of rank r
inside span_Q(beta-labels); a Hermite basis of that group (after clearing
denominators) provides the betas and makes the p_ij integers by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import UsageError
from ..fixedpoint import fp_from_fraction
from ..exact.linalg import common_denominator, hermite_row_basis, integer_coordinates, rank_rational
from ..exact.symbolic import BasisTable, SymbolicReal


@dataclass(frozen=True)
class StepSystem:
    """alpha_1..alpha_ell with expansion data over a chosen integer basis."""

    alphas: tuple[SymbolicReal, ...]
    betas: tuple[SymbolicReal, ...]     # the beta_j, as combinations of table entries
    p: tuple[tuple[int, ...], ...]      # ell x r integer matrix
    q: tuple[Fraction, ...]             # rational parts, one per step
    r: int                              # dim span_Q(1, alphas) - 1
    lam: int                            # dim span_Q(alphas) alone

    @property
    def ell(self) -> int:
        return len(self.alphas)

    @property
    def table(self) -> BasisTable:
        return self.alphas[0].table

    @property
    def m_coeff(self) -> int:
        """max_i sum_j |p_ij| (the pigeonhole constant m); 0 when r = 0."""
        if self.r == 0:
            return 0
        return max(sum(abs(x) for x in row) for row in self.p)

    def fixed_point_steps(self, bits: int) -> tuple[int, ...]:
        """Each alpha_i reduced mod 1 as a B-bit fixed-point fraction."""
        return tuple(fp_from_fraction(a.value(), bits) for a in self.alphas)

    def beta_values(self) -> tuple[Fraction, ...]:
        return tuple(b.value() for b in self.betas)


def build_step_system(alphas: list[SymbolicReal]) -> StepSystem:
    """Compute the integer expansion for a step family (ell >= 1)."""
    if not alphas:
        raise UsageError("need at least one step")
    table = alphas[0].table
    for a in alphas:
        if a.table is not table:
            raise UsageError("steps must share one BasisTable")
    labels = [l for l in table.labels() if any(l in a.coeffs for a in alphas)]
    for l in labels:
        if not table.is_irrational(l):
            raise UsageError(f"basis entry {l!r} used by a step is not declared irrational")

    denom, int_rows = common_denominator([a.coefficient_vector(labels) for a in alphas])
    hermite = hermite_row_basis(int_rows)
    r = len(hermite)

    betas = tuple(
        SymbolicReal(table, 0, {labels[k]: Fraction(h[k], denom) for k in range(len(labels))})
        for h in hermite
    )
    p_rows = []
    for row in int_rows:
        coords = integer_coordinates(hermite, row)
        assert coords is not None, "expansion rows must lie in their own Hermite module"
        p_rows.append(tuple(coords))
    q = tuple(a.q0 for a in alphas)

    # exact reconstruction check: alpha_i == sum_j p_ij beta_j + q_i
    for a, prow, qi in zip(alphas, p_rows, q):
        acc = SymbolicReal(table, qi, {})
        for pij, beta in zip(prow, betas):
            acc = acc + beta * pij
        assert acc == a, "expansion failed to reproduce a step exactly"

    lam_rows = [[a.q0] + a.coefficient_vector(labels) for a in alphas]
    lam = rank_rational(lam_rows)

    return StepSystem(tuple(alphas), betas, tuple(p_rows), q, r, lam)


def steps_from_values(table: BasisTable, values) -> StepSystem:
    """Convenience builder: values may be rationals, labels, or SymbolicReals."""
    alphas = []
    for v in values:
        if isinstance(v, SymbolicReal):
            alphas.append(v)
        elif isinstance(v, str) and v in table:
            alphas.append(table.symbol(v))
        else:
            alphas.append(table.real(Fraction(v)))
    return build_step_system(alphas)
