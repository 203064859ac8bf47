#!/usr/bin/env python3
"""Exact arithmetic walkthrough: declared bases, ranks, mod-1 independence.

Everything printed here is decided in exact rational arithmetic.
"""

from fractions import Fraction as F

from multirot.exact import (
    builtin_table,
    commensurability_witness,
    q_independent_mod1,
    qplus_independent_mod1,
    rank_span,
)
from multirot.orbit import build_step_system

table = builtin_table()
sqrt2 = table.symbol("sqrt2")
sqrt3 = table.symbol("sqrt3")

print("== rational ranks over the declared basis ==")
print("dim span_Q(sqrt2, sqrt3)            =", rank_span([sqrt2, sqrt3]))
print("dim span_Q(1, sqrt2, sqrt3)         =", rank_span([sqrt2, sqrt3], include_one=True))
print("dim span_Q(sqrt2, 1 + 2 sqrt2)      =", rank_span([sqrt2, 1 + 2 * sqrt2]))

print()
print("== Q+ and Q independence mod 1 ==")
for name, alphas in [
    ("(sqrt2, sqrt3)", [sqrt2, sqrt3]),
    ("(sqrt2, 1 - sqrt2)", [sqrt2, 1 - sqrt2]),
    ("(sqrt2, sqrt2 + 1/2)", [sqrt2, sqrt2 + F(1, 2)]),
    ("(1/3,)", [table.real(F(1, 3))]),
]:
    steps = build_step_system(alphas)
    plus = qplus_independent_mod1(steps)
    full = q_independent_mod1(steps)
    def show(v):
        if v.independent:
            return "independent"
        return "dependent, t = (" + ", ".join(str(t) for t in v.witness) + ")"
    print(f"{name:24s} Q+: {show(plus):34s} Q: {show(full)}")

print()
print("== multiplicative commensurability of contraction ratios ==")
for rhos, gammas in [
    ([F(1, 3)], [F(1, 9)]),
    ([F(1, 2), F(1, 3)], [F(1, 6)]),
    ([F(1, 2)], [F(1, 3)]),
]:
    out = commensurability_witness(rhos, gammas, denominator_bound=64)
    if out.witness is not None:
        cols = ["(" + ", ".join(str(t) for t in out.witness.column(j)) + ")"
                for j in range(len(gammas))]
        print(f"rho={rhos} gamma={gammas}: witness t = {', '.join(cols)}")
    else:
        print(f"rho={rhos} gamma={gammas}: no witness (infeasible)")

