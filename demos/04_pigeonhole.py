#!/usr/bin/env python3
"""Simultaneous approximation by pigeonhole, and the separation diagnostic.

For each n the scan returns the smallest k with ||k beta_j|| <= 1/(mn)
for every j, certified against the cube bound (mn)^r + 1; then a reduced
orbit is screened for integers k whose multiples stay near 0.
"""

from multirot.diophantine import kxn_separation, pigeonhole_approx
from multirot.exact import builtin_table
from multirot.orbit import RandomSymbols, generate_orbit, reduced_orbit, steps_from_values

table = builtin_table()
betas = [table.value("sqrt2"), table.value("sqrt3")]

print("== minimal k with ||k beta_j|| <= 1/(mn), beta = (sqrt2, sqrt3), m = 1 ==")
print(f"{'n':>4s} {'bound':>10s} {'k_n':>8s} {'cube bound':>12s} {'achieved':>24s}")
for n in (1, 2, 4, 8, 16, 32, 64):
    res = pigeonhole_approx(betas, 1, n)
    ach = ", ".join(f"{float(a):.2e}" for a in res.achieved)
    print(f"{n:4d} {float(res.bound()):10.2e} {res.k:8d} {res.k_space():12d}   [{ach}]")

print()
print("== bucket fallback when the scan budget is too small ==")
res = pigeonhole_approx(betas, 3, 50, scan_budget=1000)
print(f"path={res.path} (not necessarily minimal), k={res.k} <= {res.k_space()}")

print()
print("== sup_n ||k x~_n|| for a reduced (sqrt2, sqrt3) orbit ==")
steps = steps_from_values(table, ["sqrt2", "sqrt3"])
orbit = generate_orbit(steps, RandomSymbols(), 100_000, 128, seed=11)
red = reduced_orbit(orbit)
report = kxn_separation(red.top64, 1, 40)
worst = min(report.rows, key=lambda row: row.sup_norm)
print(f"k in [1, 40]: smallest observed max is {worst.sup_norm:.4f} at k={worst.k} "
      f"(n_argmax={worst.n_argmax})")
print(f"entries below 1/5: {report.flagged() or 'none'} "
      "(a finite-n max only understates the true supremum)")
