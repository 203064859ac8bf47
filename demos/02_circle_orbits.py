#!/usr/bin/env python3
"""Circle orbits under two rotation steps, with all counting sequences.

Generates (sqrt2, sqrt3)-orbits under three strategies, prints the tau
statistics, reduces the orbit to its irrational part, and exports both
serialization formats.
"""

import tempfile
from fractions import Fraction as F
from math import lcm
from pathlib import Path

from multirot.exact import builtin_table
from multirot.orbit import (
    GreedyAvoid,
    PeriodicWord,
    RandomSymbols,
    first_forbidden_violation,
    generate_orbit,
    reduced_orbit,
    steps_from_values,
    tau_discrepancy,
    write_orb1,
    write_orbit_csv,
)

table = builtin_table()
steps = steps_from_values(table, ["sqrt2", "sqrt3"])
print(f"step system: ell={steps.ell}, r={steps.r}, lambda={steps.lam}, m={steps.m_coeff}")
print(f"expansion p = {steps.p}, q = {steps.q}")

print()
print("== alternating word (1 2 1 2 ...) ==")
orbit = generate_orbit(steps, PeriodicWord((1, 2)), 100_000, bits=128)
rep = tau_discrepancy(orbit, bound=2)
print(f"tau estimate = {rep.tau_estimate}, max pair defect = {rep.max_pair_defect}, "
      f"max |tau(n) - <n tau>| = {rep.max_dev_half_toward_zero} (half toward zero), "
      f"{rep.max_dev_integer_part} (integer part)")

print()
print("== seeded random word ==")
orbit = generate_orbit(steps, RandomSymbols(), 100_000, bits=128, seed=7)
rep = tau_discrepancy(orbit)
print(f"tau estimate = {float(rep.tau_estimate):.4f}, "
      f"max pair defect over samples = {rep.max_pair_defect} (grows ~ sqrt n; no bound claimed)")

red = reduced_orbit(orbit)
# x_k - x~_k = sum_i q*_i N_i(k) mod 1, stepped exactly in integers over one denominator
denom = lcm(*(q.denominator for q in red.qstar))
share = [int(q * denom) % denom for q in red.qstar]
v, seen = 0, {0}
for sym in orbit.omega.tolist():
    v = (v + share[sym - 1]) % denom
    seen.add(v)
diffs = tuple(F(v, denom) for v in sorted(seen))
print(f"reduced orbit: shifted beta index {red.shift_index} by {red.shift_amount}; "
      f"x - x~ takes {len(diffs)} value(s): {diffs}")

print()
print("== greedy-avoid strategy, forbidden (0.4, 0.6) ==")
lo, hi = F(4, 10), F(6, 10)
orbit = generate_orbit(steps, GreedyAvoid(lo, hi), 100_000, bits=128)
violation = first_forbidden_violation(orbit, lo, hi)
print("first violation index:", "none (orbit avoided the interval)" if violation is None else violation)

out = Path(tempfile.mkdtemp(prefix="multirot-demo-"))
write_orbit_csv(orbit, out / "orbit.csv")
write_orb1(orbit, out / "orbit.orb1")
print(f"exports written under {out}")
