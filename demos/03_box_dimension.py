#!/usr/bin/env python3
"""Box-counting walkthrough: attractor samples, orbits, difference sets.

Profiles the middle-third Cantor set and a two-rotation orbit over dyadic
scales, checks the exact scaled-covering inequality, and renders the
log-log plot as SVG.
"""

import tempfile
from fractions import Fraction as F
from math import log
from pathlib import Path

from multirot import boxdim as bx
from multirot.cli.config import ExperimentConfig
from multirot.cli.runner import run_config
from multirot.exact import builtin_table
from multirot.ifs import SimilarIFS
from multirot.orbit import RandomSymbols, generate_orbit, steps_from_values

print("== middle-third Cantor set, depth-12 attractor sample ==")
cantor = SimilarIFS.line_maps([(F(1, 3), 0), (F(1, 3), F(2, 3))])
points = bx.CirclePoints.from_grid(*cantor.line_sample(12))  # x / q for x in xs
profile = bx.covering_profile(points, 4, 12)
est = bx.box_dim_estimate(profile)
print(f"points={len(points)}  global slope={est.slope_global:.4f}  "
      f"(log 2 / log 3 = {log(2) / log(3):.4f})")
print(f"local slopes: {['%.3f' % s for s in est.slopes_local]}")

# the boxdim recipe writes the same profile as results.csv and plot.svg
out = Path(tempfile.mkdtemp(prefix="multirot-demo-"))
cantor_spec = ({"ratio": "1/3", "shift": "0"}, {"ratio": "1/3", "shift": "2/3"})
run_config(ExperimentConfig(kind="boxdim", out_dir=str(out), ifs=cantor_spec,
                            scales=(4, 12), params={"depth": 12}))
print(f"profile artifacts under {out}: {sorted(p.name for p in out.iterdir())}")

print()
print("== (sqrt2, sqrt3) random orbit, one million points ==")
steps = steps_from_values(builtin_table(), ["sqrt2", "sqrt3"])
orbit = generate_orbit(steps, RandomSymbols(), 10**6, 128, seed=3)
opoints = bx.CirclePoints.from_orbit(orbit)
oest = bx.box_dim_estimate(bx.covering_profile(opoints, 6, 14))
print(f"lower est={oest.lower_est:.4f}  upper est={oest.upper_est:.4f}  "
      f"(orbit bound for r=2 is 1/3)")

gap = bx.gap_profile(opoints, 12)
print(f"max circular gap = {float(gap.max_gap):.2e}; "
      f"occupied cell fraction at 2^-12 = {float(gap.cover_fraction):.4f}")

diff = bx.difference_set(opoints, cell_k=12)
print(f"difference set occupies {diff.cell_count} of {1 << 12} cells "
      f"(cell-level, one-cell slack)")

print()
print("== the exact scaled-covering inequality ==")
small = bx.CirclePoints.from_unit_reals([F(i * i, 97) % 1 for i in range(40)])
for p, k in [(2, 4), (3, 6), (16, 8)]:
    res = bx.scaled_covering_check(small, p, k)
    print(f"p={p:2d} k={k}: N_(p 2^-k)(pA) = {res.lhs:3d} <= N_(2^-k)(A) = {res.rhs:3d}  "
          f"holds={res.holds}")
