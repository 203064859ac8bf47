"""Exact oracles for the CLI workloads; they run untimed, at any seed.

`check_orbit_export` recomputes sampled orbit points from the counting
identity x_k = sum_i N_i(k) alpha_i mod 1 in `Fraction` arithmetic over
the config's declared basis, and checks the CSV against ORB1 on the same
rows.  `check_covers` runs a seeded sample of the scaled-covering recipe's
checks through `boxdim.scaled_covering_check`, the recipe's own entry
point, and compares both sides with `exact_cover`.
"""

from __future__ import annotations

import random
import struct
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

import numpy as np

ORBIT_SAMPLES = 16
COVER_SAMPLES = 6


def check_orbit_export(out: Path, cfg: dict, summary: dict) -> list[str]:
    values = {b["label"]: Fraction(b["value"]) for b in cfg["basis"]}
    alphas = [values[label] for label in cfg["steps"]]
    with open(out / "orbit.orb1", "rb") as fh:
        magic, ell, _, bits, n = struct.unpack("<4sIIIQ", fh.read(24))
        if magic != b"ORB1" or ell != len(alphas) or n != cfg["n"] or bits != cfg["bits"]:
            return [f"ORB1 header {magic!r} ell={ell} bits={bits} n={n} does not match the config"]
        omega = np.frombuffer(fh.read(n), dtype=np.uint8)
        rows = sorted(random.Random(cfg["seed"]).sample(range(n + 1), ORBIT_SAMPLES))
        points = {}
        for k in rows:
            fh.seek(24 + n + k * (bits // 8))
            points[k] = int.from_bytes(fh.read(bits // 8), "little")

    problems = []
    bound = Fraction(summary["error_bound"])
    counts = {k: [int(np.count_nonzero(omega[:k] == i + 1)) for i in range(ell)] for k in rows}
    for k in rows:
        exact = sum((c * a for c, a in zip(counts[k], alphas)), Fraction(0)) % 1
        gap = abs(Fraction(points[k], 1 << bits) - exact)
        if min(gap, 1 - gap) > bound:
            problems.append(f"orbit point {k} is {float(min(gap, 1 - gap)):.3g} from "
                            f"sum N_i(k) alpha_i mod 1, over error_bound {float(bound):.3g}")

    wanted = iter(rows)
    k = next(wanted)
    with open(out / "results.csv", encoding="utf-8") as fh:
        next(fh)  # header
        for line_no, line in enumerate(fh):
            if line_no != k:
                continue
            fields = line.rstrip("\n").split(",")
            expect = [str(k), str(int(omega[k - 1])) if k else "",
                      format(points[k], f"0{bits // 4}x")] + [str(c) for c in counts[k]]
            if fields[:3 + ell] != expect:
                problems.append(f"results.csv row {k} {fields[:3 + ell]} disagrees with ORB1 {expect}")
            k = next(wanted, None)
            if k is None:
                break
    if k is not None:
        problems.append(f"results.csv has no row {k}")
    return problems


def covering_sets(seed: int, trials: int, max_points: int) -> list[np.ndarray]:
    """The point sets `verify scaled-covering` draws for a config seed.

    Mirrors the recipe's use of its generator: per trial, a size from
    1..max_points, then that many 63-bit integers shifted left by one.
    """
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(trials):
        size = int(rng.integers(1, max_points + 1))
        raw = rng.integers(0, 1 << 63, size=size, dtype=np.int64).astype(np.uint64)
        sets.append(raw << np.uint64(1))
    return sets


def covering_sizes(seed: int, trials: int, max_points: int) -> list[int]:
    return [int(s.size) for s in covering_sets(seed, trials, max_points)]


def exact_cover(vals: list[int], delta: int, mod: int) -> int:
    """Fewest closed arcs [a, a + delta] covering vals on Z/mod, exactly.

    Some optimal cover has every arc starting at a point: slide each arc
    forward to the first point it covers.  One of those arcs covers the
    first point, and is tried in every position that does; the points it
    leaves uncovered lie on a line, where f[i], the fewest arcs covering
    line points i.., is the minimum over every arc start j that covers
    point i of 1 + f[first point past that arc].  No arc is placed
    greedily.
    """
    pts = sorted(set(vals))
    n = len(pts)
    best = n
    for s in range(n):
        if (pts[0] - pts[s]) % mod > delta:
            continue  # the arc at pts[s] does not cover pts[0]
        # the points the arc at pts[s] leaves uncovered, unrolled from pts[s]
        line = sorted(u for u in ((v - pts[s]) % mod for v in pts) if u > delta)
        m = len(line)
        f = [0] * (m + 1)
        past = [bisect_right(line, u + delta) for u in line]  # > j for arc start j
        for i in range(m - 1, -1, -1):
            lo = bisect_left(line, line[i] - delta)
            f[i] = 1 + min(f[past[j]] for j in range(lo, i + 1))
        best = min(best, 1 + f[0])
    return best


def check_covers(cfg: dict) -> list[str]:
    """Compare sampled scaled-covering checks of the recipe with exact_cover.

    Each sampled check runs through `scaled_covering_check` on the trial's
    points.  The expected sides follow its contract: a point x in [0, 1)
    lies on the grid of 2**COVER_BITS cells as floor(x * 2**COVER_BITS),
    rhs is the fewest arcs of length 2**-k covering A there, and lhs the
    fewest arcs of length p * 2**-k covering pA mod 1.
    """
    from multirot import boxdim as bx

    params = cfg["params"]
    sets = covering_sets(cfg["seed"], params["trials"], params["max_points"])
    rng = random.Random(cfg["seed"])
    mod = 1 << bx.COVER_BITS
    problems = []
    for _ in range(COVER_SAMPLES):
        t = rng.randrange(len(sets))
        k = rng.randint(1, params["k_max"])
        p = rng.randint(1, min(params["p_max"], (1 << k) - 1))
        res = bx.scaled_covering_check(bx.CirclePoints(sets[t]), p, k)
        grid = {int(v) * mod // (1 << bx.BITS) for v in sets[t]}
        delta = mod >> k
        rhs = exact_cover(list(grid), delta, mod)
        lhs = exact_cover([p * a % mod for a in grid], p * delta, mod)
        if (res.lhs, res.rhs, res.holds) != (lhs, rhs, lhs <= rhs):
            problems.append(f"trial {t} k={k} p={p}: scaled_covering_check gave lhs={res.lhs} "
                            f"rhs={res.rhs} holds={res.holds}, exact covers lhs={lhs} rhs={rhs}")
    return problems
