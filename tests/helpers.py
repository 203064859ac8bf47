"""Independent oracles shared by the test modules.

Everything here recomputes expected values by brute force or direct
definition, deliberately avoiding the library's own decision paths.
"""

from __future__ import annotations

import bisect
import random
from decimal import ROUND_FLOOR, Context, Decimal, localcontext
from fractions import Fraction
from itertools import combinations, product
from math import ceil, isqrt, lcm, log
from operator import itemgetter

import numpy as np

from multirot.embedtrace import SnEntry, SnTrace
from multirot.exact.symbolic import BasisEntry, BasisTable, SymbolicReal, builtin_table
from multirot.fixedpoint import fp_from_fraction, limb_chunks, limbs
from multirot.ifs import Ball, EmbeddingCheck
from multirot.orbit import steps_from_values

# -- random declared-irrational bases -----------------------------------------


def random_decimal(rng: random.Random, lo: float = 0.05, hi: float = 0.95) -> str:
    """A 55-digit decimal in (lo, hi); 'irrational for all practical purposes'."""
    first = rng.uniform(lo, hi)
    head = f"{first:.6f}"
    tail = "".join(rng.choice("0123456789") for _ in range(49))
    return head + tail


def random_basis(rng: random.Random, r: int, prefix: str = "b") -> BasisTable:
    return BasisTable(
        BasisEntry(f"{prefix}{j}", random_decimal(rng), True) for j in range(r)
    )


# -- brute-force mod-1 dependence search ---------------------------------------

def _fraction_grid(max_num: int, max_den: int) -> list[Fraction]:
    vals = {Fraction(0)}
    for a in range(1, max_num + 1):
        for b in range(1, max_den + 1):
            vals.add(Fraction(a, b))
    return sorted(vals)


def brute_force_qplus_witness(
    alphas: list[SymbolicReal], max_num: int = 8, max_den: int = 8
) -> tuple[Fraction, ...] | None:
    """Search t in Q_+^ell (numerators, denominators <= bounds) with
    sum t_i alpha_i an exact integer; meet-in-the-middle on the raw
    coefficient vectors, independent of the expansion machinery.

    Every grid value is an integer over the grid's common denominator
    `den`, and every alpha's coefficients and rational part are integers
    over `scale`, so each partial sum is one integer vector: its
    coefficients, then its rational part mod den * scale (the part mod 1).
    """
    table = alphas[0].table
    labels = sorted({l for a in alphas for l in a.coeffs}, key=table.order)
    grid = _fraction_grid(max_num, max_den)
    den = lcm(*(t.denominator for t in grid))
    scale = lcm(*(c.denominator for a in alphas for c in (a.q0, *a.coeffs.values())))
    mod = den * scale
    nums = [t.numerator * (den // t.denominator) for t in grid]
    # terms[i][g]: grid[g] * alpha_i, times den * scale
    terms = [
        [tuple(num * int(c * scale) for c in (*(a.coeffs.get(l, 0) for l in labels), a.q0))
         for num in nums]
        for a in alphas
    ]
    ell = len(alphas)
    half = ell // 2

    def accumulate(idx, idx0):
        *vec, q = (sum(col) for col in zip(*(terms[idx0 + i][g] for i, g in enumerate(idx))))
        return tuple(vec), q % mod

    left_nonzero: dict = {}
    for idx in product(range(len(grid)), repeat=half):
        if not any(idx):  # grid[0] is 0
            continue
        left_nonzero.setdefault(accumulate(idx, 0), idx)

    zero_vec = (0,) * len(labels)
    for idx in product(range(len(grid)), repeat=ell - half):
        vec, q = accumulate(idx, half)
        if any(idx) and vec == zero_vec and q == 0:
            return tuple([Fraction(0)] * half) + tuple(grid[g] for g in idx)
        match = left_nonzero.get((tuple(-v for v in vec), -q % mod))
        if match is not None:
            return tuple(grid[g] for g in match + idx)
    return None


def exact_integer_combination(alphas: list[SymbolicReal], t: tuple[Fraction, ...]) -> bool:
    """Is sum t_i alpha_i an exact integer (symbolically, no floats)?"""
    acc = alphas[0] * t[0]
    for ti, a in zip(t[1:], alphas[1:]):
        acc = acc + a * ti
    return acc.is_integer()


# -- brute-force commensurability ------------------------------------------------

def brute_force_commensurable(
    rho_vecs: list[dict], gamma_vec: dict, bound: int
) -> tuple[Fraction, ...] | None:
    """Witness t with common denominator <= bound, or None.

    Enumerates the common denominator D and the scaled integer exponents
    directly against the prime-exponent equation, with every exponent an
    integer over one common denominator; ell <= 2 only.
    """
    keys = sorted({k for v in rho_vecs + [gamma_vec] for k in v})
    # t_0 * (-log rho_0) <= -log gamma, in prime-log space
    num = -sum(float(gamma_vec.get(k, 0)) * log(k[1]) for k in keys if k[0] == "p")
    den = -sum(float(rho_vecs[0].get(k, 0)) * log(k[1]) for k in keys if k[0] == "p")
    cap0 = ceil(num / den) + 1
    # every exponent as an integer over one common denominator
    scale = lcm(*(e.denominator for v in rho_vecs + [gamma_vec] for e in v.values()))
    rows = np.array([[int(v.get(k, 0) * scale) for k in keys] for v in rho_vecs], dtype=np.int64)
    g = np.array([int(gamma_vec.get(k, 0) * scale) for k in keys], dtype=np.int64)
    ell = len(rho_vecs)
    assert ell <= 2, "brute force supports ell <= 2"
    for d in range(1, bound + 1):
        # every a0 of this d at once, in increasing order
        a0 = np.arange(cap0 * d + 1, dtype=np.int64)
        if ell == 1:
            ok = np.flatnonzero((a0[:, None] * rows[0] == d * g).all(axis=1))
            if ok.size:
                return (Fraction(int(a0[ok[0]]), d),)
            continue
        pivot = int(np.flatnonzero(rows[1])[0])
        a1, rem = np.divmod(d * g[pivot] - a0 * rows[0][pivot], rows[1][pivot])
        ok = (rem == 0) & (a1 >= 0)
        ok &= (a0[:, None] * rows[0] + a1[:, None] * rows[1] == d * g).all(axis=1)
        if (hit := np.flatnonzero(ok)).size:
            return (Fraction(int(a0[hit[0]]), d), Fraction(int(a1[hit[0]]), d))
    return None


# -- feasibility of A x = b, x >= 0, by basic solutions ----------------------------

def determinant(m: list[list[Fraction]]) -> Fraction:
    """Cofactor expansion along the first row (small matrices only)."""
    if not m:
        return Fraction(1)
    return sum(
        ((-1) ** j * m[0][j] * determinant([row[:j] + row[j + 1:] for row in m[1:]])
         for j in range(len(m))),
        Fraction(0),
    )


def brute_force_feasible(a: list[list[Fraction]], b: list[Fraction]) -> bool:
    """Whether A x = b has a solution x >= 0.

    A feasible system has a basic solution: nonnegative values on linearly
    independent columns.  Every column support and every nonsingular square
    block of its rows is tried, the block solved by Cramer's rule, and the
    solution kept when it is nonnegative and satisfies every row.
    """
    n_rows, n_cols = len(a), len(a[0])
    for size in range(min(n_rows, n_cols) + 1):
        for cols in combinations(range(n_cols), size):
            for rows in combinations(range(n_rows), size):
                d = determinant([[a[i][j] for j in cols] for i in rows])
                if d == 0:
                    continue
                y = [
                    determinant([[b[i] if j == c else a[i][j] for j in cols] for i in rows]) / d
                    for c in cols
                ]
                if all(v >= 0 for v in y) and all(
                    sum((a[i][j] * v for j, v in zip(cols, y)), Fraction(0)) == b[i]
                    for i in range(n_rows)
                ):
                    return True
    return False


# -- 64-bit circle points of exact rationals --------------------------------------

def reference_unit_reals(xs, rescale: bool) -> list[int]:
    """Sorted distinct 64-bit points of the rationals xs, one Fraction floor each.

    Mod 1 a point is floor(frac(x) 2**64); rescaled it is
    floor((x - lo) / (hi - lo) (2**64 - 1)) over the hull [lo, hi], and a
    zero span gives the one point 0.  This is the Fraction arithmetic that
    `CirclePoints.from_grid`'s integer floors on one denominator replaced.
    """
    xs = [Fraction(x) for x in xs]
    if not rescale:
        scaled = [x % 1 * 2**64 for x in xs]
    else:
        lo, hi = min(xs), max(xs)
        if lo == hi:
            return [0]
        scaled = [(x - lo) / (hi - lo) * (2**64 - 1) for x in xs]
    return sorted({v.numerator // v.denominator for v in scaled})


# -- brute-force minimal circular cover --------------------------------------------

def brute_force_cover(vals: list[int], delta: int, mod: int) -> int:
    """Smallest anchored cover by closed intervals of length delta (exact)."""
    n = len(vals)
    for c in range(1, n + 1):
        for anchors in combinations(vals, c):
            if all(any((v - a) % mod <= delta for a in anchors) for v in vals):
                return c
    return n


# -- brute-force minimal pigeonhole k ------------------------------------------------

def brute_force_min_k(betas: list[Fraction], bound: Fraction, k_max: int) -> int:
    """Smallest k <= k_max with ||k beta_j|| <= bound for all j.

    Float screen (with generous slack) plus exact adjudication of the
    candidates, independent of the library's fixed-point path.  Callers
    verifying minimality of a candidate k pass k_max = k: the true
    minimum over [1, k] equals k exactly when k is minimal and valid.
    """
    fl = [float(b) for b in betas]
    slack = float(bound) + 1e-8
    block = 1 << 18
    for start in range(1, k_max + 1, block):
        stop = min(start + block, k_max + 1)
        ks = np.arange(start, stop, dtype=np.float64)
        v = ks * fl[0]
        cand = ks[np.abs(v - np.rint(v)) <= slack]  # ||x|| = |x - round(x)|
        for b in fl[1:]:
            if cand.size == 0:
                break
            v = cand * b
            cand = cand[np.abs(v - np.rint(v)) <= slack]
        for k in cand:
            k = int(k)
            if all(_norm_exact(k * b) <= bound for b in betas):
                return k
    raise AssertionError("no k within the pigeonhole range")


def _norm_exact(x: Fraction) -> Fraction:
    frac = x - (x.numerator // x.denominator)
    return min(frac, 1 - frac)


def reference_returns(f: int, thr: int, k_max: int) -> list[int]:
    """The k in [1, k_max] with min(k f, -k f) mod 2**64 <= thr: a screen of every k."""
    ks = np.arange(1, k_max + 1, dtype=np.uint64)
    v = ks * np.uint64(f)  # uint64 wrap-around: exact mod 2**64
    return ks[np.minimum(v, np.uint64(0) - v) <= np.uint64(thr)].tolist()


def reference_scan_minimal(fracs: list[Fraction], bound: Fraction, k_max: int) -> int:
    """The least k <= k_max with ||k beta|| <= bound for every beta, by a linear scan.

    Every k is screened in 64-bit fixed point on the first beta, the
    survivors on the others, with the threshold inflated by the drift
    bound k_max; each candidate is then settled exactly, in increasing order.
    """
    fp = np.array([fp_from_fraction(b, 64) for b in fracs], dtype=np.uint64)
    thr_exact = (bound.numerator << 64) // bound.denominator + 1 + k_max
    thr = np.uint64(min(thr_exact, 1 << 63))  # 2**63 accepts everything
    block = 1 << 18
    for start in range(1, k_max + 1, block):
        stop = min(start + block, k_max + 1)
        ks = np.arange(start, stop, dtype=np.uint64)
        v = ks * fp[0]
        cand = ks[np.minimum(v, np.uint64(0) - v) <= thr]
        for f in fp[1:]:
            if cand.size == 0:
                break
            v = cand * f
            cand = cand[np.minimum(v, np.uint64(0) - v) <= thr]
        for k in cand:
            k = int(k)
            if all(_norm_exact(k * b) <= bound for b in fracs):
                return k
    raise AssertionError("no k within the pigeonhole range")


# -- orbits ---------------------------------------------------------------------------

def steps_with_negative_b():
    """Three steps with p = ((1, -1), (-1, 0), (0, 0)): b_1 changes sign, b_2 only falls."""
    table = builtin_table()
    steps = steps_from_values(
        table,
        [table.symbol("sqrt2") + table.symbol("sqrt3", -1), table.symbol("sqrt2", -1),
         Fraction(1, 3)],
    )
    assert steps.p == ((1, -1), (-1, 0), (0, 0))
    return steps



def reference_word_orbit(omega, step_values, bits: int) -> list[int]:
    """x_0 = 0, x_{k+1} = x_k + step_values[omega[k] - 1] mod 2**bits, one Python int a step.

    This is the loop `fixedpoint.limb_chunks` replaced in `generate_orbit`
    and `reduced_orbit`; its limbs must hold exactly these integers.
    """
    mask = (1 << bits) - 1
    points = [0] * (len(omega) + 1)
    x = 0
    for k, sym in enumerate(bytes(np.asarray(omega, dtype=np.uint8))):
        x = (x + step_values[sym - 1]) & mask
        points[k + 1] = x
    return points


def reference_greedy_orbit(strategy, step_values, n: int, bits: int) -> tuple[list[int], list[int]]:
    """(omega, points) of the greedy-avoid orbit, each candidate ranked by a tuple.

    This is the loop the integer-scored greedy loop of `generate_orbit`
    replaced, and it steps each point itself rather than summing the word
    with `fixedpoint.limb_chunks`: the key (in_forb, new_cell, i) is
    minimized, with the forbidden test written out for plain (lo <= hi,
    empty when lo == hi) and wrapped (lo > hi) open intervals.
    """
    from multirot.fixedpoint import fp_from_fraction

    mask = (1 << bits) - 1
    forb = None
    if strategy.forbidden_lo is not None:
        forb = (fp_from_fraction(strategy.forbidden_lo, bits),
                fp_from_fraction(strategy.forbidden_hi, bits))
    cell_shift = bits - strategy.cell_bits
    occupied = bytearray(1 << strategy.cell_bits)
    occupied[0] = 1
    omega, points = [], [0]
    x = 0
    for _ in range(n):
        best = best_key = None
        for i, step in enumerate(step_values):
            cand = (x + step) & mask
            if forb is None:
                in_forb = 0
            else:
                lo, hi = forb
                if lo <= hi:
                    in_forb = 1 if lo < cand < hi else 0
                else:
                    in_forb = 1 if (cand > lo or cand < hi) else 0
            new_cell = 0 if occupied[cand >> cell_shift] else 1
            key = (in_forb, new_cell, i)
            if best_key is None or key < best_key:
                best_key, best = key, cand
        x = best
        omega.append(best_key[2] + 1)
        occupied[x >> cell_shift] = 1
        points.append(x)
    return omega, points


def reference_separation(top, k_min: int, k_max: int) -> list[tuple[int, float, int]]:
    """(k, max_n ||k x_n||, first argmax) for k = k_min..k_max with full-length arrays.

    This is the per-k scan over every point that the sorted search in
    `kxn_separation` replaced.
    """
    rows = []
    for k in range(k_min, k_max + 1):
        v = top * np.uint64(k)
        norms = np.minimum(v, np.uint64(0) - v)
        arg = int(norms.argmax())
        rows.append((k, float(norms[arg]) / float(1 << 64), arg))
    return rows


# -- whole-array counting sequences ----------------------------------------------------

def reference_counts(orbit) -> tuple[np.ndarray, np.ndarray]:
    """(N, b): N[k, i] = N_{i+1}(k) as an (n+1, ell) int64 array and b[k, j] =
    sum_i p_ij N_i(k) as an (n+1, r) array of exact Python ints.

    These are the whole per-point arrays the chunked count columns replaced.
    """
    counts = np.zeros((orbit.n + 1, orbit.ell), dtype=np.int64)
    for i in range(orbit.ell):
        counts[1:, i] = np.cumsum(orbit.omega == i + 1)
    p = np.array(orbit.steps.p, dtype=object).reshape(orbit.ell, orbit.steps.r)
    return counts, counts.astype(object) @ p


def reference_reduced_differences(orbit, red) -> set[Fraction]:
    """{x_k - x~_k mod 1 : k = 0..n}, exactly.

    Each step's share alpha_i - sum_j p_ij beta*_j is worked out in symbolic
    arithmetic, where its irrational part must cancel, and summed over the
    whole-array counts in Fractions.
    """
    steps = orbit.steps
    shares = []
    for alpha, row in zip(steps.alphas, steps.p):
        share = alpha - row[red.shift_index] * red.shift_amount
        for pij, beta in zip(row, steps.betas):
            share = share - beta * pij
        assert share.is_rational()
        shares.append(share.value())
    counts, _ = reference_counts(orbit)
    return {sum((int(c) * d for c, d in zip(row, shares)), Fraction(0)) % 1 for row in counts}


# -- the library's points, gathered ---------------------------------------------------

def gathered_points(omega, step_values, bits: int, row_bytes: int = 0) -> np.ndarray:
    """The (n+1, L) point-major limb array of x_0 = 0 and of every chunk that
    `fixedpoint.limb_chunks` yields.

    Not an oracle: the library never holds this array, and the tests read
    every point of an orbit through this one gather, which is cheaper than
    `Orbit.point(k)` for each k.
    """
    chunks = [np.zeros((limbs(bits), 1), dtype=np.uint64)]
    chunks += [rows for _, _, rows in limb_chunks(omega, step_values, bits, row_bytes)]
    return np.concatenate(chunks, axis=1).T


def limb_ints(points: np.ndarray, bits: int) -> list[int]:
    """The B-bit integer of each row of an (m, L) point-major limb array."""
    width = 8 * points.shape[1]
    pad = width * 8 - bits
    raw = np.ascontiguousarray(points, dtype=">u8").tobytes()
    return [int.from_bytes(raw[i:i + width], "big") >> pad for i in range(0, len(raw), width)]


# -- row-by-row orbit CSV ------------------------------------------------------------

def reference_orbit_csv(orbit) -> bytes:
    """results.csv of an orbit formatted one row at a time with str() and format().

    This is the writer the chunked column encoder replaced, its points
    stepped by `reference_word_orbit`; the encoder must reproduce its
    bytes exactly.
    """
    counts, bvec = reference_counts(orbit)
    points = reference_word_orbit(orbit.omega, orbit.fp_steps, orbit.bits)
    width = (orbit.bits + 3) // 4
    header = (
        ["n", "omega", "x_hex"]
        + [f"N_{i+1}" for i in range(orbit.ell)]
        + [f"b_{j+1}" for j in range(orbit.steps.r)]
    )
    lines = [",".join(header) + "\n"]
    for k in range(orbit.n + 1):
        row = [
            str(k),
            str(int(orbit.omega[k - 1])) if k else "",
            format(points[k], f"0{width}x"),
        ]
        row += [str(int(v)) for v in counts[k]]
        row += [str(int(v)) for v in bvec[k]]
        lines.append(",".join(row) + "\n")
    return "".join(lines).encode("utf-8")


# -- full-array tau statistics ---------------------------------------------------------

def reference_tau_statistics(orbit, samples: int, seed: int = 0) -> tuple[int, int, int]:
    """(max |tau(k) - nearest|, max |tau(k) - floor|, max sampled pair defect) with
    the whole tau array.

    The nearest integer to k * tau(n) / n rounds halves toward zero, and the
    pairs (n, m) are drawn as `tau_discrepancy` draws them.  This is the
    whole-array computation that the one chunked pass of `tau_discrepancy`
    replaced.
    """
    tau = reference_counts(orbit)[0][:, 1]
    p, q = int(tau[-1]), orbit.n
    prod = np.arange(q + 1, dtype=np.int64) * p
    base = prod // q
    nearest = base + (2 * (prod - base * q) > q)
    rng = np.random.default_rng(seed)
    ns = rng.integers(1, max(q, 2), size=samples, dtype=np.int64)
    ms = rng.integers(1, max(q, 2), size=samples, dtype=np.int64)
    keep = ns + ms <= q
    ns, ms = ns[keep], ms[keep]
    defects = np.abs(tau[ns + ms] - tau[ns] - tau[ms])
    return (int(np.abs(tau - nearest).max()), int(np.abs(tau - base).max()),
            int(defects.max()) if defects.size else 0)


# -- pairwise cell differences -----------------------------------------------------------

def pairwise_cell_differences(cells, k: int, block: int = 1024) -> np.ndarray:
    """Sorted {(a - b) mod 2**k : a, b in cells} by the pairwise formula.

    This is the O(N_k**2) computation the occupancy-bitmap autocorrelation
    replaced, taken a block of rows at a time so that large cell sets fit.
    """
    cells = np.asarray(cells, dtype=np.int64)
    seen = np.zeros(1 << k, dtype=bool)
    for start in range(0, cells.size, block):
        seen[(cells[None, :] - cells[start:start + block, None]) % (1 << k)] = True
    return np.flatnonzero(seen)


# -- cos and sin of rational turns ----------------------------------------------------

# pi to 250 digits, truncated, from the standard tables
PI_250 = ("3.14159265358979323846264338327950288419716939937510582097494459230781640628620899"
          "86280348253421170679821480865132823066470938446095505822317253594081284811174502"
          "84102701938521105559644622948954930381964428810975665933446128475648233786783165"
          "27120190914")
REF_DIGITS = 240


def reference_cos_sin(turns: Fraction) -> tuple[Decimal, Decimal]:
    """cos and sin of 2 pi turns, turns in [0, 1), by their Taylor series at REF_DIGITS.

    The series run in x = 2 pi turns itself, with no range reduction, until a
    term drops below 10**-(REF_DIGITS + 5); the largest term is below 100.
    """
    with localcontext(Context(prec=REF_DIGITS + 10)):
        x = 2 * Decimal(PI_250) * turns.numerator / turns.denominator
        sums, term, k = [Decimal(0)] * 4, Decimal(1), 0
        while k < 8 or abs(term) > Decimal(10) ** -(REF_DIGITS + 5):
            sums[k % 4] += term
            k += 1
            term = term * x / k
        return +(sums[0] - sums[2]), +(sums[1] - sums[3])


def decimal_floor(x: Decimal, bits: int) -> int:
    with localcontext(Context(prec=REF_DIGITS + 10)):
        return int((x * 2**bits).to_integral_value(ROUND_FLOOR))


# 2 cos(2 pi k / n) = sign * sqrt(radicand) for n = 8 and n = 12
_TWICE_COS = {8: [(1, 4), (1, 2), (0, 0), (-1, 2), (-1, 4), (-1, 2), (0, 0), (1, 2)],
              12: [(1, 4), (1, 3), (1, 1), (0, 0), (-1, 1), (-1, 3), (-1, 4), (-1, 3),
                   (-1, 1), (0, 0), (1, 1), (1, 3)]}


def exact_cos_sin_floor(k: int, n: int, bits: int = 192) -> tuple[int, int]:
    """floor(cos(2 pi k / n) 2**bits) and the same for sin, n = 8 or 12, from isqrt."""
    def floor_half_root(j):
        sign, radicand = _TWICE_COS[n][j % n]
        root = isqrt(radicand << (2 * bits - 2))   # floor(sqrt(radicand) 2**(bits - 1))
        exact = root * root == radicand << (2 * bits - 2)
        return root if sign >= 0 else -root - (not exact)
    return floor_half_root(k), floor_half_root(k - n // 4)


def turn_near_cos_grid(t: Fraction, offset: Fraction, bits: int = 192) -> Fraction:
    """A turn near t whose cos(2 pi .) 2**bits lies offset above an integer.

    One Newton step from t, rounded to a multiple of 2**-(3 bits + 64).  The
    step leaves about 2**-bits / sin(2 pi t)**2 units of error and the
    rounding far less, so with sin(2 pi t) away from 0 an offset of 2**-100
    or more decides the floor.
    """
    c, s = reference_cos_sin(t)
    with localcontext(Context(prec=REF_DIGITS + 10)):
        v = c * 2**bits
        target = v.to_integral_value() + Decimal(offset.numerator) / offset.denominator
        slope = 2**bits * 2 * Decimal(PI_250) * s      # -d/dt of cos(2 pi t) 2**bits
        near = Decimal(t.numerator) / t.denominator + (v - target) / slope
        scale = 2 ** (3 * bits + 64)
        return Fraction(int((near * scale).to_integral_value()), scale)


# -- the s_n trace, one full embedding check per candidate -------------------------------

def reference_attractor_sample(ifs, depth: int) -> list[tuple[Fraction, ...]]:
    """{phi_w(x0) : |w| = depth} by one Similitude.apply per map and point, level by level.

    This is the loop the integer grid of `ifs.attractor_sample` replaced in
    d = 1; x0 is the first map's fixed point.
    """
    pts = [ifs.maps[0].fixed_point()]
    for _ in range(depth):
        pts = [mp.apply(x) for mp in ifs.maps for x in pts]
    return pts


def reference_cylinder_balls(ifs, depth: int) -> list[tuple[int, Ball]]:
    """(first symbol, ball) for each word of the given depth, one composed Similitude a word.

    This is the per-word composition that the level-by-level images of
    `SimilarIFS.cylinder_balls` replaced: the word's map phi_w is built by
    `compose`, then its ball is phi_w(hull centre) with radius rho_w times
    the hull radius.  Words come in lexicographic order, 1-based.
    """
    hull = ifs.hull()
    words = [((), None)]
    for _ in range(depth):
        words = [(word + (i + 1,), mp if comp is None else comp.compose(mp))
                 for word, comp in words for i, mp in enumerate(ifs.maps)]
    return [(word[0], Ball(comp.apply(hull.center), comp.ratio * hull.radius))
            for word, comp in words]


def reference_check_affine_embedding_1d(m, b, f_ifs, e_ifs, depth: int, tol=None) -> EmbeddingCheck:
    """The d = 1 check with a second scan for the witness, rebuilding sample and cover.

    The first scan finds the largest distance; when it passes tol, a second
    scan returns the first sample in sample order farther than tol.  This is
    the branch the one scan of `ifs.scan_cover` replaced.
    """
    m_frac, b0 = Fraction(m), Fraction(b)
    if tol is None:
        tol = e_ifs.rho_star**depth * e_ifs.hull().diameter
    samples = reference_attractor_sample(f_ifs, depth)
    intervals = sorted(ball.interval() for _, ball in reference_cylinder_balls(e_ifs, depth))
    los = [iv[0] for iv in intervals]

    def dist_to_cover(y: Fraction) -> Fraction:
        i = bisect.bisect_right(los, y)
        best = None
        for j in (i - 1, i):
            if 0 <= j < len(intervals):
                lo, hi = intervals[j]
                cand = max(Fraction(0), lo - y, y - hi)
                best = cand if best is None or cand < best else best
        return best

    max_dist = Fraction(0)
    witness = None
    for x in samples:
        y = m_frac * x[0] + b0
        dist = dist_to_cover(y)
        if dist > max_dist:
            max_dist = dist
            if dist > tol and witness is None:
                witness = (y,)
    if max_dist > tol:
        for x in samples:
            y = m_frac * x[0] + b0
            if dist_to_cover(y) > tol:
                witness = (y,)
                break
        return EmbeddingCheck(False, witness, max_dist, tol)
    return EmbeddingCheck(True, None, max_dist, tol)


def reference_scan_cover(m, b, xs, intervals, tol) -> EmbeddingCheck:
    """d = 1: each x of xs mapped by m x + b and measured in Fraction arithmetic against
    the two intervals, sorted by their low ends, whose low ends bracket it.

    This is the scan that the integer grid of `ifs.scan_cover` replaced; the
    witness is the first point farther than tol from the cover.
    """
    max_dist = Fraction(0)
    witness = None
    for x in xs:
        y = m * x + b
        i = bisect.bisect_right(intervals, y, key=itemgetter(0))
        dist = min(max(Fraction(0), lo - y, y - hi) for lo, hi in intervals[max(i - 1, 0):i + 1])
        if dist > max_dist:
            max_dist = dist
        if witness is None and dist > tol:
            witness = (y,)
    return EmbeddingCheck(max_dist <= tol, witness, max_dist, tol)


def grid_fractions(sample, cover) -> tuple[list[Fraction], list[tuple[Fraction, Fraction]]]:
    """The points of a grid sample (xs, p) and the intervals of a grid cover (ends, q), as
    reference_scan_cover takes them."""
    (xs, p), (ends, q) = sample, cover
    return [Fraction(x, p) for x in xs], [(Fraction(lo, q), Fraction(hi, q)) for lo, hi, _ in ends]


def reference_sn_sequence(inst, n_max: int, depth: int) -> SnTrace:
    """s_1..s_n_max with psi_1**k recomposed from scratch and a full check for each k.

    This is the loop `embedtrace.sn_sequence` replaced: each candidate k
    tries the diameter criterion, then builds psi_1**k by k compositions and
    runs the whole d = 1 embedding check, sample and cover included.
    """
    m = Fraction(inst.m)
    lower, upper = inst.ratio_lower_bound(), inst.ratio_upper_bound()
    entries = []
    s_prev = 0
    rho_word = Fraction(1)
    comp = None
    for n in range(1, n_max + 1):
        symbol = inst.coding[n - 1]
        step_map = inst.e_ifs.maps[symbol - 1]
        comp = step_map if comp is None else comp.compose(step_map)
        rho_prefix = rho_word
        rho_word = rho_word * step_map.ratio
        k = s_prev
        while True:
            if inst.norm_upper * inst.gamma1**k * inst.diam_f < rho_prefix * inst.delta:
                break
            psi_k = inst.psi1.power(k) if k >= 1 else None
            if psi_k is None:
                slope, intercept = m, inst.b[0]
            else:
                slope = m * psi_k.ratio * psi_k.ortho
                intercept = m * psi_k.shift[0] + inst.b[0]
            c_w, d_w = comp.ratio * comp.ortho, comp.shift[0]
            check = reference_check_affine_embedding_1d(
                slope / c_w, (intercept - d_w) / c_w, inst.f_ifs, inst.e_ifs, depth
            )
            if check.contained:
                break
            k += 1
        ratio = inst.gamma1**k / rho_word
        entries.append(SnEntry(n=n, i_n=symbol, s_n=k, ratio=ratio,
                               lower_ok=(k == 0) or ratio >= lower, upper_ok=ratio <= upper))
        s_prev = k
    return SnTrace(tuple(entries), lower, upper)
