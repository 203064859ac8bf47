"""Independent oracles shared by the test modules.

Everything here recomputes expected values by brute force or direct
definition, deliberately avoiding the library's own decision paths.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import ceil, log

import numpy as np

from multirot.exact.symbolic import BasisEntry, BasisTable, SymbolicReal, builtin_table
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
    coefficient vectors, independent of the expansion machinery."""
    table = alphas[0].table
    labels = sorted({l for a in alphas for l in a.coeffs}, key=table.order)
    vecs = [tuple(a.coeffs.get(l, Fraction(0)) for l in labels) for a in alphas]
    q0s = [a.q0 for a in alphas]
    ell = len(alphas)
    grid = _fraction_grid(max_num, max_den)
    half = ell // 2

    def accumulate(ts, idx0):
        vec = tuple(
            sum((t * vecs[idx0 + i][j] for i, t in enumerate(ts)), Fraction(0))
            for j in range(len(labels))
        )
        q = sum((t * q0s[idx0 + i] for i, t in enumerate(ts)), Fraction(0))
        return vec, q

    left_nonzero: dict = {}
    for ts in product(grid, repeat=half):
        if not any(ts):
            continue
        vec, q = accumulate(ts, 0)
        key = (vec, q % 1)
        left_nonzero.setdefault(key, ts)

    zero_vec = tuple(Fraction(0) for _ in labels)
    for ts in product(grid, repeat=ell - half):
        vec, q = accumulate(ts, half)
        if any(ts) and vec == zero_vec and q % 1 == 0:
            return tuple([Fraction(0)] * half) + ts
        need = (tuple(-v for v in vec), (-q) % 1)
        match = left_nonzero.get(need)
        if match is not None:
            return match + ts
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
    directly against the prime-exponent equation; ell <= 2 only.
    """
    keys = sorted({k for v in rho_vecs + [gamma_vec] for k in v})
    rows = [np.array([float(v.get(k, 0)) for k in keys]) for v in rho_vecs]
    g = np.array([float(gamma_vec.get(k, 0)) for k in keys])

    def cap(i):
        # t_i * (-log rho_i) <= -log gamma, in prime-log space
        num = -sum(float(gamma_vec.get(k, 0)) * log(k[1]) for k in keys if k[0] == "p")
        den = -sum(float(rho_vecs[i].get(k, 0)) * log(k[1]) for k in keys if k[0] == "p")
        return ceil(num / den) + 1

    exact_rows = [[v.get(k, Fraction(0)) for k in keys] for v in rho_vecs]
    exact_g = [gamma_vec.get(k, Fraction(0)) for k in keys]
    ell = len(rho_vecs)
    assert ell <= 2, "brute force supports ell <= 2"
    for d in range(1, bound + 1):
        cap0 = cap(0) * d
        for a0 in range(cap0 + 1):
            if ell == 1:
                if all(a0 * e == d * ge for e, ge in zip(exact_rows[0], exact_g)):
                    return (Fraction(a0, d),)
                continue
            pivot = next(j for j, e in enumerate(exact_rows[1]) if e != 0)
            num = d * exact_g[pivot] - a0 * exact_rows[0][pivot]
            a1 = num / exact_rows[1][pivot]
            if a1.denominator != 1 or a1 < 0:
                continue
            a1 = int(a1)
            if all(
                a0 * e0 + a1 * e1 == d * ge
                for e0, e1, ge in zip(exact_rows[0], exact_rows[1], exact_g)
            ):
                return (Fraction(a0, d), Fraction(a1, d))
    return None


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


# -- orbits ---------------------------------------------------------------------------

def steps_with_negative_b(bits: int = 128):
    """Three steps with p = ((1, -1), (-1, 0), (0, 0)): b_1 changes sign, b_2 only falls."""
    table = builtin_table()
    steps = steps_from_values(
        table,
        [table.symbol("sqrt2") + table.symbol("sqrt3", -1), table.symbol("sqrt2", -1),
         Fraction(1, 3)],
        bits,
    )
    assert steps.p == ((1, -1), (-1, 0), (0, 0))
    return steps



def reference_word_orbit(omega, step_values, bits: int) -> list[int]:
    """x_0 = 0, x_{k+1} = x_k + step_values[omega[k] - 1] mod 2**bits, one Python int a step.

    This is the loop `fixedpoint.accumulate` replaced in `generate_orbit`
    and `reduced_orbit`; the limb arrays must hold exactly these integers.
    """
    mask = (1 << bits) - 1
    points = [0] * (len(omega) + 1)
    x = 0
    for k, sym in enumerate(bytes(np.asarray(omega, dtype=np.uint8))):
        x = (x + step_values[sym - 1]) & mask
        points[k + 1] = x
    return points


# -- row-by-row orbit CSV ------------------------------------------------------------

def reference_orbit_csv(orbit) -> bytes:
    """results.csv of an orbit formatted one row at a time with str() and format().

    This is the writer the chunked column encoder replaced; the encoder
    must reproduce its bytes exactly.
    """
    counts = orbit.counts()
    bvec = orbit.bvec()
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
            format(orbit.point(k), f"0{width}x"),
        ]
        row += [str(int(v)) for v in counts[k]]
        row += [str(int(v)) for v in bvec[k]]
        lines.append(",".join(row) + "\n")
    return "".join(lines).encode("utf-8")


# -- full-array tau deviations ---------------------------------------------------------

def reference_tau_deviations(orbit) -> tuple[int, int]:
    """(max |tau(k) - nearest|, max |tau(k) - floor|) over k = 0..n with whole arrays.

    The nearest integer to k * tau(n) / n rounds halves toward zero.  This is
    the one-pass computation the chunked fold in `tau_discrepancy` replaced.
    """
    tau = orbit.tau()
    p, q = int(tau[-1]), orbit.n
    prod = np.arange(q + 1, dtype=np.int64) * p
    base = prod // q
    nearest = base + (2 * (prod - base * q) > q)
    return int(np.abs(tau - nearest).max()), int(np.abs(tau - base).max())


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
