"""Orbit generation on the circle.

Points are B-bit fixed-point fractions: each step adds a pre-rounded step
image exactly mod 2**B, so the accumulated error after n steps is at most
n * 2**(-B+2) (stored on the orbit).  An orbit is its word: it stores the
symbols and the B-bit value each symbol adds, and no points, and so does
a reduced orbit.  `fixedpoint.limb_chunks` sums a word into points one
chunk at a time, and no recipe holds an (n+1, ceil(B/64)) limb array.
`top64()` keeps only each chunk's top limb, a fresh (n+1,) uint64 column,
which is all that box counting, difference sets and the separation
diagnostic read; the orbit export writes each chunk as it is summed
(`orbit.io`), and `Orbit.point(k)` is the exact sum of x_k's steps.
The greedy strategy picks each symbol from the last point in a Python
loop over ints: one byte per dyadic cell scores each candidate, and
only in a cell that an end of the forbidden interval cuts does a masked
compare test the candidate itself.  The counting sequences N_i(k) and
b_j(k) = sum_i p_ij N_i(k) are never held per point: `count_chunks`
computes them one chunk of rows at a time from the previous chunk's last
row, as `fixedpoint.limb_chunks` carries points.  Completed orbits are
immutable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

import numpy as np

from ..errors import GuardError, UsageError
from .. import fixedpoint
from ..fixedpoint import fp_from_fraction
from ..table import chunk_bounds
from .steps import StepSystem
from .strategies import GreedyAvoid, Strategy

# The guard bounds the orbit export's work and output, not a held array:
# each writer sums ceil(B/64) limbs a point, one chunk at a time, and
# results.csv takes (B + 3) // 4 hex digits a point and orbit.orb1 B / 8
# bytes.  Every orbit recipe holds the word, one byte a point; the
# analysis recipes also hold one 64-bit column, 8 bytes a point, and no
# second n-sized array.  limb_chunks carries ceil(B/64) limb columns
# one at a time, a cost bytes do not show: summing n = 10 at B = 2**22
# took 0.25 s.  At n = 10**7 and 128 bits, seed 1, each recipe in a
# process of its own (2-core x86_64, Python 3.11, numpy 2.4, VmHWM): the
# orbit recipe (a random word) peaked at 56 MB in 2.9-3.4 s, greedy
# orbit-box-lower at 127 MB, difference-dense (k = 12) at 132 MB and the
# separation recipe (k_max = 100) at 133 MB in 0.7-0.8 s.
MAX_ORBIT_N = 10**7
MAX_ORBIT_BYTES = (MAX_ORBIT_N + 1) * 16
MAX_ORBIT_BITS = 1 << 16
# Symbols are bytes (the uint8 word, the greedy loop's bytearray, ORB1's
# symbol bytes), so an orbit takes at most 255 steps.
MAX_ELL = 255


def guard_orbit_size(n: int, bits: int) -> None:
    """GuardError past MAX_ORBIT_N points, MAX_ORBIT_BITS bits or MAX_ORBIT_BYTES of
    limbs to sum."""
    size = (n + 1) * fixedpoint.limbs(bits) * 8
    for name, value, limit in (("orbit length n", n, MAX_ORBIT_N), ("orbit bits", bits, MAX_ORBIT_BITS),
                               (f"n={n}, bits={bits}: orbit limb bytes", size, MAX_ORBIT_BYTES)):
        if value > limit:
            raise GuardError(f"{name}={value} exceeds the guard of {limit}")


# |b_j(k)| <= max_ij |p_ij| * k, since the N_i(k) are non-negative and sum to k.
MAX_B = 2**63 - 1


def guard_b_columns(steps: StepSystem, n: int) -> None:
    """GuardError where a b_j column of an n-point orbit could pass int64."""
    p_max = max((abs(x) for row in steps.p for x in row), default=0)
    if p_max * n > MAX_B:
        raise GuardError(f"n={n}, max|p_ij|={p_max}: b_j columns up to {p_max * n} "
                         f"exceed the guard of {MAX_B}")


def _symbol_totals(omega: np.ndarray, ell: int) -> list[int]:
    """N_i(n) for i = 1..ell: how often each symbol occurs in the word.

    One byte-wide compare per symbol: np.bincount would first copy the word
    to intp, 8n bytes, and took the orbit recipe's peak at n = 10**7 from
    56 to 124 MB.
    """
    return [int(np.count_nonzero(omega == i)) for i in range(1, ell + 1)]


def count_chunks(omega: np.ndarray, symbols, row_bytes: int = 0):
    """(s, e, columns) for each `table.chunk_bounds(len(omega), row_bytes)` chunk.

    columns[t] is N_{symbols[t]}(k) for k = s+1..e, one contiguous int64
    cumsum of the chunk's symbols plus the previous chunk's last value.
    """
    last = [0] * len(symbols)
    for s, e in chunk_bounds(len(omega), row_bytes):
        columns = []
        for t, sym in enumerate(symbols):
            col = np.cumsum(omega[s:e] == sym, dtype=np.int64)
            col += last[t]
            last[t] = int(col[-1])
            columns.append(col)
        yield s, e, columns


@dataclass(frozen=True, eq=False)
class Orbit:
    steps: StepSystem
    bits: int
    omega: np.ndarray            # shape (n,), uint8 symbols 1..ell
    fp_steps: tuple[int, ...]    # the B-bit step values, one per symbol
    strategy_descriptor: str
    seed: int | None
    error_bound: Fraction        # n * 2**(-bits+2)

    @property
    def n(self) -> int:
        return len(self.omega)

    @property
    def ell(self) -> int:
        return self.steps.ell

    def top64(self) -> np.ndarray:
        """Points truncated to 64-bit fixed point: a fresh (n+1,) uint64 column
        streamed from the word."""
        return fixedpoint.top64(self.omega, self.fp_steps, self.bits)

    def point(self, k: int) -> int:
        """x_k as a B-bit integer: (sum_i N_i(k) fp_steps[i]) mod 2**bits, exactly."""
        if not 0 <= k <= self.n:
            raise UsageError(f"point index {k} outside 0..{self.n}")
        totals = _symbol_totals(self.omega[:k], self.ell)
        return sum(c * v for c, v in zip(totals, self.fp_steps)) % (1 << self.bits)

    def point_fraction(self, k: int) -> Fraction:
        return Fraction(self.point(k), 1 << self.bits)


def _forbidden_window(strategy: GreedyAvoid, bits: int) -> tuple[int, int]:
    """((lo + 1) mod 2**bits, width): c is forbidden iff (c - lo - 1) mod 2**bits < width.

    The open interval (lo, hi) wraps past 0 when lo > hi; lo == hi, like no
    interval at all, forbids nothing, so its width is 0.
    """
    if strategy.forbidden_lo is None:
        return 0, 0
    lo = fp_from_fraction(strategy.forbidden_lo, bits)
    hi = fp_from_fraction(strategy.forbidden_hi, bits)
    if lo == hi:
        return 0, 0
    return (lo + 1) % (1 << bits), (hi - lo - 1) % (1 << bits)


def _score_table(strategy: GreedyAvoid, bits: int, lo1: int, width: int) -> bytearray:
    """One score byte per 2**-cell_bits cell: bit 0 while the cell is not yet
    occupied, bit 1 if the cell lies wholly inside the forbidden window, bit 2
    if a window end cuts it.

    Cell 0 holds x_0 = 0, so it starts occupied.  The window [lo1, lo1 + width)
    mod 2**bits is shorter than the circle, so its wholly covered cells, from
    the first cell edge at or past lo1 to the last at or before its end, are
    fewer than all of them; an end off a cell edge cuts the cell it lies in.
    """
    ncells = 1 << strategy.cell_bits
    size = 1 << (bits - strategy.cell_bits)
    tab = bytearray(b"\x01") * ncells
    tab[0] = 0
    view = np.frombuffer(tab, dtype=np.uint8)
    first, stop = -(-lo1 // size), (lo1 + width) // size
    view[first:stop] |= 2
    view[max(first - ncells, 0):max(stop - ncells, 0)] |= 2  # the cells past 2**bits, wrapped
    for end in (lo1, lo1 + width):
        if end % size:
            view[end // size % ncells] |= 4
    return tab


def _greedy_symbols(strategy: GreedyAvoid, fp_steps, n: int, bits: int) -> np.ndarray:
    """The n symbols of the greedy-avoid orbit, one Python step a point.

    Each candidate scores 2 * forbidden + new_cell; the lowest score wins,
    the first symbol among equals, so a score of 0 ends the search.  A
    candidate's score is its cell's byte in `_score_table`, unless a window
    end cuts the cell (bit 2): then one masked compare tests the candidate
    itself.  The running best starts at 4, above every score, so some symbol
    is always taken.  Only the symbols are kept: `fixedpoint.limb_chunks`
    sums them into the points, which are the x this loop stepped through.
    """
    mask = (1 << bits) - 1
    lo1, width = _forbidden_window(strategy, bits)
    tab = _score_table(strategy, bits, lo1, width)
    shift, cmask = bits - strategy.cell_bits, (1 << strategy.cell_bits) - 1
    candidates = tuple(enumerate(fp_steps, 1))
    symbols = bytearray(n)
    x = 0
    for k in range(n):
        best = 4
        for sym, step in candidates:
            c = x + step
            score = tab[(c >> shift) & cmask]
            if score > 3:
                score = 2 * (((c - lo1) & mask) < width) + (score & 1)
            if score < best:
                best, best_sym, best_c = score, sym, c
                if not score:
                    break
        x = best_c & mask
        symbols[k] = best_sym
        if best:  # a score of 0 is an occupied cell already
            tab[x >> shift] &= 6
    return np.frombuffer(symbols, dtype=np.uint8)


def generate_orbit(
    steps: StepSystem,
    strategy: Strategy,
    n: int,
    bits: int = 128,
    seed: int | None = None,
) -> Orbit:
    """Length-n orbit with x_0 = 0, deterministic given (strategy, seed)."""
    if bits < 64:
        raise UsageError("bits must be >= 64")
    if n < 1:
        raise UsageError("n must be >= 1")
    guard_orbit_size(n, bits)
    if not 2 <= steps.ell <= MAX_ELL:
        raise UsageError(f"orbit generation needs 2 to {MAX_ELL} steps, got {steps.ell}")
    fp_steps = steps.fixed_point_steps(bits)

    if strategy.adaptive:
        omega = _greedy_symbols(strategy, fp_steps, n, bits)
    else:
        # only a word strategy draws: the greedy one never imports numpy.random
        rng = np.random.default_rng(seed) if seed is not None else None
        omega = strategy.materialize(n, steps.ell, rng)

    return Orbit(
        steps=steps,
        bits=bits,
        omega=omega,
        fp_steps=fp_steps,
        strategy_descriptor=strategy.descriptor(),
        seed=seed,
        error_bound=Fraction(n, 1 << (bits - 2)),
    )


def first_forbidden_violation(orbit: Orbit, lo: Fraction, hi: Fraction) -> int | None:
    """Index of the first orbit point inside the open interval, or None.

    Avoiding orbits are not guaranteed to exist for every parameter choice,
    so greedy runs report their first violation instead of asserting one
    away.  Points are compared at 64-bit resolution.
    """
    top = orbit.top64()
    lo64 = np.uint64(fp_from_fraction(lo, 64))
    hi64 = np.uint64(fp_from_fraction(hi, 64))
    if lo64 <= hi64:
        mask = (top > lo64) & (top < hi64)
    else:
        mask = (top > lo64) | (top < hi64)
    if not mask.any():
        return None
    return int(np.argmax(mask))


# -- tau discrepancy ---------------------------------------------------------

@dataclass(frozen=True)
class TauDiscrepancyReport:
    n: int
    pairs_sampled: int
    max_pair_defect: int                 # max |tau(n+m) - tau(n) - tau(m)| over samples
    tau_estimate: Fraction               # tau(n_max) / n_max
    max_dev_half_toward_zero: int        # max |tau(k) - <k tau>| (nearest, half toward 0)
    max_dev_integer_part: int            # max |tau(k) - [k tau]|
    bound: int | None = None
    below_bound: bool | None = None


def tau_discrepancy(
    orbit: Orbit, bound: int | None = None, samples: int = 4096, seed: int = 0
) -> TauDiscrepancyReport:
    """Exact integer statistics of the tau counting function (ell = 2 only).

    Diagnostic: the subadditivity-defect bound is a conditional statement,
    so this reports measured maxima and, when `bound` is given, whether the
    sampled defects stayed strictly below it.
    """
    if orbit.ell != 2:
        raise UsageError("tau is defined only for ell = 2")
    n = orbit.n
    rng = np.random.default_rng(seed)
    high = max(n, 2)  # n = 1 has no pairs: every draw is (1, 1), dropped below
    ns = rng.integers(1, high, size=samples, dtype=np.int64)
    ms = rng.integers(1, high, size=samples, dtype=np.int64)
    keep = ns + ms <= n
    ns, ms = ns[keep], ms[keep]
    # tau at every sampled index, picked up as the chunked pass reaches it
    wanted = np.concatenate([ns, ms, ns + ms])
    order = np.argsort(wanted, kind="stable")
    at = wanted[order]
    sampled = np.empty_like(wanted)

    p, q = _symbol_totals(orbit.omega, 2)[1], n
    dev_half = dev_int = 0  # k = 0 deviates by 0
    for s, e, (tau,) in count_chunks(orbit.omega, (2,)):
        lo, hi = np.searchsorted(at, (s + 1, e + 1))
        sampled[order[lo:hi]] = tau[at[lo:hi] - (s + 1)]
        base, rem = np.divmod(np.arange(s + 1, e + 1, dtype=np.int64) * p, q)
        dev = tau - base
        dev_int = max(dev_int, int(np.abs(dev).max()))
        dev -= 2 * rem > q  # tau minus the nearest integer, halves toward zero
        dev_half = max(dev_half, int(np.abs(dev).max()))
    tau_n, tau_m, tau_nm = sampled.reshape(3, -1)
    defects = np.abs(tau_nm - tau_n - tau_m)
    max_defect = int(defects.max()) if defects.size else 0

    return TauDiscrepancyReport(
        n=n,
        pairs_sampled=int(ns.size),
        max_pair_defect=max_defect,
        tau_estimate=Fraction(p, q),
        max_dev_half_toward_zero=dev_half,
        max_dev_integer_part=dev_int,
        bound=bound,
        below_bound=(max_defect < bound) if bound is not None else None,
    )


# -- reduced orbit -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReducedOrbit:
    omega: np.ndarray                    # the source orbit's word
    deltas: tuple[int, ...]              # the B-bit increment of each symbol
    bits: int
    shift_index: int                     # r0 (0-based)
    shift_amount: int                    # M
    betas_star: tuple[Fraction, ...]
    qstar: tuple[Fraction, ...]

    def top64(self) -> np.ndarray:
        """x~ truncated to 64-bit fixed point: a fresh (n+1,) uint64 column
        streamed from the word."""
        return fixedpoint.top64(self.omega, self.deltas, self.bits)


def reduced_orbit(orbit: Orbit, shift_index: int | None = None) -> ReducedOrbit:
    """The beta-part sequence x~_n = sum_j b_j(n) beta*_j mod 1.

    The basis shift beta_{r0} -> beta_{r0} + M leaves x~ unchanged mod 1
    (b_{r0} M is an integer) but moves its rational complement: x_n - x~_n
    is sum_i q*_i N_i(n) mod 1 with q*_i = q_i - M p_{i,r0}.  The default
    r0 is the j of the largest |b_j(n)|, the first among equals, taken in
    exact integers; M is floor(1 + sum_j |beta_j|) + 1.
    """
    steps = orbit.steps
    if steps.r == 0:
        raise UsageError("reduced orbit undefined: all steps rational (r = 0)")
    if shift_index is None:
        totals = _symbol_totals(orbit.omega, steps.ell)
        b_n = [abs(sum(c * row[j] for c, row in zip(totals, steps.p))) for j in range(steps.r)]
        shift_index = b_n.index(max(b_n))
    if not (0 <= shift_index < steps.r):
        raise UsageError("shift_index out of range")
    beta_vals = steps.beta_values()
    shift_amount = floor(1 + sum(abs(b) for b in beta_vals)) + 1

    betas_star = tuple(
        b + (shift_amount if j == shift_index else 0) for j, b in enumerate(beta_vals)
    )
    qstar = tuple(
        qi - shift_amount * steps.p[i][shift_index] for i, qi in enumerate(steps.q)
    )

    bits = orbit.bits
    # per-symbol exact increment sum_j p_ij beta*_j, rounded once
    deltas = []
    for i in range(steps.ell):
        d = sum((Fraction(steps.p[i][j]) * betas_star[j] for j in range(steps.r)), Fraction(0))
        deltas.append(fp_from_fraction(d, bits))

    return ReducedOrbit(
        omega=orbit.omega,
        deltas=tuple(deltas),
        bits=bits,
        shift_index=shift_index,
        shift_amount=shift_amount,
        betas_star=betas_star,
        qstar=qstar,
    )
