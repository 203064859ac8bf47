"""Pigeonhole simultaneous approximation and the orbit separation diagnostic.

pigeonhole_approx finds, for reals beta_1..beta_r, the smallest k with
||k beta_j|| <= 1/(mn) for every j; existence inside [1, (mn)^r + 1] is
the pigeonhole argument on the (mn)^r subcubes of [0,1]^r.  The scan path
screens candidates with exact 64-bit fixed-point arithmetic and then
adjudicates each candidate with exact rational arithmetic, so the
returned k is truly minimal.  When the scan budget is exceeded, the
subcube-collision construction runs instead: it returns |k' - k|, which
satisfies the bound but need not be minimal (the result says which path
ran); past MAX_BUCKET_K_SPACE it is refused with GuardError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GuardError, UsageError
from .exact.symbolic import SymbolicReal
from .fixedpoint import fp_from_fraction
from .orbit.generate import MAX_ORBIT_BITS

DEFAULT_SCAN_BUDGET = 1 << 23
# The largest k-space (mn)^r + 1 the bucket path may take.  It keeps one dict
# entry per k until two subcubes collide, so k-space entries at worst: with
# beta = 1/n + 10**-40, m = 1, n = 4 * 10**6 (every subcube distinct until
# k = n) it took 8.8 s at 622 MB peak RSS on 2-core x86_64, Python 3.11, and
# [sqrt2] at n = 10**7 took 15.6 s at 1113 MB.
MAX_BUCKET_K_SPACE = 1 << 22
# kxn_separation's block: values of k by points, 1 MB of uint64 in all.
# At 10**6 points and k = 1..100 (2-core x86_64, numpy 2.4) it took 0.11-0.13 s
# against 0.15 s for all k in one block and 0.44 s for full-length arrays.
SEPARATION_KS = 32
SEPARATION_ROWS = 4096


def norm_dist(x):
    """Distance from x to the nearest integer, in [0, 1/2]; exact on rationals."""
    if isinstance(x, Fraction):
        frac = x - (x.numerator // x.denominator)
        return min(frac, 1 - frac)
    xf = float(x)
    frac = xf % 1.0
    return min(frac, 1.0 - frac)


def _as_fraction(beta) -> Fraction:
    if isinstance(beta, SymbolicReal):
        return beta.value()
    return Fraction(beta)


@dataclass(frozen=True)
class ApproxResult:
    k: int
    m: int
    n: int
    r: int
    achieved: tuple[Fraction, ...]   # ||k beta_j||, exact
    path: str                        # "scan" or "bucket"
    minimal: bool                    # scan path guarantees minimality
    bits: int

    def bound(self) -> Fraction:
        return Fraction(1, self.m * self.n)

    def k_space(self) -> int:
        return (self.m * self.n) ** self.r + 1


def check_k_space(m: int, n: int, r: int, bits: int = 128,
                  scan_budget: int = DEFAULT_SCAN_BUDGET) -> int:
    """The k-space (mn)^r + 1 of pigeonhole_approx, refused before any work.

    UsageError for m or n below 1 and unless 2**(bits - 4) > mn, the bits
    the 1/(mn) target needs; GuardError past MAX_ORBIT_BITS bits (the
    slack 2**(4 - bits) costs time and memory in bits) and when the k-space
    exceeds scan_budget (the bucket path runs) and MAX_BUCKET_K_SPACE.
    """
    if m < 1 or n < 1:
        raise UsageError("m and n must be positive integers")
    if (m * n).bit_length() > bits - 4:  # mn < 2**(bits - 4) exactly when this fails
        raise UsageError(f"bits too small for the requested 1/(mn) target: 2**(bits - 4) "
                         f"must exceed mn = {m * n}, got bits = {bits}")
    if bits > MAX_ORBIT_BITS:
        raise GuardError(f"pigeonhole bits={bits} exceeds the guard of {MAX_ORBIT_BITS}")
    k_space = (m * n) ** r + 1
    if k_space > scan_budget and k_space > MAX_BUCKET_K_SPACE:
        raise GuardError(f"(mn)^r + 1 = {k_space} exceeds the bucket path's guard "
                         f"of {MAX_BUCKET_K_SPACE}")
    return k_space


def pigeonhole_approx(
    betas,
    m: int,
    n: int,
    bits: int = 128,
    scan_budget: int = DEFAULT_SCAN_BUDGET,
) -> ApproxResult:
    """Smallest k in [1, (mn)^r + 1] with ||k beta_j|| <= 1/(mn) for all j."""
    fracs = [_as_fraction(b) for b in betas]
    r = len(fracs)
    if r < 1:
        raise UsageError("need at least one beta")
    mn = m * n
    k_max = check_k_space(m, n, r, bits, scan_budget)
    bound = Fraction(1, mn)

    if k_max <= scan_budget:
        k = _scan_minimal(fracs, bound, k_max)
        path, minimal = "scan", True
    else:
        k = _bucket_collision(fracs, mn, r, k_max, bits)
        path, minimal = "bucket", False

    achieved = tuple(norm_dist(k * b) for b in fracs)
    slack = Fraction(1, 1 << (bits - 4))
    assert all(a <= bound + slack for a in achieved), "pigeonhole bound violated"
    return ApproxResult(k, m, n, r, achieved, path, minimal, bits)


def _scan_minimal(fracs: list[Fraction], bound: Fraction, k_max: int) -> int:
    """Linear scan with exact adjudication; screens in 64-bit fixed point.

    The screen threshold is inflated by the worst-case truncation drift
    k * 2**-64, so no true solution is screened out; every screened-in
    candidate is verified exactly in increasing order.
    """
    fp = np.array([fp_from_fraction(b, 64) for b in fracs], dtype=np.uint64)
    thr_exact = (bound.numerator << 64) // bound.denominator + 1 + k_max
    thr = np.uint64(min(thr_exact, 1 << 63))  # 2**63 accepts everything
    block = 1 << 18
    for start in range(1, k_max + 1, block):
        stop = min(start + block, k_max + 1)
        ks = np.arange(start, stop, dtype=np.uint64)
        # screen on the first beta, then test only the survivors
        v = ks * fp[0]  # uint64 wrap-around: exact mod 1 at 64 bits
        cand = ks[np.minimum(v, np.uint64(0) - v) <= thr]
        for f in fp[1:]:
            if cand.size == 0:
                break
            v = cand * f
            cand = cand[np.minimum(v, np.uint64(0) - v) <= thr]
        for k in cand:
            k = int(k)
            if all(norm_dist(k * b) <= bound for b in fracs):
                return k
    raise AssertionError("pigeonhole existence violated within (mn)^r + 1")


def _bucket_collision(fracs, mn: int, r: int, k_max: int, bits: int) -> int:
    """Subcube bucketing: first repeated cube index yields k = |k' - k''|.

    Runs at bits+48 working precision so the returned k meets the bound
    within the documented evaluation slack.
    """
    w = bits + 48
    mod = 1 << w
    fps = [fp_from_fraction(b, w) for b in fracs]
    state = [0] * r
    seen: dict[tuple, int] = {tuple(0 for _ in range(r)): 0}
    for k in range(1, k_max + 1):
        for j in range(r):
            state[j] = (state[j] + fps[j]) % mod
        idx = tuple((s * mn) >> w for s in state)
        if idx in seen:
            return k - seen[idx]
        seen[idx] = k
    raise AssertionError("pigeonhole collision missing within (mn)^r + 1")


# -- separation diagnostic -----------------------------------------------------

@dataclass(frozen=True)
class SeparationRow:
    k: int
    sup_norm: float
    n_argmax: int
    below_one_fifth: bool


@dataclass(frozen=True)
class SeparationReport:
    rows: tuple[SeparationRow, ...]
    n_points: int

    def flagged(self) -> list[int]:
        return [row.k for row in self.rows if row.below_one_fifth]


def kxn_separation(top: np.ndarray, k_min: int, k_max: int) -> SeparationReport:
    """For each k, max_n ||k x~_n|| over the available sequence.

    top is the sequence at 64-bit resolution, a uint64 array such as
    `ReducedOrbit.top64()`.  A finite-n maximum can only understate the
    true supremum, so entries below 1/5 are flagged as diagnostics, never
    as refutations.

    The scan folds over blocks of at most SEPARATION_KS values of k by
    SEPARATION_ROWS points in one reused uint64 buffer (1 MB): k x mod
    2**64 is formed in place, and the absolute value of its int64 view is
    min(v, 2**64 - v) exactly, 2**63 included.  A block's maximum replaces
    the running one only when strictly larger, so n_argmax is the first
    index of the maximum.
    """
    top = np.asarray(top)
    if top.dtype != np.uint64 or top.ndim != 1:
        raise UsageError("separation needs a 1-d uint64 array of 64-bit points")
    if top.size == 0:
        raise UsageError("empty sequence")
    if k_min < 1 or k_min > k_max:
        raise UsageError("bad k range")
    rows = []
    scale = float(1 << 64)
    buf = np.empty((SEPARATION_KS, min(SEPARATION_ROWS, top.size)), dtype=np.uint64)
    for k0 in range(k_min, k_max + 1, SEPARATION_KS):
        ks = np.arange(k0, min(k0 + SEPARATION_KS, k_max + 1), dtype=np.uint64)
        which = np.arange(ks.size)
        best = np.zeros(ks.size, dtype=np.uint64)
        best_arg = np.zeros(ks.size, dtype=np.int64)
        for s in range(0, top.size, SEPARATION_ROWS):
            block = top[s:s + SEPARATION_ROWS]
            v = buf[:ks.size, :block.size]
            np.multiply(ks[:, None], block, out=v)  # exact mod 2**64
            signed = v.view(np.int64)
            np.abs(signed, out=signed)
            arg = v.argmax(axis=1)
            top_v = v[which, arg]
            better = top_v > best
            best[better] = top_v[better]
            best_arg[better] = arg[better] + s
        for k, norm, arg in zip(range(k0, k0 + ks.size), best, best_arg):
            sup = float(norm) / scale
            rows.append(SeparationRow(k, sup, int(arg), sup < 0.2))
    return SeparationReport(tuple(rows), int(top.size))
