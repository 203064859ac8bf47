"""Pigeonhole simultaneous approximation and the orbit separation diagnostic.

pigeonhole_approx finds, for reals beta_1..beta_r, the least k in [1, (mn)^r + 1]
(pigeonhole on the (mn)^r subcubes of [0,1]^r) with ||k beta_j|| <= 1/(mn) for all j.
The scan path walks only the returns of one beta's 64-bit rotation near 0
(three-gap theorem), screens them with the other betas and settles each survivor
exactly, so k is truly minimal.  Past the scan budget, subcube collision returns
|k' - k|, which meets the bound but need not be minimal (the result says which
path ran); past MAX_BUCKET_K_SPACE it is refused with GuardError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd

import numpy as np

from .errors import GuardError, UsageError
from .exact.symbolic import SymbolicReal
from .fixedpoint import fp_from_fraction
from .orbit.generate import MAX_ORBIT_BITS
from .table import chunk_bounds

# The largest k-space (mn)^r + 1 the scan path takes.  Just under it, each case in
# a process of its own (2-core x86_64, Python 3.11, numpy 2.4): a full walk with no k
# in range (r = 3, mn = 203) took 0.03 s; the largest k of a random search,
# 0.67 k_max at r = 3 and 0.85 k_max at r = 2, took 0.02 s and 0.003 s; r = 1
# (k = k_max - 2 at beta = 1/mn + 10**-40) and a rational first beta (0, 1/2)
# took under 1 ms.  Peak RSS was 35 MB, 1 MB above the imports alone.
DEFAULT_SCAN_BUDGET = 1 << 23
RETURN_BLOCK = 256  # the returns of one beta that the others screen at once
_MOD = 1 << 64
# The largest k-space (mn)^r + 1 the bucket path may take: one dict entry per k
# until two subcubes collide.  beta = 1/n + 10**-40, m = 1, n = 4 * 10**6 (every
# subcube distinct until k = n) took 8.8 s at 622 MB peak RSS on 2-core x86_64,
# Python 3.11, and [sqrt2] at n = 10**7 took 15.6 s at 1113 MB.
MAX_BUCKET_K_SPACE = 1 << 22


def norm_dist(x):
    """Distance from x to the nearest integer, in [0, 1/2]; exact on rationals."""
    frac = x - (x.numerator // x.denominator) if isinstance(x, Fraction) else float(x) % 1.0
    return min(frac, 1 - frac)


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
    """The k-space (mn)^r + 1 of pigeonhole_approx, refused before any work: UsageError for
    m or n below 1 and unless 2**(bits - 4) > mn; GuardError past MAX_ORBIT_BITS bits (the
    2**(4 - bits) slack costs time and memory) and past scan_budget and MAX_BUCKET_K_SPACE."""
    if m < 1 or n < 1:
        raise UsageError("m and n must be positive integers")
    if (m * n).bit_length() > bits - 4:  # mn < 2**(bits - 4) exactly when this fails
        raise UsageError(f"bits too small for the requested 1/(mn) target: 2**(bits - 4) "
                         f"must exceed mn = {m * n}, got bits = {bits}")
    if bits > MAX_ORBIT_BITS:
        raise GuardError(f"pigeonhole bits={bits} exceeds the guard of {MAX_ORBIT_BITS}")
    k_space = (m * n) ** r + 1
    if k_space > scan_budget and k_space > MAX_BUCKET_K_SPACE:
        raise GuardError(f"(mn)^r + 1 = {k_space} exceeds the bucket path's guard of {MAX_BUCKET_K_SPACE}")
    return k_space


def pigeonhole_approx(betas, m: int, n: int, bits: int = 128,
                      scan_budget: int = DEFAULT_SCAN_BUDGET) -> ApproxResult:
    """Smallest k in [1, (mn)^r + 1] with ||k beta_j|| <= 1/(mn) for all j."""
    fracs = [b.value() if isinstance(b, SymbolicReal) else Fraction(b) for b in betas]
    if (r := len(fracs)) < 1:
        raise UsageError("need at least one beta")
    k_max = check_k_space(m, n, r, bits, scan_budget)
    bound = Fraction(1, m * n)
    if k_max <= scan_budget:
        k, path, minimal = _scan_minimal(fracs, bound, k_max), "scan", True
    else:
        k, path, minimal = _bucket_collision(fracs, m * n, r, k_max, bits), "bucket", False
    achieved = tuple(norm_dist(k * b) for b in fracs)
    slack = Fraction(1, 1 << (bits - 4))
    assert all(a <= bound + slack for a in achieved), "pigeonhole bound violated"
    return ApproxResult(k, m, n, r, achieved, path, minimal, bits)


def _scan_minimal(fracs: list[Fraction], bound: Fraction, k_max: int) -> int:
    """The least k <= k_max with ||k beta|| <= bound for every beta.

    k is a candidate when k f mod 2**64 is in [-thr, thr] for the 64-bit floor f
    of every beta; thr, bound 2**64 inflated by the drift bound k_max, screens out
    no solution.  _returns walks one beta's candidates in increasing order, the k
    a screen of every k keeps, on the beta whose smaller (then larger) return step
    is largest: a short period such as 0 or 1/2 is walked only if every beta has
    one.  The others screen blocks of RETURN_BLOCK; norm_dist settles survivors.
    """
    fps = [fp_from_fraction(b, 64) for b in fracs]
    thr = (bound.numerator << 64) // bound.denominator + 1 + k_max
    if thr >= 1 << 63:  # mn <= 2: every k is a candidate, and k = 1 qualifies
        ks, rest = iter(range(1, k_max + 1)), []
    else:
        j = max(range(len(fps)), key=lambda i: sorted(_return_steps(fps[i], 2 * thr + 1)))
        ks, rest = _returns(fps[j], thr, k_max), np.array(fps[:j] + fps[j + 1:], dtype=np.uint64)
    while (cand := np.fromiter(islice(ks, RETURN_BLOCK), np.uint64)).size:
        for f in rest:
            v = cand * f  # uint64 wrap-around: exact mod 1 at 64 bits
            cand = cand[np.minimum(v, np.uint64(0) - v) <= thr]
        for k in cand.tolist():
            if all(norm_dist(k * b) <= bound for b in fracs):
                return k
    raise AssertionError("pigeonhole existence violated within (mn)^r + 1")


def _first_in(f: int, lo: int, hi: int, mod: int) -> int | None:
    """The least x >= 0 with f x mod `mod` in [lo, hi], or None; 0 <= f < mod, 1 <= lo <= hi < mod.
    Euclid: when no multiple of f lies in [lo, hi], f x - mod y in [lo, hi]
    asks for the least y with (mod % f) y mod f in [f - hi % f, f - lo % f]."""
    if f == 0:
        return None
    if (x := -(-lo // f)) * f <= hi:
        return x
    y = _first_in(mod % f, f - hi % f, f - lo % f, f)
    return None if y is None else -(-(lo + mod * y) // f)


def _return_steps(f: int, width: int) -> tuple[int, int]:
    """The least j >= 1 with j f mod 2**64 in [0, width), and with -j f; the period if none."""
    return tuple(_first_in(g, 1, width - 1, _MOD) or _MOD // gcd(f, _MOD) for g in (f, -f % _MOD))


def _returns(f: int, thr: int, k_max: int):
    """The k in [1, k_max] with k f mod 2**64 in [-thr, thr], increasing; 1 <= thr < 2**63.

    u = k f + thr mod 2**64 walks the returns to [0, L), L = 2 thr + 1, from
    u = thr at k = 0.  With return steps a and b, e_a = a f and e_b = -b f
    mod 2**64, the next return is a on if u + e_a < L, else b if u >= e_b,
    else a + b (the three-gap theorem: Slater; Sos)."""
    width = 2 * thr + 1
    a, b = _return_steps(f, width)
    e_a, e_b = a * f % _MOD, -b * f % _MOD
    k, u = 0, thr
    while True:
        if u + e_a < width:
            k, u = k + a, u + e_a
        elif u >= e_b:
            k, u = k + b, u - e_b
        else:
            k, u = k + a + b, u + e_a - e_b
        if k > k_max:
            return
        yield k


def _bucket_collision(fracs, mn: int, r: int, k_max: int, bits: int) -> int:
    """Subcube bucketing: the first repeated cube index yields k = |k' - k''|.  It runs at
    bits + 48 bits so the returned k meets the bound within the documented slack."""
    w, mod = bits + 48, 1 << (bits + 48)
    fps = [fp_from_fraction(b, w) for b in fracs]
    state = [0] * r
    seen: dict[tuple, int] = {tuple(state): 0}
    for k in range(1, k_max + 1):
        state = [(s + f) % mod for s, f in zip(state, fps)]
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


# At the k_max guard, 4096, on 10**7 random uint64 points drawn afresh by each call
# of column, kxn_separation took 5.9-6.4 s and raised peak RSS from 31 to 116 MB,
# one column and the k loop's temporaries; a sorted copy beside a held column took
# as long and peaked at 192 MB (own process, 2-core x86_64, Python 3.11, numpy 2.4).
# The separation recipe at n = 10**7 (k_max = 100) peaked at 133 MB in 0.7-0.8 s.
def kxn_separation(column, k_min: int, k_max: int) -> SeparationReport:
    """For each k, max_n ||k x~_n|| over the sequence as 64-bit points.

    column() returns a fresh 1-d uint64 array of the points in sequence
    order, such as `ReducedOrbit.top64`; it is called twice, so that no
    more than one such array is alive at a time.  A finite-n maximum only
    understates the supremum, so entries below 1/5 are diagnostics, never
    refutations.  For integer x, min(v, 2**64 - v) with v = k x mod 2**64
    peaks at the targets t_j = (2**63 + j 2**64) / k and falls at slope k
    on either side, so its maximum over the points is taken at a nearest
    point below or above some target.  The first array, sorted in place,
    yields those neighbours by binary search on the exact floors of the
    targets, and is dropped once every k's winning values are known.  Each
    k's n_argmax is the first index holding one of its winning values: one
    pass over the second array, a chunk at a time, finds the first index
    of every winning value.
    """
    if k_min < 1 or k_min > k_max:
        raise UsageError("bad k range")
    ordered = np.asarray(column())
    if ordered.dtype != np.uint64 or ordered.ndim != 1:
        raise UsageError("separation needs a 1-d uint64 array of 64-bit points")
    if ordered.size == 0:
        raise UsageError("empty sequence")
    ordered.sort()
    size, last = ordered.size, ordered.size - 1
    maxima = []
    for k in range(k_min, k_max + 1):
        # floor(2**63 m / k) for odd m < 2k is q m + (r m) // k: no product passes 2**64
        q, r = divmod(1 << 63, k)
        odd = np.arange(1, 2 * k, 2, dtype=np.uint64)
        floors = odd * np.uint64(q) + odd * np.uint64(r) // np.uint64(k)
        above = np.searchsorted(ordered, floors, side="right")
        near = ordered[np.concatenate((np.maximum(above - 1, 0), np.minimum(above, last)))]
        v = near * np.uint64(k)  # exact mod 2**64
        norms = np.minimum(v, 0 - v)
        best = norms.max()
        maxima.append((k, best, np.unique(near[norms == best])))
    del ordered
    winners = np.unique(np.concatenate([values for _, _, values in maxima]))
    first = np.full(winners.size, size, dtype=np.int64)
    # only a point whose top 16 bits are some winner's is looked up among them
    prefixes = np.zeros(1 << 16, dtype=bool)
    prefixes[winners >> np.uint64(48)] = True
    top = column()
    for start, stop in chunk_bounds(size):
        block = top[start:stop]
        maybe = np.flatnonzero(prefixes[block >> np.uint64(48)])
        at = np.minimum(np.searchsorted(winners, block[maybe]), winners.size - 1)
        hit = winners[at] == block[maybe]
        if not hit.any():
            continue
        which, once = np.unique(at[hit], return_index=True)
        first[which] = np.minimum(first[which], maybe[hit][once] + start)
    rows = []
    for k, best, values in maxima:
        sup = float(best) / 2**64
        arg = first[np.searchsorted(winners, values)].min()
        rows.append(SeparationRow(k, sup, int(arg), sup < 0.2))
    return SeparationReport(tuple(rows), size)
