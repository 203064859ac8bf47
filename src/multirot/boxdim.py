"""Dyadic covering counts, box-dimension estimates, and exact interval covers.

Point sets on the circle are held as 64-bit fixed-point values, sorted
once and deduplicated by neighbour comparison; the dyadic cells at scale
2**-k are then a shift of the sorted values, and grid counts are exact
integer statistics.  Cell-level difference sets are read off the cyclic
autocorrelation of the 2**k-cell occupancy bitmap, computed by FFT with
its rounding error checked on every call.  Grid counts
are the primary estimator (they differ from minimal interval covers by at
most a factor of 2, which does not move dimension estimates); minimal
covers are computed exactly, only where the scaled-covering inequality
demands them, by an int64 numpy kernel: one greedy sweep, plus pointer
doubling over every anchor when no gap longer than the interval fixes one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import GuardError, UsageError
from .fixedpoint import fp_from_fraction

BITS = 64
COVER_BITS = 60  # working precision of exact interval covers (int64-safe)
EXACT_DIFF_LIMIT = 4096  # beyond this the cell-level difference path is used
DIFF_CELL_K_MAX = 22  # the bitmap path peaks at about 32 * 2**k bytes (128 MB at k = 22)


class CirclePoints:
    """A finite set on the circle as sorted, deduplicated 64-bit fractions."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        v = np.sort(np.asarray(values, dtype=np.uint64), axis=None)
        if v.size == 0:
            raise UsageError("empty point set")
        self.values = _distinct(v)

    def __len__(self) -> int:
        return int(self.values.size)

    @classmethod
    def from_fractions(cls, fracs: Iterable[Fraction]) -> "CirclePoints":
        vals = [fp_from_fraction(Fraction(f), BITS) for f in fracs]
        return cls(np.array(vals, dtype=np.uint64))

    @classmethod
    def from_floats(cls, xs: Iterable[float]) -> "CirclePoints":
        arr = np.mod(np.asarray(list(xs), dtype=np.float64), 1.0)
        return cls((arr * float(1 << 32)).astype(np.uint64) << np.uint64(32))

    @classmethod
    def from_orbit(cls, orbit) -> "CirclePoints":
        return cls(orbit.top64())

    @classmethod
    def from_unit_reals(cls, fracs: Iterable[Fraction], rescale: bool = False) -> "CirclePoints":
        """Exact rationals in [0,1] (mod 1); optionally affinely rescaled to [0,1).

        Rescaling by the hull is dimension-preserving and is the documented
        route for real-line data such as attractor samples.
        """
        xs = [Fraction(f) for f in fracs]
        if rescale:
            lo, hi = min(xs), max(xs)
            span = hi - lo
            if span > 0:
                xs = [(x - lo) / span * Fraction(2**BITS - 1, 2**BITS) for x in xs]
            else:
                xs = [Fraction(0)]
        return cls.from_fractions(xs)

    def cells(self, k: int) -> np.ndarray:
        """Sorted distinct dyadic cell indices floor(x * 2**k)."""
        if not (0 <= k <= BITS - 2):
            raise UsageError(f"scale exponent k={k} outside [0, {BITS - 2}]")
        # values are sorted, so their shifts are too
        return _distinct(self.values >> np.uint64(BITS - k)).view(np.int64)


def covering_count(points: CirclePoints, k: int) -> int:
    """Number of occupied dyadic cells at scale 2**-k."""
    return int(points.cells(k).size)


# -- covering profiles --------------------------------------------------------

@dataclass(frozen=True)
class CoveringProfile:
    counts: dict[int, int]       # k -> N_{2^-k}
    k_min: int
    k_max: int
    n_points: int

    def __post_init__(self):
        for k in range(self.k_min, self.k_max + 1):
            n = self.counts[k]
            if not (1 <= n <= min(self.n_points, 2**k)):
                raise AssertionError(f"covering count out of range at k={k}")
            if k > self.k_min:
                prev = self.counts[k - 1]
                if n < prev or n > 2 * prev:
                    raise AssertionError(f"monotonicity/doubling violated at k={k}")

    def ks(self) -> list[int]:
        return list(range(self.k_min, self.k_max + 1))

    def log2_counts(self) -> np.ndarray:
        return np.log2([self.counts[k] for k in self.ks()])

    def slopes_local(self) -> list[float]:
        """log2 N_{k+1} - log2 N_k for adjacent scales; each lies in [0, 1]."""
        logs = self.log2_counts()
        return [float(b - a) for a, b in zip(logs, logs[1:])]

    def slope_global(self) -> float:
        ks = np.asarray(self.ks(), dtype=np.float64)
        return float(np.polyfit(ks, self.log2_counts(), 1)[0])


def covering_profile(points: CirclePoints, k_min: int, k_max: int) -> CoveringProfile:
    if k_min < 0 or k_max > BITS - 2 or k_min > k_max:
        raise UsageError("bad scale range")
    counts = {k: covering_count(points, k) for k in range(k_min, k_max + 1)}
    return CoveringProfile(counts, k_min, k_max, len(points))


@dataclass(frozen=True)
class BoxDimEstimate:
    lower_est: float            # min local slope (finite data cannot certify liminf)
    upper_est: float            # max local slope
    slope_global: float
    slopes_local: tuple[float, ...]
    resolution_limited: bool    # every point isolated already at the coarsest scale


def box_dim_estimate(profile: CoveringProfile) -> BoxDimEstimate:
    if profile.k_max - profile.k_min < 3:
        raise UsageError("box_dim_estimate needs at least 4 scales")
    local = profile.slopes_local()
    return BoxDimEstimate(
        lower_est=min(local),
        upper_est=max(local),
        slope_global=profile.slope_global(),
        slopes_local=tuple(local),
        resolution_limited=profile.counts[profile.k_min] == profile.n_points,
    )


# -- difference sets ----------------------------------------------------------

@dataclass(frozen=True)
class DifferenceSet:
    points: CirclePoints         # exact differences, or cell left-endpoints
    cell_level: bool
    k: int | None                # resolution of the cell-level path
    cell_count: int | None = None


def difference_set(
    points: CirclePoints, cell_k: int | None = None, exact_limit: int = EXACT_DIFF_LIMIT
) -> DifferenceSet:
    """X - X mod 1: exact pairwise for small sets, cell-level otherwise.

    The cell-level result is {(a - b) mod 2**k : a, b occupied cells}; each
    such cell is within one cell of a true difference, and the result is
    flagged so callers can state that slack.  It is the support of the
    cyclic autocorrelation of the occupancy bitmap b, irfft(|rfft(b)|**2),
    whose entries are pair counts, integers in [0, N_k].  The float error
    is about 2**-53 * k * N_k, so rounding is exact for k <= DIFF_CELL_K_MAX;
    every call checks that each entry is within 1/4 of an integer, and a
    finer k raises GuardError, since the bitmap takes O(2**k) memory.
    """
    n = len(points)
    if cell_k is None and n <= exact_limit:
        vals = points.values
        acc = np.array([0], dtype=np.uint64)
        block = max(1, (1 << 22) // max(n, 1))
        for start in range(0, n, block):
            chunk = vals[start:start + block]
            diffs = (vals[None, :] - chunk[:, None]).ravel()  # uint64 wrap = mod 1
            acc = np.concatenate([acc, diffs])
            acc.sort()
            acc = _distinct(acc)
        return DifferenceSet(CirclePoints(acc), False, None)
    k = cell_k if cell_k is not None else 12
    if k < 0:
        raise UsageError(f"scale exponent k={k} is negative")
    if k > DIFF_CELL_K_MAX:
        raise GuardError(
            f"difference-set scale k={k} exceeds {DIFF_CELL_K_MAX} (a 2**k-cell bitmap)"
        )
    mod = 1 << k
    # points below each inner cell edge; a cell is occupied where the count rises
    edges = np.arange(1, mod, dtype=np.uint64)
    edges <<= np.uint64(BITS - k)
    occupied = np.diff(points.values.searchsorted(edges), prepend=0, append=n) > 0
    del edges
    power = np.abs(np.fft.rfft(occupied))
    power *= power
    pairs = np.fft.irfft(power, n=mod)
    del power
    counts = np.rint(pairs)
    pairs -= counts
    if not np.abs(pairs, out=pairs).max() < 0.25:
        raise RuntimeError(f"FFT pair counts at k={k} are not within 1/4 of integers")
    del pairs
    vals = np.flatnonzero(counts > 0).view(np.uint64)
    del counts
    vals <<= np.uint64(BITS - k)
    return DifferenceSet(CirclePoints(vals), True, k, cell_count=int(vals.size))


# -- exact minimal interval covers ---------------------------------------------

def _minimal_cover(v: np.ndarray, delta: int, mod: int) -> int:
    """Minimal number of closed length-delta intervals covering v on Z/mod.

    v: sorted distinct int64 in [0, mod), with 2*mod + delta <= 2**63 so
    that every sum below is exact.  An optimal cover exists with every
    interval anchored at a point, the greedy sweep from the right anchor is
    optimal, and the sweep from any anchor needs at most one interval more.
    On the doubled array w = v ++ (v + mod), the greedy jump nxt[i] is the
    first index the interval at w[i] leaves uncovered.  One sweep along nxt
    runs from the point after the largest circular gap; when that gap
    exceeds delta the point must be an anchor and the sweep is optimal.
    Otherwise the sweep's count c is the optimum or one more, and nxt is
    lifted to its (c-1)-th power by pointer doubling to ask whether any
    anchor s reaches s + n in c - 1 jumps.
    """
    n = v.size
    if n == 1:
        return 1
    w = np.concatenate((v, v + mod))
    gaps = w[1:n + 1] - v
    g = int(gaps.argmax())
    if gaps[g] > delta:
        u = w[g + 1:g + 1 + n]  # the circle cut open at that gap
        return _sweep(u.searchsorted(u + delta, side="right"), n)
    nxt = w.searchsorted(w + delta, side="right")
    count = _sweep(nxt, n)
    if count == 1:
        return 1
    # count - 1 <= min(n, ceil(mod / delta)), so the doublings are at most
    # that bound's bit length.
    up = np.append(nxt, 2 * n)  # index 2n is absorbing
    pos = np.arange(n)
    e = count - 1
    while True:
        if e & 1:
            pos = up[pos]
        e >>= 1
        if not e:
            break
        up = up[up]
    return count - 1 if np.count_nonzero(pos >= np.arange(n, 2 * n)) else count


def _sweep(nxt: np.ndarray, n: int) -> int:
    """Jumps along nxt from index 0 until it reaches index n."""
    jump = nxt.tolist()
    pos = count = 0
    while pos < n:
        pos = jump[pos]
        count += 1
    return count


def _distinct(v: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array (cheaper than np.unique)."""
    new = v[1:] != v[:-1]
    if np.count_nonzero(new) == new.size:
        return v
    return v[np.concatenate(([True], new))]


def minimal_cover_count(vals: np.ndarray, delta: int, mod: int = 1 << COVER_BITS) -> int:
    """Exact minimal circular cover by closed intervals of length delta/mod.

    vals are integers in [0, mod), in any order and with repeats; sorted
    distinct input is used as it is.  A delta of mod or more covers the
    circle with one interval.  The kernel works in int64, so 2*mod plus
    min(delta, mod) must not exceed 2**63.
    """
    mod, delta = int(mod), int(delta)
    if mod < 1:
        raise UsageError("mod must be a positive integer")
    if not (0 < delta):
        raise UsageError("delta must be positive")
    delta = min(delta, mod)
    if 2 * mod + delta > 1 << 63:
        raise UsageError(f"mod={mod} is too large for exact int64 covers")
    a = np.ravel(vals)
    if a.size == 0:
        raise UsageError("empty point set")
    if a.dtype.kind not in "iu":
        raise UsageError(f"cover values must be int64 integers, got dtype {a.dtype}")
    v = a.astype(np.int64, copy=False)  # uint64 past 2**63 turns negative
    rising = v[1:] > v[:-1]
    if np.count_nonzero(rising) != rising.size:
        v = _distinct(np.sort(v))
    if v[0] < 0 or v[-1] >= mod:
        raise UsageError(f"cover values must lie in [0, {mod})")
    return _minimal_cover(v, delta, mod)


@dataclass(frozen=True)
class ScaledCoveringCheck:
    p: int
    k: int
    lhs: int      # minimal cover of pA mod 1 at scale p * 2**-k
    rhs: int      # minimal cover of A at scale 2**-k
    holds: bool


def scaled_covering_check(points: CirclePoints, p: int, k: int) -> ScaledCoveringCheck:
    """Exact check of N_{p delta}(pA mod 1) <= N_delta(A) for delta = 2**-k.

    Both sides are minimal interval covers computed exactly on the 60-bit
    grid the points are truncated to (all subsequent arithmetic is exact on
    that grid).
    """
    if p < 1:
        raise UsageError("p must be a positive integer")
    if p >= (1 << k):
        raise UsageError("need p * 2**-k < 1")
    # points.values is sorted, so A stays sorted after the shift; pA needs
    # its one sort.
    a = _distinct(points.values >> np.uint64(BITS - COVER_BITS))
    mask = np.uint64((1 << COVER_BITS) - 1)
    pa = (a * np.uint64(p)) & mask
    pa.sort()
    pa = _distinct(pa)
    delta = 1 << (COVER_BITS - k)
    rhs = minimal_cover_count(a.view(np.int64), delta)
    lhs = minimal_cover_count(pa.view(np.int64), p * delta)
    return ScaledCoveringCheck(p, k, lhs, rhs, lhs <= rhs)


# -- gaps and interval evidence -------------------------------------------------

@dataclass(frozen=True)
class GapProfile:
    max_gap: Fraction            # largest circular gap between consecutive points
    k: int
    cover_fraction: Fraction     # occupied dyadic cells / 2**k
    longest_run_cells: int       # longest circular run of consecutive occupied cells


def gap_profile(points: CirclePoints, k: int = 12) -> GapProfile:
    vals = points.values
    if vals.size == 1:
        max_gap = Fraction(1)
    else:
        gaps = np.diff(vals)
        wrap = (int(vals[0]) - int(vals[-1])) % (1 << BITS)
        max_gap = Fraction(max(int(gaps.max()), wrap), 1 << BITS)
    cells = points.cells(k)
    mod = 1 << k
    occupied = int(cells.size)
    if occupied == mod:
        longest = mod
    else:
        # split the circular cell sequence at its holes
        breaks = np.nonzero(np.diff(cells) != 1)[0]
        runs = np.diff(np.concatenate([[-1], breaks, [occupied - 1]]))
        longest = int(runs.max())
        if cells[0] == 0 and cells[-1] == mod - 1 and occupied < mod and runs.size >= 2:
            longest = max(longest, int(runs[0] + runs[-1]))
    return GapProfile(max_gap, k, Fraction(occupied, mod), longest)


# -- exports -------------------------------------------------------------------

def write_profile_csv(profile: CoveringProfile, path) -> None:
    """Columns: k, N, log2N, local_slope (slope from k to k+1; blank on the last row)."""
    ks = profile.ks()
    logs = profile.log2_counts()
    slopes = profile.slopes_local()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("k,N,log2N,local_slope\n")
        for i, k in enumerate(ks):
            slope = repr(slopes[i]) if i < len(slopes) else ""
            fh.write(f"{k},{profile.counts[k]},{repr(float(logs[i]))},{slope}\n")


def write_profile_svg(profile: CoveringProfile, path) -> None:
    from .svgplot import loglog_svg

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(loglog_svg(profile))
