"""Dyadic covering counts, box-dimension estimates, and exact interval covers.

Point sets on the circle are held as 64-bit fixed-point values, sorted once
and deduplicated by neighbour comparison.  A rational sample, such as a d = 1
attractor sample on its grid (1/q) Z, becomes points by one integer floor per
point (`CirclePoints.from_grid`).  The dyadic cells at scale 2**-k are a shift
of the sorted values, taken a chunk at a time into an array of exactly the
distinct cells, so a set of n points holds its values and no second
n-sized array; grid counts are exact integer statistics, and a covering
profile takes the cells of its finest scale and halves them for each
coarser one.  Difference sets are cell-level only, at a scale the
caller gives: they are read off the cyclic autocorrelation of the
2**k-cell occupancy bitmap, computed by FFT with its rounding error checked
on every call.  Grid counts are the primary estimator (they differ from
minimal interval covers by at most a factor of 2, which does not move
dimension estimates); minimal covers are computed exactly, only where the
scaled-covering inequality demands them, by an int64 numpy kernel that
takes one point set and many interval lengths: the set's doubled array and
largest gap are built once, and each length costs one greedy sweep, plus
pointer doubling over every anchor when no gap longer than the interval
fixes one.  `scaled_covering_checks` makes every check of one set in one
pass: one truncation to the cover grid, one kernel call for all right-hand
sides, and per p one sort of pA and one kernel call for its left-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator

import numpy as np

from . import table
from .errors import GuardError, UsageError

BITS = 64
COVER_BITS = 60  # working precision of exact interval covers (int64-safe)
DIFF_CELL_K_MAX = 22  # the bitmap path peaks at about 32 * 2**k bytes (128 MB at k = 22)


class CirclePoints:
    """A finite set on the circle as sorted, deduplicated 64-bit fractions.  Rationals
    enter through `from_grid` alone; `from_unit_reals` puts Fractions on its grid."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        v = np.sort(np.asarray(values, dtype=np.uint64), axis=None)
        if v.size == 0:
            raise UsageError("empty point set")
        self.values = _distinct(v)

    def __len__(self) -> int:
        return int(self.values.size)

    @classmethod
    def from_grid(cls, xs: list[int], q: int, rescale: bool = False) -> "CirclePoints":
        """The rationals x / q for integers x in xs, one integer floor per point.

        Mod 1 a point is floor(x 2**64 / q) mod 2**64.  Rescaled, the hull
        [lo / q, hi / q] maps onto [0, 1] first, x to floor((x - lo) (2**64 - 1)
        / (hi - lo)), and a zero span gives the one point 0.  Rescaling preserves
        dimension and is the route for real-line data such as attractor samples.
        """
        top = (1 << BITS) - 1
        if rescale:
            # an empty xs reaches the constructor, which refuses it
            lo = min(xs, default=0)
            span = max(max(xs, default=0) - lo, 1)  # a zero span leaves every x - lo at 0
            vals = ((x - lo) * top // span for x in xs)
        else:
            vals = (((x << BITS) // q) & top for x in xs)
        return cls(np.fromiter(vals, dtype=np.uint64, count=len(xs)))

    @classmethod
    def from_orbit(cls, orbit) -> "CirclePoints":
        """The orbit's points at 64 bits.  `top64` is a fresh column, so it is
        sorted in place and kept, with no sorted copy beside it."""
        top = orbit.top64()
        top.sort()
        points = cls.__new__(cls)
        points.values = _distinct(top)
        return points

    @classmethod
    def from_unit_reals(cls, fracs: Iterable[Fraction], rescale: bool = False) -> "CirclePoints":
        """Exact rationals, mod 1 or rescaled by their hull: `from_grid` on their lcm."""
        xs = [f if isinstance(f, Fraction) else Fraction(f) for f in fracs]
        q = lcm(*{x.denominator for x in xs})
        return cls.from_grid([x.numerator * (q // x.denominator) for x in xs], q, rescale)

    def cells(self, k: int) -> np.ndarray:
        """Sorted distinct dyadic cell indices floor(x * 2**k).

        The values are sorted, so their shifts are too.  A set of one
        chunk is shifted at once; a longer one in two passes over
        `table.chunk_bounds`, each chunk compared with the last value
        before it: the first counts the distinct cells, the second fills
        an array of exactly that many, so no shifted copy of every value
        is made.
        """
        if not (0 <= k <= BITS - 2):
            raise UsageError(f"scale exponent k={k} outside [0, {BITS - 2}]")
        v, shift = self.values, np.uint64(BITS - k)
        if v.size <= table.CHUNK_ROWS:
            return _distinct(v >> shift).view(np.int64)

        def rises(start, stop):
            """The cells of v[start:stop] past v[0], and where each differs from the one before."""
            c = v[max(start - 1, 0):stop] >> shift
            return c[1:], c[1:] != c[:-1]

        bounds = list(table.chunk_bounds(v.size))
        out = np.empty(1 + sum(np.count_nonzero(rises(*b)[1]) for b in bounds), dtype=np.uint64)
        out[0] = v[0] >> shift
        at = 1
        for b in bounds:
            c, new = rises(*b)
            m = np.count_nonzero(new)
            out[at:at + m] = c[new]
            at += m
        return out.view(np.int64)


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


def check_scale_range(k_min: int, k_max: int) -> None:
    """UsageError unless 0 <= k_min <= k_max <= BITS - 2, the scales covering_profile counts."""
    if k_min < 0 or k_max > BITS - 2 or k_min > k_max:
        raise UsageError("bad scale range")


def check_estimate_scales(k_min: int, k_max: int) -> None:
    """UsageError unless k_min..k_max holds the 4 scales box_dim_estimate needs."""
    if k_max - k_min < 3:
        raise UsageError("box_dim_estimate needs at least 4 scales")


def covering_profile(points: CirclePoints, k_min: int, k_max: int) -> CoveringProfile:
    """N_k for k_min <= k <= k_max from one pass over the points: the cells at
    k_max, then each coarser scale's as the distinct halves of the finer ones."""
    check_scale_range(k_min, k_max)
    cells = points.cells(k_max)
    sizes = [cells.size]
    for _ in range(k_max - k_min):
        cells = _distinct(cells >> 1)  # still sorted
        sizes.append(cells.size)
    counts = {k: int(size) for k, size in zip(range(k_min, k_max + 1), reversed(sizes))}
    return CoveringProfile(counts, k_min, k_max, len(points))


@dataclass(frozen=True)
class BoxDimEstimate:
    lower_est: float            # min local slope (finite data cannot certify liminf)
    upper_est: float            # max local slope
    slope_global: float
    slopes_local: tuple[float, ...]
    resolution_limited: bool    # every point isolated already at the coarsest scale


def box_dim_estimate(profile: CoveringProfile) -> BoxDimEstimate:
    check_estimate_scales(profile.k_min, profile.k_max)
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
    points: CirclePoints         # left endpoints of the difference cells
    k: int                       # the cells' scale 2**-k
    cell_level = True            # each cell is within one cell of a true difference

    @property
    def cell_count(self) -> int:
        return len(self.points)


def difference_set(points: CirclePoints, cell_k: int) -> DifferenceSet:
    """X - X mod 1 at cell level: {(a - b) mod 2**k : a, b occupied cells}.

    Each such cell is within one cell of a true difference, and the result is
    flagged so callers can state that slack.  It is the support of the
    cyclic autocorrelation of the occupancy bitmap b, irfft(|rfft(b)|**2),
    whose entries are pair counts, integers in [0, N_k].  The float error
    is about 2**-53 * k * N_k, so rounding is exact for k <= DIFF_CELL_K_MAX;
    every call checks that each entry is within 1/4 of an integer, and a
    finer k raises GuardError, since the bitmap takes O(2**k) memory.
    """
    n, k = len(points), cell_k
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
    return DifferenceSet(CirclePoints(vals), k)


# -- exact minimal interval covers ---------------------------------------------

def _minimal_covers(v: np.ndarray, deltas: Iterable[int], mod: int) -> list[int]:
    """Minimal numbers of closed length-delta intervals covering v on Z/mod, one per delta.

    v: sorted distinct int64 in [0, mod), with 2*mod + delta <= 2**63 for
    every delta so that every sum below is exact.  An optimal cover exists
    with every interval anchored at a point, the greedy sweep from the right
    anchor is optimal, and the sweep from any anchor needs at most one
    interval more.  The doubled array w = v ++ (v + mod), the circular gaps,
    the largest gap and the circle cut open there are built once for all
    deltas.  Per delta, on w, the greedy jump nxt[i] is the first index the
    interval at w[i] leaves uncovered.  One sweep along nxt runs from the
    point after the largest gap; when that gap exceeds delta the point must
    be an anchor and the sweep is optimal.  Otherwise the sweep's count c is
    the optimum or one more, and nxt is lifted to its (c-1)-th power by
    pointer doubling to ask whether any anchor s reaches s + n in c - 1 jumps.
    """
    n = v.size
    if n == 1:
        return [1 for _ in deltas]
    w = np.concatenate((v, v + mod))
    gaps = w[1:n + 1] - v
    g = int(gaps.argmax())
    largest = int(gaps[g])
    del gaps
    u = w[g + 1:g + 1 + n]  # the circle cut open at that gap
    counts = []
    for delta in deltas:
        if largest > delta:
            counts.append(_sweep(u.searchsorted(u + delta, side="right"), n))
            continue
        nxt = w.searchsorted(w + delta, side="right")
        count = _sweep(nxt, n)
        if count > 1:
            # count - 1 <= min(n, ceil(mod / delta)), so the doublings are
            # at most that bound's bit length.
            up = np.append(nxt, 2 * n)  # index 2n is absorbing
            del nxt  # the doublings below peak with two copies of up alive
            pos = np.arange(n)
            e = count - 1
            while True:
                if e & 1:
                    pos = up[pos]
                e >>= 1
                if not e:
                    break
                up = up[up]
            count -= bool(np.count_nonzero(pos >= np.arange(n, 2 * n)))
        counts.append(count)
    return counts


def _sweep(nxt: np.ndarray, n: int) -> int:
    """Jumps along nxt from index 0 until it reaches index n."""
    jump = nxt[:n].tolist()  # the sweep reads no index past n - 1
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
    return _minimal_covers(v, (delta,), mod)[0]


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
    _check_cover_scale(k)
    if p < 1:
        raise UsageError("p must be a positive integer")
    if p >= (1 << k):
        raise UsageError("need p * 2**-k < 1")
    a = points.cells(COVER_BITS)
    delta = 1 << (COVER_BITS - k)
    rhs = minimal_cover_count(a, delta)
    lhs = minimal_cover_count(_scaled(a, p), p * delta)
    return ScaledCoveringCheck(p, k, lhs, rhs, lhs <= rhs)


def scaled_covering_checks(points: CirclePoints, p_max: int,
                           k_max: int) -> Iterator[ScaledCoveringCheck]:
    """scaled_covering_check(points, p, k) for 1 <= k <= k_max and 1 <= p <= p_max
    with p < 2**k, in the order of k, then p.

    The points are truncated to the 60-bit grid once, and the k_max right-hand
    sides come from one kernel call.  Each p sorts pA once and takes its
    left-hand sides at every k it is checked at from one kernel call, so one
    pA array is alive at a time.  All covers are computed before this
    returns; the checks are then made one at a time from the table of
    left-hand sides, so a caller that keeps none of them holds
    O(n + p_max * k_max) memory.
    """
    _check_cover_scale(k_max)
    if p_max < 1:
        raise UsageError("p_max must be a positive integer")
    a = points.cells(COVER_BITS)
    mod = 1 << COVER_BITS
    rhs = [0, *_minimal_covers(a, [mod >> k for k in range(1, k_max + 1)], mod)]
    p_top = min(p_max, (1 << k_max) - 1)
    lhs = np.zeros((k_max + 1, p_top + 1), dtype=np.int64)  # lhs[k, p] = N_{p 2**-k}(pA)
    for p in range(1, p_top + 1):
        p_ks = range(p.bit_length(), k_max + 1)  # p < 2**k
        lhs[p_ks.start:, p] = _minimal_covers(_scaled(a, p), [p * (mod >> k) for k in p_ks], mod)

    def checks():
        for k in range(1, k_max + 1):
            row = lhs[k].tolist()
            for p in range(1, min(p_top, (1 << k) - 1) + 1):
                yield ScaledCoveringCheck(p, k, row[p], rhs[k], row[p] <= rhs[k])
    return checks()


def _check_cover_scale(k: int) -> None:
    if not 1 <= k <= COVER_BITS:
        raise UsageError(f"k={k} is outside [1, {COVER_BITS}], the precision of exact covers")


def _scaled(a: np.ndarray, p: int) -> np.ndarray:
    """pA mod 2**COVER_BITS, sorted and distinct, for a on that grid."""
    pa = (a.view(np.uint64) * np.uint64(p)) & np.uint64((1 << COVER_BITS) - 1)
    pa.sort()
    return _distinct(pa).view(np.int64)


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
        wrap = (int(vals[0]) - int(vals[-1])) % (1 << BITS)
        # the n - 1 inner gaps a chunk at a time, each chunk from the value before it
        inner = max(int(np.diff(vals[s:e + 1]).max()) for s, e in table.chunk_bounds(vals.size - 1))
        max_gap = Fraction(max(inner, wrap), 1 << BITS)
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
