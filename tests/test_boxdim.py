"""Covering counts, dimension estimates, difference sets, interval covers."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_cover, pairwise_cell_differences, reference_unit_reals
from multirot import boxdim as bx
from multirot import table
from multirot.cli.config import ExperimentConfig
from multirot.cli.runner import run_config
from multirot.errors import GuardError, UsageError
from multirot.exact.symbolic import builtin_table
from multirot.orbit import RandomSymbols, generate_orbit, steps_from_values

F = Fraction


def pts_of(*fracs):
    return bx.CirclePoints.from_unit_reals(fracs)


# -- covering counts ---------------------------------------------------------


def test_covering_count_single_point():
    assert bx.covering_count(pts_of(F(1, 2)), 3) == 1


def test_covering_count_one_point_per_cell():
    points = pts_of(*[F(i, 8) + F(1, 16) for i in range(8)])
    assert bx.covering_count(points, 3) == 8


def test_covering_count_three_points_two_cells():
    assert bx.covering_count(pts_of(0, F(3, 10), F(6, 10)), 1) == 2


U64_EDGES = [0, 1, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(U64_EDGES)),
             min_size=1, max_size=60),
    st.integers(0, 3),
    st.booleans(),
)
def test_circle_points_match_np_unique(values, repeats, two_d):
    """Sort-and-compare dedupe against np.unique, on unsorted input with repeats."""
    values = values + values[:repeats]
    arr = np.array(values, dtype=np.uint64)
    if two_d and arr.size % 2 == 0:
        arr = arr.reshape(2, -1)
    got = bx.CirclePoints(arr).values
    want = np.unique(arr)
    assert got.dtype == np.uint64 and got.ndim == 1
    assert np.array_equal(got, want)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.lists(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**12),
             min_size=1, max_size=40),
    st.integers(0, 5),
    st.booleans(),
    st.booleans(),
    st.integers(1, 3),
)
def test_unit_reals_match_the_fraction_formula(xs, repeats, ints, rescale, grid_factor):
    """Mod 1, of negative values and values past 1, or rescaled by the hull: the
    Fraction formula, from from_unit_reals and from from_grid on a finer common grid."""
    xs = xs + xs[:repeats]
    if ints:
        xs = [x.numerator // x.denominator for x in xs]
    want = reference_unit_reals(xs, rescale)
    assert bx.CirclePoints.from_unit_reals(xs, rescale).values.tolist() == want
    q = lcm(*(F(x).denominator for x in xs)) * grid_factor
    grid = bx.CirclePoints.from_grid([int(x * q) for x in xs], q, rescale)
    assert grid.values.tolist() == want


def test_cells_match_np_unique_at_every_scale():
    rng = np.random.default_rng(40)
    raw = rng.integers(0, 2**64, 3000, dtype=np.uint64, endpoint=False)
    values = np.concatenate([raw, raw[:500], np.array(U64_EDGES, dtype=np.uint64)])
    points = bx.CirclePoints(values)
    for k in range(0, bx.BITS - 1):
        want = np.unique([int(v) >> (bx.BITS - k) for v in values])
        got = points.cells(k)
        assert got.dtype == np.int64
        assert np.array_equal(got, want), k
        assert bx.covering_count(points, k) == want.size


CHUNK = 7  # rows per chunk in the chunked-path tests, so that small sets span several

# values in runs that share a cell down to a fine scale: a base and offsets below 2**spread
CLUSTERS = st.lists(st.tuples(st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(U64_EDGES)),
                              st.integers(1, 12), st.integers(0, 40)), min_size=1, max_size=12)


def clustered_values(clusters, rng):
    out = []
    for base, run, spread in clusters:
        offsets = rng.integers(0, 1 << spread, size=run, dtype=np.uint64, endpoint=True)
        out.extend(((base + int(o)) % 2**64 for o in offsets))
    return np.array(out, dtype=np.uint64)


@settings(max_examples=200, deadline=None)
@given(clusters=CLUSTERS, seed=st.integers(0, 2**32 - 1))
def test_chunked_cells_match_the_one_shot_shift(clusters, seed):
    """At 7 rows a chunk, runs of one cell straddle the chunk boundaries at every scale
    from 0 to 62, and sets of one chunk or less take the one-shot path."""
    points = bx.CirclePoints(clustered_values(clusters, np.random.default_rng(seed)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(table, "CHUNK_ROWS", CHUNK)
        for k in range(0, bx.BITS - 1):
            want = bx._distinct(points.values >> np.uint64(bx.BITS - k)).view(np.int64)
            got = points.cells(k)
            assert got.dtype == np.int64 and np.array_equal(got, want), k


@settings(max_examples=200, deadline=None)
@given(clusters=CLUSTERS, seed=st.integers(0, 2**32 - 1), k=st.integers(0, 12))
def test_chunked_gap_profile_matches_the_one_shot_diff(clusters, seed, k):
    """The largest gap, taken a chunk of 7 at a time, against np.diff over every point."""
    points = bx.CirclePoints(clustered_values(clusters, np.random.default_rng(seed)))
    vals = points.values
    wrap = (int(vals[0]) - int(vals[-1])) % 2**64
    inner = int(np.diff(vals).max()) if vals.size > 1 else 0
    max_gap = F(max(inner, wrap), 2**64) if vals.size > 1 else F(1)
    one_shot = bx.gap_profile(points, k)  # at most 144 points: one chunk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(table, "CHUNK_ROWS", CHUNK)
        chunked = bx.gap_profile(points, k)
    assert chunked == one_shot
    assert chunked.max_gap == max_gap


def test_covering_count_empty_set_errors():
    with pytest.raises(UsageError, match="empty point set"):
        bx.CirclePoints(np.array([], dtype=np.uint64))
    for rescale in (False, True):
        with pytest.raises(UsageError, match="empty point set"):
            bx.CirclePoints.from_grid([], 7, rescale)
        with pytest.raises(UsageError, match="empty point set"):
            bx.CirclePoints.from_unit_reals([], rescale)


def test_scale_guard():
    with pytest.raises(UsageError):
        bx.covering_count(pts_of(0), 63)


# -- profiles and estimates -----------------------------------------------------


def test_profile_invariants_on_random_sets():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 2000))
        points = bx.CirclePoints(rng.integers(0, 1 << 62, size=n).astype(np.uint64) << np.uint64(2))
        profile = bx.covering_profile(points, 1, 12)
        for k in profile.ks():
            assert 1 <= profile.counts[k] <= min(len(points), 2**k)
            if k > 1:
                assert profile.counts[k - 1] <= profile.counts[k] <= 2 * profile.counts[k - 1]


ORBIT_POINTS = bx.CirclePoints.from_orbit(
    generate_orbit(steps_from_values(builtin_table(), ["sqrt2", "sqrt3"]), RandomSymbols(),
                   5000, 128, seed=6))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3000), st.integers(0, 62), st.integers(0, 62),
       st.booleans())
def test_covering_profile_matches_covering_count(seed, n, k1, k2, orbit):
    """One pass from the finest scale counts what covering_count counts at every
    scale, from k_min = 0 to k_min == k_max, on random and on orbit points."""
    k_min, k_max = sorted((k1, k2))
    if orbit:
        points = ORBIT_POINTS
    else:
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
        values >>= np.uint64(rng.integers(0, 64))  # clustered near 0 as well as spread
        points = bx.CirclePoints(values)
    profile = bx.covering_profile(points, k_min, k_max)
    assert list(profile.counts) == profile.ks()
    assert profile.counts == {k: bx.covering_count(points, k) for k in profile.ks()}


def test_uniform_grid_slopes_are_one():
    points = pts_of(*[F(i, 1 << 10) for i in range(1 << 10)])
    est = bx.box_dim_estimate(bx.covering_profile(points, 2, 8))
    assert est.lower_est == est.upper_est == 1.0
    assert abs(est.slope_global - 1.0) < 1e-12
    assert not est.resolution_limited


def test_single_point_slopes_are_zero():
    est = bx.box_dim_estimate(bx.covering_profile(pts_of(F(1, 3)), 2, 8))
    assert est.lower_est == est.upper_est == est.slope_global == 0.0
    assert est.resolution_limited


def test_middle_third_endpoints_slope():
    """3-adic endpoint sample of the classical Cantor set, depth 12."""
    points = [F(0)]
    for _ in range(12):
        points = [p / 3 for p in points] + [p / 3 + F(2, 3) for p in points]
    est = bx.box_dim_estimate(bx.covering_profile(bx.CirclePoints.from_unit_reals(points), 4, 12))
    assert abs(est.slope_global - 0.6309297535714574) < 0.03


def test_estimate_needs_four_scales():
    with pytest.raises(UsageError):
        bx.box_dim_estimate(bx.covering_profile(pts_of(0, F(1, 2)), 3, 5))


# -- difference sets -------------------------------------------------------------


def test_difference_set_contains_zero():
    rng = np.random.default_rng(9)
    points = bx.CirclePoints(rng.integers(0, 1 << 63, 100).astype(np.uint64))
    diff = bx.difference_set(points, cell_k=12)
    assert 0 in diff.points.values


def test_difference_set_cell_level_flagged():
    rng = np.random.default_rng(10)
    points = bx.CirclePoints(rng.integers(0, 1 << 63, 20000).astype(np.uint64))
    diff = bx.difference_set(points, cell_k=12)
    assert diff.cell_level and diff.k == 12
    assert diff.cell_count <= 1 << 12


def points_in_cells(cells, k, rng):
    """One point with random low bits in each given cell at scale 2**-k."""
    cells = np.asarray(cells, dtype=np.uint64)
    low = rng.integers(0, 2**64, cells.size, dtype=np.uint64, endpoint=False)
    return bx.CirclePoints((cells << np.uint64(64 - k)) | (low >> np.uint64(k)))


def assert_cell_level_matches_pairwise(points, k, want=None):
    diff = bx.difference_set(points, cell_k=k)
    if want is None:
        want = pairwise_cell_differences(points.cells(k), k)
    assert diff.cell_level and diff.k == k
    assert diff.cell_count == want.size
    # the points are the left endpoints of the difference cells
    assert np.array_equal(diff.points.values, want.astype(np.uint64) << np.uint64(64 - k)), k


@pytest.mark.parametrize("k", range(1, 17))
def test_cell_difference_set_matches_pairwise_on_random_sets(k):
    rng = np.random.default_rng(100 + k)
    for trial in range(6):
        n = int(rng.integers(1, 400))
        values = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
        if trial % 2:  # every point on the left edge of its cell
            values &= ~np.uint64((1 << (64 - k)) - 1)
        assert_cell_level_matches_pairwise(bx.CirclePoints(values), k)


@pytest.mark.parametrize("k", range(1, 17))
def test_cell_difference_set_special_sets(k):
    rng = np.random.default_rng(200 + k)
    mod = 1 << k
    # a single cell, anywhere
    for cell in {0, mod // 3, mod - 1}:
        assert_cell_level_matches_pairwise(points_in_cells([cell], k, rng), k)
    # the two extreme cells: differences 0, 1 and -1
    assert_cell_level_matches_pairwise(points_in_cells([0, mod - 1], k, rng), k)
    # the full circle: cell 0 is occupied, so the differences c - 0 are every cell
    full = points_in_cells(np.arange(mod), k, rng)
    assert_cell_level_matches_pairwise(full, k, np.arange(mod) if k > 10 else None)


def test_cell_difference_set_matches_pairwise_on_orbit():
    steps = steps_from_values(builtin_table(), ["sqrt2", "sqrt3"])
    orbit = generate_orbit(steps, RandomSymbols(), 10**4, 128, seed=3)
    points = bx.CirclePoints.from_orbit(orbit)
    for k in range(1, 17):
        assert_cell_level_matches_pairwise(points, k)


def test_cell_difference_set_scale_zero():
    diff = bx.difference_set(pts_of(F(1, 3), F(2, 3)), cell_k=0)
    assert diff.cell_level and diff.cell_count == 1
    assert list(diff.points.values) == [0]


def test_cell_difference_set_scale_guard():
    points = pts_of(0, F(1, 3))
    assert bx.difference_set(points, cell_k=bx.DIFF_CELL_K_MAX).cell_level
    with pytest.raises(GuardError):
        bx.difference_set(points, cell_k=23)
    with pytest.raises(UsageError):
        bx.difference_set(points, cell_k=-1)


def test_cell_difference_set_rejects_inexact_fft(monkeypatch):
    """Pair counts off an integer by 1/4 or more raise instead of returning cells."""
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: irfft(*a, **kw) + 0.3)
    with pytest.raises(RuntimeError):
        bx.difference_set(pts_of(0, F(1, 3)), cell_k=8)


def test_difference_covering_bound():
    """covering(X-X, k) <= min(2**k, 3 * covering(X, k)**2) on random sets.

    X - X is taken at cell level at scale 2**-11: each pair of occupied coarse
    cells gives at most two difference cells at every k <= 11."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 300))
        points = bx.CirclePoints(rng.integers(0, 1 << 63, n).astype(np.uint64))
        diff = bx.difference_set(points, cell_k=11)
        for k in (2, 5, 8, 11):
            lhs = bx.covering_count(diff.points, k)
            base = bx.covering_count(points, k)
            assert lhs <= min(2**k, 3 * base * base)


# -- minimal interval covers -------------------------------------------------------


def test_minimal_cover_matches_brute_force():
    """200 random sets of <= 12 points against exhaustive anchored covers."""
    rng = random.Random(21)
    mod = 1 << 16
    for _ in range(200):
        n = rng.randint(1, 12)
        vals = sorted(set(rng.randrange(mod) for _ in range(n)))
        delta = rng.randint(1, mod // 2)
        got = bx.minimal_cover_count(np.array(vals, dtype=np.int64), delta, mod)
        want = brute_force_cover(vals, delta, mod)
        assert got == want, (vals, delta, got, want)


def test_minimal_covers_match_brute_force_at_every_delta():
    """The numpy kernel, called directly on sorted distinct int64 values with many
    deltas in shuffled order, gives each delta's own minimal_cover_count and
    brute-force cover; the largest gap and its neighbours are among the deltas."""
    rng = random.Random(8)
    mod = 1 << 14
    for _ in range(60):
        n = rng.randint(1, 10)
        vals = sorted(set(rng.randrange(mod) for _ in range(n)))
        v = np.array(vals, dtype=np.int64)
        gap = _max_gap(vals, mod)
        deltas = [rng.randint(1, mod // 2) for _ in range(5)] + [gap - 1, gap, gap + 1]
        deltas = [min(max(d, 1), mod) for d in deltas]
        rng.shuffle(deltas)
        got = bx._minimal_covers(v, deltas, mod)
        assert got == [bx.minimal_cover_count(v, d, mod) for d in deltas], (vals, deltas)
        assert got == [brute_force_cover(vals, d, mod) for d in deltas], (vals, deltas)


def _max_gap(vals, mod):
    """Largest circular gap of sorted distinct vals (mod when there is one point)."""
    return max((b - a) % mod or mod for a, b in zip(vals, vals[1:] + vals[:1]))


def _sweep_after_largest_gap(vals, delta, mod):
    """One greedy sweep from the point after the largest gap, in plain Python."""
    n = len(vals)
    start = max(range(n), key=lambda i: ((vals[(i + 1) % n] - vals[i]) % mod or mod, -i)) + 1
    line = [vals[(start + i) % n] + (mod if start + i >= n else 0) for i in range(n)]
    count, i = 0, 0
    while i < n:
        count += 1
        reach = line[i] + delta
        while i < n and line[i] <= reach:
            i += 1
    return count


@pytest.mark.parametrize("mod", [1 << 12, 1 << 60])
def test_minimal_cover_gap_branch_matches_brute_force(mod):
    """Some circular gap exceeds delta, so one sweep decides the count."""
    rng = random.Random(31)
    for _ in range(150):
        delta = rng.randint(1, mod // 4)
        lo = rng.randrange(mod)
        span = rng.randint(1, mod - delta - 1)  # leaves a gap > delta
        vals = sorted({(lo + rng.randrange(span)) % mod for _ in range(rng.randint(2, 10))})
        if len(vals) < 2:
            continue
        assert _max_gap(vals, mod) > delta
        got = bx.minimal_cover_count(np.array(vals, dtype=np.int64), delta, mod)
        assert got == brute_force_cover(vals, delta, mod), (vals, delta, mod)


@pytest.mark.parametrize("mod", [1 << 12, 1 << 60])
def test_minimal_cover_lifted_branch_matches_brute_force(mod):
    """No gap exceeds delta, so every anchor is lifted."""
    rng = random.Random(32)
    for _ in range(200):
        vals = sorted({rng.randrange(mod) for _ in range(rng.randint(2, 11))})
        if len(vals) < 2:
            continue
        gap = _max_gap(vals, mod)
        delta = rng.randint(gap, gap + mod // len(vals))
        got = bx.minimal_cover_count(np.array(vals, dtype=np.int64), delta, mod)
        assert got == brute_force_cover(vals, delta, mod), (vals, delta, mod)


@pytest.mark.parametrize("scale", [1, 1 << 55])
@pytest.mark.parametrize(
    "vals, delta, mod",
    [
        ([0, 5, 11, 16, 19, 20, 22], 8, 24),
        ([1, 3, 4, 9, 14, 15, 16, 18, 22], 5, 24),
        ([9, 14, 21, 29, 40, 41, 42, 47, 54, 58], 13, 60),
    ],
)
def test_minimal_cover_lifting_beats_single_sweep(vals, delta, mod, scale):
    """Sets where one greedy sweep overcounts by one, so only the lifting
    over all anchors finds the optimum (also scaled up to the 60-bit grid)."""
    vals, delta, mod = [v * scale for v in vals], delta * scale, mod * scale
    want = brute_force_cover(vals, delta, mod)
    assert _max_gap(vals, mod) <= delta
    assert _sweep_after_largest_gap(vals, delta, mod) == want + 1
    assert bx.minimal_cover_count(np.array(vals, dtype=np.int64), delta, mod) == want


def test_minimal_cover_single_point():
    mod = 1 << 16
    for delta in (1, 7, mod // 2, mod - 1, mod, 3 * mod):
        assert bx.minimal_cover_count(np.array([12345]), delta, mod) == 1


def test_minimal_cover_duplicates_and_order():
    """Unsorted input with repeats counts as its set of distinct values."""
    rng = random.Random(33)
    mod = 1 << 10
    for _ in range(100):
        base = [rng.randrange(mod) for _ in range(rng.randint(1, 8))]
        vals = base + [rng.choice(base) for _ in range(rng.randint(1, 6))]
        rng.shuffle(vals)
        delta = rng.randint(1, mod // 2)
        got = bx.minimal_cover_count(np.array(vals, dtype=np.int64), delta, mod)
        assert got == brute_force_cover(sorted(set(vals)), delta, mod), (vals, delta)


def test_minimal_cover_wraps_past_zero():
    mod = 1 << 16
    # one interval anchored at mod - 2 covers all four points across 0
    assert bx.minimal_cover_count(np.array([mod - 2, mod - 1, 0, 1]), 3, mod) == 1
    assert bx.minimal_cover_count(np.array([mod - 2, mod - 1, 0, 1]), 2, mod) == 2
    rng = random.Random(34)
    for _ in range(150):
        width = rng.randint(1, mod // 8)
        vals = sorted({rng.randint(-width, width) % mod for _ in range(rng.randint(1, 10))})
        delta = rng.randint(1, 2 * width)
        got = bx.minimal_cover_count(np.array(vals, dtype=np.int64), delta, mod)
        assert got == brute_force_cover(vals, delta, mod), (vals, delta)


def test_minimal_cover_delta_at_least_mod():
    mod = 1 << 8
    vals = np.array([0, 3, 100, 200, 255])
    for delta in (mod - 1, mod, mod + 1, 1 << 70):
        assert bx.minimal_cover_count(vals, delta, mod) == 1
    assert bx.minimal_cover_count(vals, mod - 1, mod) == brute_force_cover(list(vals), mod - 1, mod)


@pytest.mark.parametrize(
    "vals, delta, mod",
    [
        ([], 1, 16),                                     # empty
        ([3], 0, 16),                                    # delta not positive
        ([3], 1, 0),                                     # mod not positive
        ([16], 1, 16),                                   # value >= mod
        ([-1, 3], 1, 16),                                # negative value
        (np.array([1 << 63], dtype=np.uint64), 1, 16),   # past int64
        ([1 << 64], 1, 16),                              # not even uint64
        ([0.5], 1, 16),                                  # not an integer
        ([0], 1, 1 << 62),                               # w + delta could pass 2**63
        ([0], 1 << 61, (1 << 62) - 1),                   # 2*mod + delta > 2**63
    ],
)
def test_minimal_cover_rejects_inputs_outside_int64_kernel(vals, delta, mod):
    with pytest.raises(UsageError):
        bx.minimal_cover_count(vals, delta, mod)


def test_minimal_cover_largest_exact_modulus():
    mod = (1 << 63) // 3
    vals = np.array([0, mod // 3, 2 * (mod // 3), mod - 1])
    for delta in (mod // 3 - 1, mod // 3, mod - 1, mod):
        want = brute_force_cover([int(v) for v in vals], delta, mod)
        assert bx.minimal_cover_count(vals, delta, mod) == want


def test_scaled_covering_sides_match_brute_force():
    """lhs and rhs are the brute-force covers of pA and A on the 60-bit grid."""
    rng = np.random.default_rng(35)
    mod = 1 << bx.COVER_BITS
    for _ in range(30):
        n = int(rng.integers(1, 9))
        points = bx.CirclePoints(rng.integers(0, 1 << 63, n).astype(np.uint64) << np.uint64(1))
        grid = sorted({int(v) >> (bx.BITS - bx.COVER_BITS) for v in points.values})
        for k in (1, 2, 4, 6, 9, 12):
            delta = mod >> k
            rhs = brute_force_cover(grid, delta, mod)
            for p in (1, 2, 3, 5, 16):
                if p >= 1 << k:
                    continue
                pa = sorted({p * a % mod for a in grid})
                res = bx.scaled_covering_check(points, p, k)
                assert (res.lhs, res.rhs) == (brute_force_cover(pa, p * delta, mod), rhs)
                assert res.holds == (res.lhs <= res.rhs)


def test_scaled_covering_points_one_grid_step_from_an_interval_end():
    """Points one 2**-60 step either side of the end of the interval [0, delta]:
    both sides are the brute-force covers on the full 60-bit grid, so a check
    that read the points on a coarser grid would merge the two."""
    mod = 1 << bx.COVER_BITS
    for k in (1, 4, 12, 30, 59):
        delta = mod >> k
        grid = [0, delta - 1, delta + 1]
        shift = np.uint64(bx.BITS - bx.COVER_BITS)
        points = bx.CirclePoints(np.array(grid, dtype=np.uint64) << shift)
        for p in (1, 2, 3):
            if p >= 1 << k:
                continue
            pa = sorted({p * a % mod for a in grid})
            res = bx.scaled_covering_check(points, p, k)
            assert (res.lhs, res.rhs) == (brute_force_cover(pa, p * delta, mod),
                                          brute_force_cover(grid, delta, mod)), (k, p, res)


def _one_check_at_a_time(points, p_max, k_max):
    return [bx.scaled_covering_check(points, p, k)
            for k in range(1, k_max + 1) for p in range(1, min(p_max, (1 << k) - 1) + 1)]


def test_scaled_covering_checks_match_the_single_checks():
    """The batch gives scaled_covering_check's result for every (p, k) the recipe
    checks, in the order of k, then p, skipping p >= 2**k."""
    rng = np.random.default_rng(36)
    for _ in range(40):
        n = int(rng.integers(1, 257))
        points = bx.CirclePoints(rng.integers(0, 1 << 63, n).astype(np.uint64) << np.uint64(1))
        p_max, k_max = int(rng.integers(1, 21)), int(rng.integers(1, 13))
        assert list(bx.scaled_covering_checks(points, p_max, k_max)) == \
            _one_check_at_a_time(points, p_max, k_max), (n, p_max, k_max)


@pytest.mark.parametrize("points, p_max, k_max", [
    (pts_of(F(1, 3)), 16, 12),                              # a single point
    (pts_of(*[F(i, 8) for i in range(8)]), 8, 6),           # every gap is 2**-3 = 2 * 2**-4
    (pts_of(0, F(1, 8), F(1, 4), F(1, 2)), 4, 5),          # largest gap 1/2 = delta at k = 1
    (pts_of(0, F(1, 2)), 3, 4),                             # p = 2 collapses pA to {0}
    (pts_of(0, F(1, 2**60), F(3, 2**60), F(1, 3)), 1, 60),  # p = 1 up to k = 59 and 60
    (pts_of(F(1, 5), F(2, 7), F(5, 9)), 1024, 3),           # p_max >= 2**k at every k
])
def test_scaled_covering_checks_special_sets(points, p_max, k_max):
    checks = list(bx.scaled_covering_checks(points, p_max, k_max))
    assert checks == _one_check_at_a_time(points, p_max, k_max)
    assert all(res.holds for res in checks)


def test_scaled_covering_examples():
    # A = {0, 1/2}, p = 2: pA = {0}, 1 <= 2
    res = bx.scaled_covering_check(pts_of(0, F(1, 2)), 2, 4)
    assert res.lhs == 1 and res.rhs == 2 and res.holds
    # single point: 1 <= 1
    res = bx.scaled_covering_check(pts_of(F(1, 3)), 5, 6)
    assert res.lhs == 1 and res.rhs == 1 and res.holds


def test_scaled_covering_precondition():
    with pytest.raises(UsageError):
        bx.scaled_covering_check(pts_of(0), 16, 4)
    with pytest.raises(UsageError, match="p_max"):
        bx.scaled_covering_checks(pts_of(0), 0, 4)


@pytest.mark.parametrize("k", [-1, 0, bx.COVER_BITS + 1])
def test_scaled_covering_scale_outside_the_cover_precision(k):
    """k = 61 used to end in a raw ValueError from a negative shift count."""
    with pytest.raises(UsageError, match=f"k={k} is outside"):
        bx.scaled_covering_check(pts_of(0), 1, k)
    with pytest.raises(UsageError, match=f"k={k} is outside"):
        bx.scaled_covering_checks(pts_of(0), 1, k)


def test_scaled_covering_holds_on_random_sets():
    """The covering inequality is a theorem; a violation is a bug."""
    rng = np.random.default_rng(2)
    for _ in range(60):
        n = int(rng.integers(1, 257))
        points = bx.CirclePoints(rng.integers(0, 1 << 63, n).astype(np.uint64) << np.uint64(1))
        for k in (1, 3, 6, 9, 12):
            for p in (1, 2, 3, 7, 16):
                if p >= (1 << k):
                    continue
                res = bx.scaled_covering_check(points, p, k)
                assert res.holds, (n, p, k, res)


# -- gap profile --------------------------------------------------------------------


def test_gap_profile_single_point():
    prof = bx.gap_profile(pts_of(0), 4)
    assert prof.max_gap == 1
    assert prof.cover_fraction == F(1, 16)


def test_gap_profile_uniform_grid():
    k = 6
    points = pts_of(*[F(i, 1 << k) for i in range(1 << k)])
    prof = bx.gap_profile(points, k)
    assert prof.max_gap == F(1, 1 << k)
    assert prof.cover_fraction == 1
    assert prof.longest_run_cells == 1 << k


def test_gap_profile_wraparound_run():
    # occupied cells 14, 15, 0, 1 at k=4: circular run of 4
    points = pts_of(F(14, 16), F(15, 16), F(0), F(1, 16))
    prof = bx.gap_profile(points, 4)
    assert prof.longest_run_cells == 4


# -- exports --------------------------------------------------------------------------


def test_profile_csv_and_svg(tmp_path):
    # the depth-6 sample of x/2, x/2 + 1/2 from 0 is the 64 points i/64
    halves = ({"ratio": "1/2", "shift": "0"}, {"ratio": "1/2", "shift": "1/2"})
    cfg = ExperimentConfig(kind="boxdim", out_dir=str(tmp_path), ifs=halves, scales=(2, 6),
                           params={"depth": 6})
    assert run_config(cfg).exit_code == 0
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == "k,N,log2N,local_slope"
    assert len(lines) == 6
    assert lines[1] == "2,4,2.0,1.0" and lines[-1] == "6,64,6.0,"
    text = (tmp_path / "plot.svg").read_text()
    assert text.startswith("<svg") and "slope" in text
