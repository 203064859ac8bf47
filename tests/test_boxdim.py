"""Covering counts, dimension estimates, difference sets, interval covers."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_cover, pairwise_cell_differences
from multirot import boxdim as bx
from multirot.errors import GuardError, UsageError
from multirot.exact.symbolic import builtin_table
from multirot.orbit import RandomSymbols, generate_orbit, steps_from_values

F = Fraction


def pts_of(*fracs):
    return bx.CirclePoints.from_fractions([F(x) if not isinstance(x, F) else x for x in fracs])


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


def test_covering_count_empty_set_errors():
    with pytest.raises(UsageError):
        bx.CirclePoints(np.array([], dtype=np.uint64))


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
    est = bx.box_dim_estimate(bx.covering_profile(bx.CirclePoints.from_fractions(points), 4, 12))
    assert abs(est.slope_global - 0.6309297535714574) < 0.03


def test_estimate_needs_four_scales():
    with pytest.raises(UsageError):
        bx.box_dim_estimate(bx.covering_profile(pts_of(0, F(1, 2)), 3, 5))


# -- difference sets -------------------------------------------------------------


def test_difference_set_pair():
    diff = bx.difference_set(pts_of(0, F(1, 4)))
    got = sorted(F(int(v), 1 << 64) for v in diff.points.values)
    assert got == [F(0), F(1, 4), F(3, 4)]
    assert not diff.cell_level


def test_difference_set_contains_zero():
    rng = np.random.default_rng(9)
    points = bx.CirclePoints(rng.integers(0, 1 << 63, 100).astype(np.uint64))
    diff = bx.difference_set(points)
    assert 0 in diff.points.values


def test_difference_set_cell_level_flagged():
    rng = np.random.default_rng(10)
    points = bx.CirclePoints(rng.integers(0, 1 << 63, 20000).astype(np.uint64))
    diff = bx.difference_set(points, exact_limit=4096)
    assert diff.cell_level and diff.k == 12
    assert diff.cell_count <= 1 << 12


def test_difference_set_exact_path_matches_np_unique():
    rng = np.random.default_rng(12)
    values = rng.integers(0, 2**64, 300, dtype=np.uint64, endpoint=False)
    values[:20] = values[20:40]  # repeats
    points = bx.CirclePoints(values)
    diff = bx.difference_set(points)
    v = points.values
    assert not diff.cell_level
    assert np.array_equal(diff.points.values, np.unique(v[None, :] - v[:, None]))


def test_difference_set_exact_path_blocks_match_pairwise():
    """Above 2**11 points the exact path takes several blocks of rows; on a
    2**-14 grid the differences are grid points, marked pair by pair."""
    rng = np.random.default_rng(13)
    grid = rng.choice(1 << 14, 2100, replace=False)
    points = bx.CirclePoints(grid.astype(np.uint64) << np.uint64(50))
    diff = bx.difference_set(points)
    want = pairwise_cell_differences(grid, 14).astype(np.uint64) << np.uint64(50)
    assert not diff.cell_level
    assert np.array_equal(diff.points.values, want)


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
    steps = steps_from_values(builtin_table(), ["sqrt2", "sqrt3"], 128)
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
    """covering(X-X, k) <= min(2**k, 3 * covering(X, k)**2) on random sets."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 300))
        points = bx.CirclePoints(rng.integers(0, 1 << 63, n).astype(np.uint64))
        diff = bx.difference_set(points)
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


def test_minimal_cover_pure_python_fallback():
    """The numpy kernel, called directly on sorted distinct int64 values, agrees too."""
    rng = random.Random(8)
    mod = 1 << 14
    for _ in range(60):
        n = rng.randint(1, 10)
        vals = sorted(set(rng.randrange(mod) for _ in range(n)))
        delta = rng.randint(1, mod // 2)
        got = bx._minimal_cover(np.array(vals, dtype=np.int64), delta, mod)
        assert got == brute_force_cover(vals, delta, mod)


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
    points = pts_of(*[F(i, 64) for i in range(64)])
    profile = bx.covering_profile(points, 2, 6)
    csv = tmp_path / "profile.csv"
    bx.write_profile_csv(profile, csv)
    lines = csv.read_text().splitlines()
    assert lines[0] == "k,N,log2N,local_slope"
    assert len(lines) == 6
    svg = tmp_path / "plot.svg"
    bx.write_profile_svg(profile, svg)
    text = svg.read_text()
    assert text.startswith("<svg") and "slope" in text
