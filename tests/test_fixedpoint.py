"""The limb-array point layout and the one accumulation routine.

`fixedpoint.limb_chunks` sums the points of word orbits and reduced orbits,
chunk by chunk (gathered here by `helpers.gathered_points`) and as the
top-limb column `top64`; these tests hold both, and `Orbit.point(k)`, to
the big-int loop they replaced (`helpers.reference_word_orbit`), exactly,
and to an exact `Fraction` recomputation of sum_i N_i(k) alpha_i, within
the orbit's error bound.  Chunks of 7 rows make small orbits cross
several chunk edges.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gathered_points, limb_ints, reference_counts, reference_word_orbit, steps_with_negative_b
from multirot import fixedpoint, table
from multirot.exact.symbolic import builtin_table
from multirot.errors import UsageError
from multirot.fixedpoint import fp_from_fraction, limbs, pack, point_bytes, points_from_bytes
from multirot.orbit import (
    GreedyAvoid,
    PeriodicWord,
    RandomSymbols,
    generate_orbit,
    reduced_orbit,
    steps_from_values,
)

F = Fraction
TABLE = builtin_table()
BITS = [64, 65, 72, 128, 256]
CHUNK = 7


def make_steps(ell: int):
    if ell == 2:
        return steps_from_values(TABLE, ["sqrt2", "sqrt3"])
    return steps_with_negative_b()


def circle_distance(a: Fraction, b: Fraction) -> Fraction:
    d = (a - b) % 1
    return min(d, 1 - d)


def b_bit_ints(bits: int):
    edges = [0, 1, (1 << bits) - 1, 1 << (bits - 1), (1 << 32) - 1, 1 << 32, (1 << (bits - 32)) - 1]
    return st.one_of(st.integers(0, (1 << bits) - 1), st.sampled_from(edges))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), bits=st.sampled_from(BITS), ell=st.integers(2, 4), n=st.integers(0, 5 * CHUNK),
       row_bytes=st.sampled_from([0, 16, 24, 8 * CHUNK]))
def test_accumulate_matches_big_int_loop(data, bits, ell, n, row_bytes):
    """Any B-bit steps, the carry-heavy ones (2**B - 1, 2**32 - 1, ...) included, in
    the chunks of `table.chunk_bounds(n, row_bytes)` (1 to 7 rows here)."""
    values = data.draw(st.lists(b_bit_ints(bits), min_size=ell, max_size=ell))
    omega = np.array(data.draw(st.lists(st.integers(1, ell), min_size=n, max_size=n)),
                     dtype=np.uint8)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(table, "CHUNK_ROWS", CHUNK)
        mp.setattr(table, "CHUNK_BYTES", 8 * CHUNK)
        bounds = [(s, e) for s, e, _ in fixedpoint.limb_chunks(omega, values, bits, row_bytes)]
        assert bounds == list(table.chunk_bounds(n, row_bytes))
        got = gathered_points(omega, values, bits, row_bytes)
    want = reference_word_orbit(omega, values, bits)
    assert got.dtype == np.uint64 and got.shape == (n + 1, limbs(bits))
    assert limb_ints(got, bits) == want
    assert np.array_equal(got, pack(want, bits))
    assert np.array_equal(got[:, 0], np.array([v >> (bits - 64) for v in want], dtype=np.uint64))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(table, "CHUNK_ROWS", CHUNK)
        assert np.array_equal(fixedpoint.top64(omega, values, bits), got[:, 0])


@pytest.mark.parametrize("bits", BITS)
def test_accumulate_full_chunks_of_all_ones(bits):
    """All-ones steps carry out of every limb, over full default-size chunks and three edges."""
    n = 3 * table.CHUNK_ROWS + 5
    omega = np.ones(n, dtype=np.uint8)
    omega[::3] = 2
    values = [(1 << bits) - 1, (1 << bits) - (1 << 31)]
    got = gathered_points(omega, values, bits)
    assert limb_ints(got, bits) == reference_word_orbit(omega, values, bits)


ONES = (1 << 64) - 1


def from_limbs(limb_values, bits: int) -> int:
    """The B-bit integer whose left-aligned limbs are limb_values, its pad bits dropped."""
    v = 0
    for limb in limb_values:
        v = (v << 64) | limb
    return v >> (64 * len(limb_values) - bits)


@pytest.mark.parametrize("bits", [192, 200, 256, 1000])
@pytest.mark.parametrize("seed", range(3))
def test_accumulate_carries_through_all_ones_limbs(monkeypatch, bits, seed):
    """An all-ones step limb that takes a carry in adds 2**64: the limb's running
    value wraps back to itself, and it must still carry out."""
    monkeypatch.setattr(table, "CHUNK_ROWS", CHUNK)
    L = limbs(bits)
    rng = np.random.default_rng(seed)
    values = [
        from_limbs([int(rng.integers(0, 1 << 62))] + [ONES] * (L - 1), bits),  # all-ones limbs below a random top
        from_limbs([ONES] * L, bits),                                            # 2**bits - 1
        from_limbs([0] * (L - 1) + [ONES], bits),                                # carries out of the lowest limb
        from_limbs([int(x) for x in rng.integers(0, 1 << 63, size=L, dtype=np.int64)], bits),
    ]
    omega = rng.integers(1, 5, size=6 * CHUNK + 3, dtype=np.uint8)
    got = gathered_points(omega, values, bits)
    assert limb_ints(got, bits) == reference_word_orbit(omega, values, bits)
    assert np.array_equal(fixedpoint.top64(omega, values, bits), got[:, 0])


@settings(max_examples=60, deadline=None)
@given(bits=st.sampled_from(BITS), ell=st.sampled_from([2, 3]), n=st.integers(1, 4 * CHUNK),
       seed=st.integers(0, 2**32 - 1))
def test_orbits_match_big_int_loop_and_exact_sums(bits, ell, n, seed):
    steps = make_steps(ell)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(table, "CHUNK_ROWS", CHUNK)
        orbit = generate_orbit(steps, RandomSymbols(), n, bits, seed=seed)
        red = reduced_orbit(orbit)
    fp_steps = steps.fixed_point_steps(bits)
    points = limb_ints(gathered_points(orbit.omega, fp_steps, bits), bits)
    assert points == reference_word_orbit(orbit.omega, fp_steps, bits)
    assert orbit.point(n) == points[n]
    deltas = [
        fp_from_fraction(sum((F(steps.p[i][j]) * red.betas_star[j] for j in range(steps.r)), F(0)), bits)
        for i in range(steps.ell)
    ]
    assert red.deltas == tuple(deltas)
    xtilde = limb_ints(gathered_points(red.omega, red.deltas, bits), bits)
    assert xtilde == reference_word_orbit(orbit.omega, deltas, bits)

    counts, bvec = reference_counts(orbit)
    alphas = [a.value() for a in steps.alphas]
    for k in range(n + 1):
        exact = sum((int(counts[k, i]) * alphas[i] for i in range(steps.ell)), F(0))
        assert circle_distance(exact, F(points[k], 1 << bits)) <= orbit.error_bound
        exact_red = sum((int(bvec[k, j]) * red.betas_star[j] for j in range(steps.r)), F(0))
        assert circle_distance(exact_red, F(xtilde[k], 1 << bits)) <= orbit.error_bound


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("ell", [2, 3])
def test_periodic_and_greedy_points_are_the_sums_of_their_words(monkeypatch, bits, ell):
    monkeypatch.setattr(table, "CHUNK_ROWS", CHUNK)
    steps = make_steps(ell)
    fp_steps = steps.fixed_point_steps(bits)
    for strategy in (PeriodicWord((1, 2, 1) if ell == 2 else (1, 3, 2, 2)),
                     GreedyAvoid(F(2, 5), F(3, 5), 8)):
        orbit = generate_orbit(steps, strategy, 6 * CHUNK + 1, bits)
        want = reference_word_orbit(orbit.omega, fp_steps, bits)
        assert limb_ints(gathered_points(orbit.omega, orbit.fp_steps, bits), bits) == want


@pytest.mark.parametrize("bits", [64, 72, 128, 200, 1000])
def test_point_is_the_exact_sum_of_its_steps(bits):
    """Orbit.point(k) for every k, with all-ones steps (2**B - 1, which wraps at
    every step) beside rounded ones, and a UsageError for each k outside 0..n."""
    orbit = generate_orbit(make_steps(3), RandomSymbols(), 200, bits, seed=bits)
    ones = (1 << bits) - 1
    for fp_steps in (orbit.fp_steps, (ones, ones, ones), (ones, orbit.fp_steps[1], 1 << (bits - 1))):
        sums = dataclasses.replace(orbit, fp_steps=fp_steps)
        want = reference_word_orbit(orbit.omega, fp_steps, bits)
        assert [sums.point(k) for k in range(orbit.n + 1)] == want
        assert sums.point_fraction(orbit.n) == F(want[-1], 1 << bits)
    for k in (-1, -orbit.n - 1, orbit.n + 1, 10**30):
        with pytest.raises(UsageError, match="outside 0..200"):
            orbit.point(k)


@pytest.mark.parametrize("bits, nbytes", [(64, 8), (65, 16), (128, 16), (256, 32)])
def test_points_are_limb_arrays_and_top64_is_a_fresh_column(bits, nbytes):
    steps = make_steps(2)
    orbit = generate_orbit(steps, RandomSymbols(), 1000, bits, seed=4)
    red = reduced_orbit(orbit)
    for omega, values, top in ((orbit.omega, orbit.fp_steps, orbit.top64()),
                               (red.omega, red.deltas, red.top64())):
        seq = gathered_points(omega, values, bits)
        assert seq.dtype == np.uint64 and seq.nbytes == nbytes * 1001
        assert top.dtype == np.uint64 and top.shape == (1001,)
        assert top.flags.owndata and top.flags.writeable
        assert np.array_equal(top, seq[:, 0])
    assert all(int(orbit.top64()[k]) == orbit.point(k) >> (bits - 64) for k in range(0, 1001, 97))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), bits=st.sampled_from(BITS + [8, 136, 200]), m=st.integers(0, 3 * CHUNK))
def test_point_bytes_round_trip(data, bits, m):
    values = data.draw(st.lists(b_bit_ints(bits) if bits > 32 else st.integers(0, (1 << bits) - 1),
                                min_size=m, max_size=m))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(table, "CHUNK_ROWS", CHUNK)
        points = pack(values, bits)
    nbytes = -(-bits // 8)
    raw = point_bytes(points.T, bits)
    assert raw.shape == (m, nbytes)
    assert raw.tobytes() == b"".join(v.to_bytes(nbytes, "big") for v in values)
    assert limb_ints(points, bits) == values
    if bits % 8 == 0:
        assert np.array_equal(points_from_bytes(raw, bits), points)
