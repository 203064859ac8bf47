"""The limb-array point layout and the one accumulation routine.

`fixedpoint.accumulate` builds word orbits and reduced orbits; these tests
hold it to the big-int loop it replaced (`helpers.reference_word_orbit`),
exactly, and to an exact `Fraction` recomputation of sum_i N_i(k) alpha_i,
within the orbit's error bound.  Chunks of 7 rows make small orbits cross
several chunk edges.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_word_orbit, steps_with_negative_b
from multirot import fixedpoint, table
from multirot.exact.symbolic import builtin_table
from multirot.fixedpoint import fp_from_fraction, limbs, pack, point_bytes, points_from_bytes, to_int
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


def make_steps(ell: int, bits: int):
    if ell == 2:
        return steps_from_values(TABLE, ["sqrt2", "sqrt3"], bits)
    return steps_with_negative_b(bits)


def circle_distance(a: Fraction, b: Fraction) -> Fraction:
    d = (a - b) % 1
    return min(d, 1 - d)


def b_bit_ints(bits: int):
    edges = [0, 1, (1 << bits) - 1, 1 << (bits - 1), (1 << 32) - 1, 1 << 32, (1 << (bits - 32)) - 1]
    return st.one_of(st.integers(0, (1 << bits) - 1), st.sampled_from(edges))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), bits=st.sampled_from(BITS), ell=st.integers(2, 4), n=st.integers(0, 5 * CHUNK))
def test_accumulate_matches_big_int_loop(data, bits, ell, n):
    """Any B-bit steps, the carry-heavy ones (2**B - 1, 2**32 - 1, ...) included."""
    values = data.draw(st.lists(b_bit_ints(bits), min_size=ell, max_size=ell))
    omega = np.array(data.draw(st.lists(st.integers(1, ell), min_size=n, max_size=n)),
                     dtype=np.uint8)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(table, "CHUNK_ROWS", CHUNK)
        got = fixedpoint.accumulate(omega, values, bits)
    want = reference_word_orbit(omega, values, bits)
    assert got.dtype == np.uint64 and got.shape == (n + 1, limbs(bits))
    assert [to_int(row, bits) for row in got] == want
    assert np.array_equal(got, pack(want, bits))
    assert np.array_equal(got[:, 0], np.array([v >> (bits - 64) for v in want], dtype=np.uint64))


@pytest.mark.parametrize("bits", BITS)
def test_accumulate_full_chunks_of_all_ones(bits):
    """The largest sub-limb sums a default-size chunk can reach, across three chunk edges."""
    n = 3 * table.CHUNK_ROWS + 5
    omega = np.ones(n, dtype=np.uint8)
    omega[::3] = 2
    values = [(1 << bits) - 1, (1 << bits) - (1 << 31)]
    got = fixedpoint.accumulate(omega, values, bits)
    assert [to_int(row, bits) for row in got] == reference_word_orbit(omega, values, bits)


@settings(max_examples=60, deadline=None)
@given(bits=st.sampled_from(BITS), ell=st.sampled_from([2, 3]), n=st.integers(1, 4 * CHUNK),
       seed=st.integers(0, 2**32 - 1))
def test_orbits_match_big_int_loop_and_exact_sums(bits, ell, n, seed):
    steps = make_steps(ell, bits)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(table, "CHUNK_ROWS", CHUNK)
        orbit = generate_orbit(steps, RandomSymbols(), n, bits, seed=seed)
        red = reduced_orbit(orbit)
    fp_steps = steps.fixed_point_steps(bits)
    assert [orbit.point(k) for k in range(n + 1)] == reference_word_orbit(orbit.omega, fp_steps, bits)
    deltas = [
        fp_from_fraction(sum((F(steps.p[i][j]) * red.betas_star[j] for j in range(steps.r)), F(0)), bits)
        for i in range(steps.ell)
    ]
    assert [to_int(row, bits) for row in red.xtilde] == reference_word_orbit(orbit.omega, deltas, bits)

    counts, bvec = orbit.counts(), orbit.bvec()
    alphas = [a.value() for a in steps.alphas]
    for k in range(n + 1):
        exact = sum((int(counts[k, i]) * alphas[i] for i in range(steps.ell)), F(0))
        assert circle_distance(exact, orbit.point_fraction(k)) <= orbit.error_bound
        exact_red = sum((int(bvec[k, j]) * red.betas_star[j] for j in range(steps.r)), F(0))
        got_red = F(to_int(red.xtilde[k], bits), 1 << bits)
        assert circle_distance(exact_red, got_red) <= orbit.error_bound


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("ell", [2, 3])
def test_periodic_and_greedy_points_are_the_sums_of_their_words(monkeypatch, bits, ell):
    monkeypatch.setattr(table, "CHUNK_ROWS", CHUNK)
    steps = make_steps(ell, bits)
    fp_steps = steps.fixed_point_steps(bits)
    for strategy in (PeriodicWord((1, 2, 1) if ell == 2 else (1, 3, 2, 2)),
                     GreedyAvoid(F(2, 5), F(3, 5), 8)):
        orbit = generate_orbit(steps, strategy, 6 * CHUNK + 1, bits)
        want = reference_word_orbit(orbit.omega, fp_steps, bits)
        assert [orbit.point(k) for k in range(orbit.n + 1)] == want
        assert np.array_equal(orbit.points, fixedpoint.accumulate(orbit.omega, fp_steps, bits))


@pytest.mark.parametrize("bits, nbytes", [(64, 8), (65, 16), (128, 16), (256, 32)])
def test_points_are_limb_arrays_and_top64_is_a_view(bits, nbytes):
    steps = make_steps(2, bits)
    orbit = generate_orbit(steps, RandomSymbols(), 1000, bits, seed=4)
    assert orbit.points.dtype == np.uint64 and orbit.points.nbytes == nbytes * 1001
    red = reduced_orbit(orbit)
    for seq, top in ((orbit.points, orbit.top64()), (red.xtilde, red.top64())):
        assert top.dtype == np.uint64 and top.shape == (1001,)
        assert np.shares_memory(top, seq)
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
    raw = point_bytes(points, bits)
    assert raw.shape == (m, nbytes)
    assert raw.tobytes() == b"".join(v.to_bytes(nbytes, "big") for v in values)
    assert [to_int(row, bits) for row in points] == values
    if bits % 8 == 0:
        assert np.array_equal(points_from_bytes(raw, bits), points)
