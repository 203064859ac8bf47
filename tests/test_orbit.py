"""Orbit generation, counting sequences, reduction, and serialization."""

from __future__ import annotations

import hashlib
import os
import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    gathered_points,
    limb_ints,
    random_basis,
    reference_counts,
    reference_greedy_orbit,
    reference_orbit_csv,
    reference_reduced_differences,
    reference_tau_statistics,
    reference_word_orbit,
    steps_with_negative_b,
)
from multirot import table
from multirot.cli.config import ExperimentConfig
from multirot.cli.runner import run_config
from multirot.errors import GuardError, UsageError
from multirot.fixedpoint import pack
from multirot.exact.symbolic import SymbolicReal, builtin_table
from multirot.orbit import (
    ExplicitWord,
    GreedyAvoid,
    PeriodicWord,
    RandomSymbols,
    build_step_system,
    generate_orbit,
    read_orb1,
    reduced_orbit,
    steps_from_values,
    tau_discrepancy,
    write_orb1,
    write_orbit_csv,
)
from multirot.orbit.generate import MAX_B, MAX_ELL, MAX_ORBIT_BITS, MAX_ORBIT_N
from multirot.orbit.io import HEADER

F = Fraction
TABLE = builtin_table()
CHUNK = 7  # rows per chunk in the chunked-path tests, so that small orbits span several


def steps_sqrt23():
    return steps_from_values(TABLE, ["sqrt2", "sqrt3"])


# -- step systems -------------------------------------------------------------


def test_expansion_reproduces_steps_exactly():
    rng = random.Random(31)
    for _ in range(100):
        r = rng.randint(0, 3)
        table = random_basis(rng, r)
        ell = rng.randint(1, 4)
        alphas = []
        for _ in range(ell):
            coeffs = {f"b{j}": F(rng.randint(-4, 4), rng.randint(1, 3)) for j in range(r)}
            alphas.append(SymbolicReal(table, F(rng.randint(-3, 3), rng.randint(1, 4)), coeffs))
        steps = build_step_system(alphas)  # asserts reconstruction internally
        assert 0 <= steps.r <= r
        assert steps.lam <= steps.r + 1
        for qi in steps.q:
            assert isinstance(qi, F)
        for row in steps.p:
            assert all(isinstance(x, int) for x in row)


def test_fixed_point_steps_match_symbolic_values():
    steps = steps_sqrt23()
    for alpha, fp in zip(steps.alphas, steps.fixed_point_steps(128)):
        assert abs(F(fp, 1 << 128) - alpha.frac()) < F(1, 1 << 127)


def test_rational_steps_have_r_zero():
    steps = steps_from_values(TABLE, [F(1, 4), F(1, 4)])
    assert steps.r == 0 and steps.lam == 1
    assert steps.m_coeff == 0


# -- generation ----------------------------------------------------------------


def test_quarter_steps_cycle():
    steps = steps_from_values(TABLE, [F(1, 4), F(1, 4)])
    orbit = generate_orbit(steps, RandomSymbols(), 4, 128, seed=5)
    expected = [F(0), F(1, 4), F(1, 2), F(3, 4), F(0)]
    got = [orbit.point_fraction(k) for k in range(5)]
    assert got == expected


def test_word_orbit_hits_sqrt2_plus_sqrt3():
    steps = steps_sqrt23()
    orbit = generate_orbit(steps, ExplicitWord((1, 2)), 2, 128)
    x2 = orbit.point(2) / 2**128
    assert abs(x2 - 0.14626436994197234233) < 1e-12


def test_random_orbit_deterministic_given_seed():
    steps = steps_sqrt23()
    a = generate_orbit(steps, RandomSymbols(), 500, 128, seed=99)
    b = generate_orbit(steps, RandomSymbols(), 500, 128, seed=99)
    assert np.array_equal(a.omega, b.omega)
    assert np.array_equal(gathered_points(a.omega, a.fp_steps, 128), gathered_points(b.omega, b.fp_steps, 128))
    c = generate_orbit(steps, RandomSymbols(), 500, 128, seed=100)
    assert not np.array_equal(a.omega, c.omega)


def test_explicit_word_too_short_errors():
    steps = steps_sqrt23()
    with pytest.raises(UsageError):
        generate_orbit(steps, ExplicitWord((1, 2)), 3, 128)


def test_random_without_seed_errors():
    steps = steps_sqrt23()
    with pytest.raises(UsageError):
        generate_orbit(steps, RandomSymbols(), 10, 128)


def test_bits_guard():
    steps = steps_sqrt23()
    with pytest.raises(UsageError):
        generate_orbit(steps, ExplicitWord((1,) * 4), 4, 32)


@pytest.mark.parametrize("ell", [1, MAX_ELL + 1])
def test_step_count_guard(ell):
    """Symbols are bytes, so an orbit takes 2 to 255 steps."""
    steps = steps_from_values(TABLE, [F(1, i + 2) for i in range(ell)])
    for strategy in (RandomSymbols(), GreedyAvoid(F(1, 3), F(1, 2))):
        with pytest.raises(UsageError, match=f"needs 2 to {MAX_ELL} steps, got {ell}"):
            generate_orbit(steps, strategy, 10, 128, seed=1)


def test_stepping_consistency_invariant():
    """|frac(x_n + alpha) - x_{n+1}| <= 2**(-B+2), exactly in Fractions."""
    steps = steps_sqrt23()
    orbit = generate_orbit(steps, RandomSymbols(), 300, 128, seed=3)
    tol = F(1, 1 << 126)
    alpha_fracs = [a.value() for a in steps.alphas]
    x = [F(v, 1 << 128) for v in limb_ints(gathered_points(orbit.omega, orbit.fp_steps, 128), 128)]
    for k in range(orbit.n):
        sym = int(orbit.omega[k]) - 1
        exact_next = (x[k] + alpha_fracs[sym]) % 1
        diff = abs(exact_next - x[k + 1])
        assert min(diff, 1 - diff) <= tol


def test_symbolic_recomputation_of_prefixes():
    """x_n recomputed as sum N_i(n) alpha_i mod 1 stays within n * 2**(-B+2)."""
    rng = random.Random(8)
    steps = steps_sqrt23()
    orbit = generate_orbit(steps, RandomSymbols(), 2000, 128, seed=17)
    counts = reference_counts(orbit)[0]
    for _ in range(100):
        k = rng.randint(1, orbit.n)
        exact = sum(
            (int(counts[k][i]) * steps.alphas[i].value() for i in range(steps.ell)),
            F(0),
        ) % 1
        diff = abs(exact - orbit.point_fraction(k))
        assert min(diff, 1 - diff) <= F(k, 1 << 126)


def csv_count_rows(orbit, tmp_path) -> list[list[int]]:
    """The N_1..N_ell, b_1..b_r cells of each row of the orbit's results.csv."""
    path = tmp_path / "orbit.csv"
    write_orbit_csv(orbit, path)
    return [[int(c) for c in line.split(",")[3:]] for line in path.read_text().splitlines()[1:]]


def test_b_increments_match_p_exactly(tmp_path, monkeypatch):
    monkeypatch.setattr(table, "CHUNK_ROWS", CHUNK)
    steps = steps_with_negative_b()
    orbit = generate_orbit(steps, RandomSymbols(), 400, 128, seed=23)
    b = [row[steps.ell:] for row in csv_count_rows(orbit, tmp_path)]
    assert b[0] == [0] * steps.r
    for k in range(orbit.n):
        sym = int(orbit.omega[k]) - 1
        assert [b[k + 1][j] - b[k][j] for j in range(steps.r)] == list(steps.p[sym])


def test_counts_sum_to_n(tmp_path, monkeypatch):
    monkeypatch.setattr(table, "CHUNK_ROWS", CHUNK)
    steps = steps_sqrt23()
    orbit = generate_orbit(steps, RandomSymbols(), 250, 128, seed=1)
    rows = csv_count_rows(orbit, tmp_path)
    assert [sum(row[:steps.ell]) for row in rows] == list(range(orbit.n + 1))


def test_rational_orbits_take_few_values():
    """All-rational steps: at most lcm(denominators) distinct orbit values.

    Counted on the exact rational sequence sum N_i q_i mod 1; the raw
    fixed-point integers sit within the documented drift of those values
    (floor rounding accumulates one-sidedly) and are checked against them.
    """
    rng = random.Random(55)
    for _ in range(40):
        ell = rng.randint(2, 3)
        qs = [F(rng.randint(0, 11), rng.randint(1, 12)) for _ in range(ell)]
        steps = steps_from_values(TABLE, qs)
        bound = lcm(*(q.denominator for q in qs))
        n = 6 * bound
        orbit = generate_orbit(steps, RandomSymbols(), n, 128, seed=rng.randint(0, 10**6))
        counts = reference_counts(orbit)[0]
        exact = {
            sum((int(counts[k][i]) * qs[i] for i in range(ell)), F(0)) % 1
            for k in range(n + 1)
        }
        assert len(exact) <= bound
        drift = F(n, 1 << 126)
        for k in range(0, n + 1, max(1, n // 17)):
            x = orbit.point_fraction(k)
            best = min(min((x - v) % 1, (v - x) % 1) for v in exact)
            assert best <= drift


# -- tau -----------------------------------------------------------------------


def test_tau_alternating_word():
    steps = steps_sqrt23()
    orbit = generate_orbit(steps, PeriodicWord((1, 2)), 1000, 128)
    rep = tau_discrepancy(orbit, bound=2, samples=2000)
    assert rep.tau_estimate == F(1, 2)
    assert rep.max_dev_half_toward_zero == 0
    assert rep.max_dev_integer_part <= 1
    assert rep.max_pair_defect <= 1 and rep.below_bound


def test_tau_constant_word():
    steps = steps_sqrt23()
    orbit = generate_orbit(steps, PeriodicWord((1,)), 500, 128)
    rep = tau_discrepancy(orbit)
    assert rep.tau_estimate == 0
    assert rep.max_pair_defect == 0
    assert rep.max_dev_half_toward_zero == 0


def test_tau_random_word_defect_grows():
    """The fair-coin case: the defect is positive (no bound asserted)."""
    steps = steps_sqrt23()
    orbit = generate_orbit(steps, RandomSymbols(), 10_000, 128, seed=12)
    rep = tau_discrepancy(orbit, samples=4000)
    assert rep.max_pair_defect >= 1
    assert 0.4 < float(rep.tau_estimate) < 0.6


def test_tau_requires_two_steps():
    steps = steps_from_values(TABLE, ["sqrt2", "sqrt3", "sqrt5"])
    orbit = generate_orbit(steps, RandomSymbols(), 100, 128, seed=4)
    with pytest.raises(UsageError):
        tau_discrepancy(orbit)


@pytest.mark.parametrize("chunk", [1, 7, 1 << 12])
@pytest.mark.parametrize(
    "strategy, n, seed",
    [
        (RandomSymbols(), 1, 3),
        (RandomSymbols(), 2, 3),
        (RandomSymbols(), 20, 3),
        (RandomSymbols(), 5000, 5),
        (PeriodicWord((1, 2, 2)), 301, None),
        (PeriodicWord((2,)), 30, None),
    ],
)
def test_tau_chunked_deviations_match_whole_arrays(monkeypatch, chunk, strategy, n, seed):
    """The chunked pass reports the whole-array maxima and pair defect, for
    chunks that do and do not divide n, and sampled indices in every chunk."""
    monkeypatch.setattr(table, "CHUNK_ROWS", chunk)
    orbit = generate_orbit(steps_sqrt23(), strategy, n, 128, seed=seed)
    samples = min(64, n)
    rep = tau_discrepancy(orbit, samples=samples, seed=n)
    got = (rep.max_dev_half_toward_zero, rep.max_dev_integer_part, rep.max_pair_defect)
    assert got == reference_tau_statistics(orbit, samples, seed=n)


def test_orbit_length_guard():
    steps = steps_sqrt23()
    with pytest.raises(GuardError):
        generate_orbit(steps, PeriodicWord((1, 2)), MAX_ORBIT_N + 1, 128)


@pytest.mark.parametrize("n, bits", [(1, MAX_ORBIT_BITS + 1), (19531, 65536), (10**6, 1344)])
def test_orbit_bits_and_limb_bytes_guard(n, bits):
    """The limb array may take no more than MAX_ORBIT_N points take at 128 bits."""
    with pytest.raises(GuardError):
        generate_orbit(steps_sqrt23(), PeriodicWord((1, 2)), n, bits)


# -- reduced orbit ----------------------------------------------------------------


def test_reduced_orbit_identity_when_q_zero():
    steps = steps_sqrt23()
    orbit = generate_orbit(steps, RandomSymbols(), 300, 128, seed=2)
    red = reduced_orbit(orbit)
    assert np.array_equal(gathered_points(red.omega, red.deltas, 128),
                          gathered_points(orbit.omega, orbit.fp_steps, 128))
    assert reference_reduced_differences(orbit, red) == {F(0)}


def test_reduced_orbit_half_shift_case():
    """alpha_1 = sqrt2, alpha_2 = 1/2, word 21: x~_2 = frac(sqrt2), diff 1/2."""
    steps = steps_from_values(TABLE, ["sqrt2", F(1, 2)])
    assert steps.r == 1
    orbit = generate_orbit(steps, ExplicitWord((2, 1)), 2, 128)
    red = reduced_orbit(orbit, shift_index=0)
    sqrt2_frac = TABLE.symbol("sqrt2").frac()
    xtilde2 = F(limb_ints(gathered_points(red.omega, red.deltas, 128), 128)[2], 1 << 128)
    assert abs(xtilde2 - sqrt2_frac) < F(1, 1 << 120)
    diff = (orbit.point_fraction(2) - xtilde2) % 1
    assert min(abs(diff - F(1, 2)), abs(1 - diff - F(1, 2))) < F(1, 1 << 120)
    assert reference_reduced_differences(orbit, red) == {F(0), F(1, 2)}


def test_reduced_orbit_difference_set_size_bound():
    """x - x~ takes at most lcm of the q* denominators values (exact recomputation)."""
    rng = random.Random(19)
    for _ in range(100):
        table = random_basis(rng, 1)
        ell = rng.randint(2, 3)
        alphas = []
        for _ in range(ell):
            coeffs = {"b0": F(rng.randint(-2, 2))}
            alphas.append(SymbolicReal(table, F(rng.randint(0, 5), rng.randint(1, 6)), coeffs))
        steps = build_step_system(alphas)
        if steps.r == 0:
            continue
        orbit = generate_orbit(steps, RandomSymbols(), 200, 128, seed=rng.randint(0, 999))
        red = reduced_orbit(orbit)
        diffs = reference_reduced_differences(orbit, red)
        assert len(diffs) <= lcm(*(q.denominator for q in red.qstar))
        # the exact set matches the fixed-point differences within tolerance
        tol = F(orbit.n + 4, 1 << 120)
        xtilde = limb_ints(gathered_points(red.omega, red.deltas, 128), 128)
        for k in range(0, orbit.n + 1, 37):
            diff = (orbit.point_fraction(k) - F(xtilde[k], 1 << 128)) % 1
            best = min(min(abs(diff - d), abs(1 - abs(diff - d))) for d in diffs)
            assert best <= tol


def test_reduced_orbit_requires_irrational_part():
    steps = steps_from_values(TABLE, [F(1, 4), F(1, 2)])
    orbit = generate_orbit(steps, RandomSymbols(), 50, 128, seed=6)
    with pytest.raises(UsageError):
        reduced_orbit(orbit)


# -- greedy strategy ---------------------------------------------------------------


def test_greedy_empty_forbidden_prefers_symbol_one_then_revisits():
    steps = steps_sqrt23()
    orbit = generate_orbit(steps, GreedyAvoid(), 50, 128)
    assert int(orbit.omega[0]) == 1  # fresh cells tie, symbol index breaks it


def test_greedy_rule_application_first_step():
    """Steps (1/4, 1/2), forbidden (0.6, 0.9), x=0: both candidates allowed,
    fresh-cell tie, so symbol 1."""
    steps = steps_from_values(TABLE, [F(1, 4), F(1, 2)])
    orbit = generate_orbit(steps, GreedyAvoid(F(6, 10), F(9, 10)), 1, 128)
    assert int(orbit.omega[0]) == 1
    assert orbit.point_fraction(1) == F(1, 4)


def test_greedy_avoids_interval_for_sqrt_pair():
    """Candidates differ by sqrt3 - sqrt2 > 0.2, so a 0.2 interval is avoidable."""
    steps = steps_sqrt23()
    lo, hi = F(4, 10), F(6, 10)
    orbit = generate_orbit(steps, GreedyAvoid(lo, hi), 20_000, 128)
    points = limb_ints(gathered_points(orbit.omega, orbit.fp_steps, 128), 128)
    violations = [
        k for k in range(1, orbit.n + 1) if lo < F(points[k], 1 << 128) < hi
    ]
    assert violations == []


def test_greedy_deterministic():
    steps = steps_sqrt23()
    a = generate_orbit(steps, GreedyAvoid(F(1, 3), F(1, 2)), 500, 128)
    b = generate_orbit(steps, GreedyAvoid(F(1, 3), F(1, 2)), 500, 128)
    assert np.array_equal(a.omega, b.omega)


GREEDY_SYSTEMS = {
    "sqrt": steps_sqrt23,
    "ell3": steps_with_negative_b,
    # rational steps land on interval ends drawn with small denominators
    "eighths": lambda: steps_from_values(TABLE, [F(1, 4), F(3, 8)]),
}


def cell_windows(data, bits, cell_bits):
    """Open intervals placed against the cells of the score table: (lo, hi) whose
    forbidden points start and stop on cell edges, both ends inside one cell (cell
    0 among them), and the wrapped one that leaves free only part of one cell."""
    one, size = 1 << bits, 1 << (bits - cell_bits)
    cell, other = (data.draw(st.integers(0, (1 << cell_bits) - 1)) * size for _ in range(2))
    u, w = sorted(data.draw(st.integers(0, size - 1)) for _ in range(2))
    return {"edges": (F(cell - 1, one) % 1, F(other, one)),
            "one cell": (F(cell + u, one), F(cell + w, one)),
            "all but one cell": (F(cell + w, one), F(cell + u, one))}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), bits=st.sampled_from([64, 72, 128, 256, 1000]),
       system=st.sampled_from(sorted(GREEDY_SYSTEMS)),
       cell_bits=st.sampled_from([1, 4, 12, 20, 0, 24]),
       interval=st.sampled_from(["empty", "plain", "wrapped", "degenerate",
                                 "edges", "one cell", "all but one cell"]),
       n=st.integers(1, 6 * CHUNK))
def test_greedy_matches_the_tuple_ranked_loop(data, bits, system, cell_bits, interval, n):
    """Every symbol and every limb of the greedy orbit, across chunk edges of 7 rows;
    1000 bits sums 16 limb columns, so the carries cross many limbs."""
    ends = st.fractions(0, 1, max_denominator=16).filter(lambda f: f < 1)
    if interval in ("empty", "plain", "wrapped", "degenerate"):
        a, b = sorted([data.draw(ends), data.draw(ends)])
        lo, hi = {"empty": (None, None), "plain": (a, b), "wrapped": (b, a),
                  "degenerate": (a, a)}[interval]
    else:
        lo, hi = cell_windows(data, bits, cell_bits)[interval]
    strategy = GreedyAvoid(lo, hi, cell_bits)
    steps = GREEDY_SYSTEMS[system]()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(table, "CHUNK_ROWS", CHUNK)
        orbit = generate_orbit(steps, strategy, n, bits)
    omega, points = reference_greedy_orbit(strategy, steps.fixed_point_steps(bits), n, bits)
    assert orbit.omega.dtype == np.uint8 and orbit.omega.tolist() == omega
    assert np.array_equal(gathered_points(orbit.omega, orbit.fp_steps, bits), pack(points, bits))


@pytest.mark.parametrize("ell", [2, 3])
def test_greedy_takes_symbol_one_when_every_candidate_is_forbidden_and_new(monkeypatch, ell):
    """From x_0 = 0 every step lands in (1/100, 99/100) and in a fresh 2**-20 cell."""
    monkeypatch.setattr(table, "CHUNK_ROWS", CHUNK)
    steps = steps_sqrt23() if ell == 2 else steps_with_negative_b()
    strategy = GreedyAvoid(F(1, 100), F(99, 100), 20)
    assert all(F(1, 100) < a.value() % 1 < F(99, 100) for a in steps.alphas)
    orbit = generate_orbit(steps, strategy, 3 * CHUNK, 128)
    assert int(orbit.omega[0]) == 1
    omega, points = reference_greedy_orbit(strategy, steps.fixed_point_steps(128), 3 * CHUNK, 128)
    assert orbit.omega.tolist() == omega
    assert np.array_equal(gathered_points(orbit.omega, orbit.fp_steps, 128), pack(points, 128))


# -- serialization -----------------------------------------------------------------


def test_orb1_roundtrip(tmp_path):
    steps = steps_sqrt23()
    orbit = generate_orbit(steps, RandomSymbols(), 64, 128, seed=21)
    path = tmp_path / "orbit.orb1"
    write_orb1(orbit, path)
    raw = read_orb1(path)
    assert raw["ell"] == 2 and raw["r"] == 2 and raw["bits"] == 128 and raw["n"] == 64
    assert np.array_equal(raw["omega"], orbit.omega)
    assert np.array_equal(raw["points"], gathered_points(orbit.omega, orbit.fp_steps, 128))
    with open(path, "rb") as fh:
        assert fh.read(4) == b"ORB1"


def orb1_with(tmp_path, *, cut=0, extra=b"", bits=None):
    """A 10-point ORB1 file, cut short, extended or with its bits field rewritten."""
    orbit = generate_orbit(steps_sqrt23(), RandomSymbols(), 10, 128, seed=21)
    path = tmp_path / "orbit.orb1"
    write_orb1(orbit, path)
    data = bytearray(path.read_bytes())
    if bits is not None:
        data[12:16] = bits.to_bytes(4, "little")
    path.write_bytes(bytes(data[:len(data) - cut]) + extra)
    return path


@pytest.mark.parametrize("change", [
    {"cut": 40}, {"cut": 1}, {"cut": 16 * 11}, {"cut": 16 * 11 + 10}, {"extra": b"\0"},
    {"bits": 100}, {"bits": 56}, {"bits": 0}, {"bits": 136},
])
def test_read_orb1_rejects_malformed_files(tmp_path, change):
    """A truncated file used to read as zero points: 11 points ending [..., 0, 0]."""
    path = orb1_with(tmp_path, **change)
    with pytest.raises(UsageError):
        read_orb1(path)


@pytest.mark.parametrize("bits", [0, 8, 56])
def test_read_orb1_rejects_consistent_files_below_64_bits(tmp_path, bits):
    """The body has the right length for its header; the bits are still too few."""
    n = 3
    path = tmp_path / "x.orb1"
    path.write_bytes(HEADER.pack(b"ORB1", 2, 2, bits, n) + bytes(n + (n + 1) * (bits // 8)))
    with pytest.raises(UsageError):
        read_orb1(path)


@pytest.mark.parametrize("head", [b"", b"ORB1", b"ORB2" + bytes(20)])
def test_read_orb1_rejects_short_or_foreign_headers(tmp_path, head):
    path = tmp_path / "x.orb1"
    path.write_bytes(head)
    with pytest.raises(UsageError):
        read_orb1(path)


def test_read_orb1_accepts_the_untouched_file(tmp_path):
    raw = read_orb1(orb1_with(tmp_path))
    assert raw["n"] == 10 and raw["points"].shape == (11, 2)


def test_orb1_requires_byte_aligned_bits(tmp_path):
    steps = steps_sqrt23()
    orbit = generate_orbit(steps, RandomSymbols(), 4, 65, seed=2)
    with pytest.raises(UsageError):
        write_orb1(orbit, tmp_path / "x.orb1")


def test_orbit_csv_columns(tmp_path):
    steps = steps_sqrt23()
    orbit = generate_orbit(steps, ExplicitWord((1, 2, 1)), 3, 128)
    path = tmp_path / "orbit.csv"
    write_orbit_csv(orbit, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,omega,x_hex,N_1,N_2,b_1,b_2"
    assert lines[1].startswith("0,,000000")
    assert len(lines) == 5
    assert lines[2].split(",")[1] == "1"


@pytest.mark.parametrize("bits", [64, 65, 72, 128, 256])
@pytest.mark.parametrize("n", [1, CHUNK - 2, CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK, 50])
def test_orbit_csv_matches_row_writer(tmp_path, monkeypatch, bits, n):
    """The rows after row 0 end just before, at and just after chunk boundaries."""
    monkeypatch.setattr(table, "CHUNK_ROWS", CHUNK)
    orbit = generate_orbit(steps_sqrt23(), RandomSymbols(), n, bits, seed=n)
    path = tmp_path / "orbit.csv"
    write_orbit_csv(orbit, path)
    assert path.read_bytes() == reference_orbit_csv(orbit)


@pytest.mark.parametrize("chunk", [CHUNK, 1 << 16])
def test_orbit_csv_negative_b_and_three_symbols(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(table, "CHUNK_ROWS", chunk)
    orbit = generate_orbit(steps_with_negative_b(), RandomSymbols(), 300, 128, seed=5)
    b = reference_counts(orbit)[1]
    assert b.min() < 0 < b[:, 0].max()
    path = tmp_path / "orbit.csv"
    write_orbit_csv(orbit, path)
    assert path.read_bytes() == reference_orbit_csv(orbit)
    assert any(cell.startswith("-") for line in path.read_text().splitlines()[1:]
               for cell in line.split(",")[-2:])


def test_orbit_csv_rational_steps_have_no_b_columns(tmp_path, monkeypatch):
    monkeypatch.setattr(table, "CHUNK_ROWS", CHUNK)
    steps = steps_from_values(TABLE, [F(1, 4), F(1, 3)])
    orbit = generate_orbit(steps, RandomSymbols(), 20, 128, seed=2)
    path = tmp_path / "orbit.csv"
    write_orbit_csv(orbit, path)
    assert path.read_bytes() == reference_orbit_csv(orbit)
    assert path.read_text().splitlines()[0] == "n,omega,x_hex,N_1,N_2"


LABELS = ("sqrt2", "sqrt3", "sqrt5")
# entries near MAX_B / n for n = 1, CHUNK and 5 * CHUNK, of either sign
BIG_ENTRIES = [s * (MAX_B // k + d) for k in (1, CHUNK, 5 * CHUNK) for d in (-1, 0) for s in (1, -1)]


@st.composite
def signed_steps(draw):
    """ell in 2..4 steps over r <= 3 labels with drawn signed integer coefficients,
    some near the b_j guard, and rational parts."""
    ell = draw(st.integers(2, 4))
    r = draw(st.integers(1, len(LABELS)))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**62), 2**62), st.sampled_from(BIG_ENTRIES))
    alphas = []
    for _ in range(ell):
        coeffs = draw(st.lists(entry, min_size=r, max_size=r))
        q = draw(st.fractions(0, 1, max_denominator=12))
        alphas.append(sum((TABLE.symbol(l, c) for l, c in zip(LABELS, coeffs)), TABLE.real(q)))
    return build_step_system(alphas)


@settings(max_examples=200, deadline=None)
@given(steps=signed_steps(), n=st.integers(1, 5 * CHUNK), bits=st.sampled_from([64, 72, 128]),
       seed=st.integers(0, 2**32 - 1))
def test_chunked_count_columns_match_whole_arrays(tmp_path_factory, steps, n, bits, seed):
    """N_i and b_j cells, computed a chunk at a time from a carried row, are the
    whole-array counts byte for byte, across chunk edges; an orbit whose b_j
    could pass int64 is refused."""
    path = tmp_path_factory.mktemp("csv") / "orbit.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(table, "CHUNK_ROWS", CHUNK)
        orbit = generate_orbit(steps, RandomSymbols(), n, bits, seed=seed)
        if max((abs(x) for row in steps.p for x in row), default=0) * n > MAX_B:
            with pytest.raises(GuardError):
                write_orbit_csv(orbit, path)
            return
        write_orbit_csv(orbit, path)
    assert path.read_bytes() == reference_orbit_csv(orbit)


@pytest.mark.parametrize("coeff, n, refused", [
    (MAX_B, 1, False), (2**62, 1, False), (2**62, 2, True), (MAX_B, 2, True), (10**20, 1, True),
])
def test_orbit_csv_refuses_b_columns_past_int64(tmp_path, coeff, n, refused):
    steps = steps_from_values(TABLE, ["sqrt2", TABLE.symbol("sqrt2", -coeff) + TABLE.symbol("sqrt3")])
    assert max(abs(x) for row in steps.p for x in row) == coeff
    orbit = generate_orbit(steps, PeriodicWord((2,)), n, 128)
    path = tmp_path / "orbit.csv"
    if refused:
        with pytest.raises(GuardError, match="b_j columns"):
            write_orbit_csv(orbit, path)
    else:
        write_orbit_csv(orbit, path)
        assert path.read_bytes() == reference_orbit_csv(orbit)
        assert path.read_text().splitlines()[-1].endswith(f",{-coeff},1")


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, 3 * CHUNK + 2])
def test_orb1_chunked_points_match_one_by_one(tmp_path, monkeypatch, n):
    monkeypatch.setattr(table, "CHUNK_ROWS", CHUNK)
    orbit = generate_orbit(steps_with_negative_b(), RandomSymbols(), n, 72, seed=n)
    path = tmp_path / "orbit.orb1"
    write_orb1(orbit, path)
    raw = path.read_bytes()
    points = b"".join(x.to_bytes(9, "little") for x in reference_word_orbit(orbit.omega, orbit.fp_steps, 72))
    assert raw.endswith(orbit.omega.tobytes() + points)
    assert len(raw) == 24 + n + len(points)


INT64_EDGES = sorted(
    {0, -(2**63), 2**63 - 1, -(2**63) + 1}
    | {s * (10**k + d) for k in range(19) for d in (-1, 0, 1) for s in (1, -1)}
)


def encode_ints(values, dtype=np.int64) -> str:
    return table.encode_rows([np.array(values, dtype=dtype)]).tobytes().decode("ascii")


def test_int_cells_edge_values():
    assert encode_ints(INT64_EDGES) == "".join(f"{v}\n" for v in INT64_EDGES)
    assert encode_ints([-(2**63)]) == "-9223372036854775808\n"
    top = [0, 9, 10, 2**63, 2**64 - 1]
    assert encode_ints(top, np.uint64) == "".join(f"{v}\n" for v in top)
    assert encode_ints([3, 200], np.uint8) == "3\n200\n"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from(INT64_EDGES)),
                min_size=1, max_size=40))
def test_int_cells_match_str(values):
    got = table.encode_rows([np.array(values, dtype=np.int64), np.array(values[::-1], dtype=np.int64)])
    want = "".join(f"{a},{b}\n" for a, b in zip(values, values[::-1]))
    assert got.tobytes().decode("ascii") == want


@pytest.mark.parametrize("bad", [np.array([1.5]), np.array([[1, 2]]), np.array(["7"])])
def test_int_cells_reject_non_integer_input(bad):
    with pytest.raises(UsageError):
        table.encode_rows([bad])


# (dtype, least value, greatest value) of the integer columns below
INT_KINDS = {
    "int64": (np.int64, -(2**63), 2**63 - 1),
    "uint64": (np.uint64, 0, 2**64 - 1),
    "uint8": (np.uint8, 0, 255),
    "int16": (np.int16, -(2**15), 2**15 - 1),
}


@st.composite
def integer_column(draw, rows):
    """A column of one dtype whose values cluster so that a chunk's cells are
    often, but not always, of one width."""
    kind, lo, hi = INT_KINDS[draw(st.sampled_from(sorted(INT_KINDS)))]
    digits = draw(st.integers(1, len(str(hi))))
    near = st.integers(max(lo, -(10**digits)), min(hi, 10**digits))
    edges = st.sampled_from([v for v in INT64_EDGES + [2**64 - 1] if lo <= v <= hi])
    values = draw(st.lists(st.one_of(near, edges, st.integers(lo, hi)), min_size=rows, max_size=rows))
    return np.array(values, dtype=kind)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data(), rows=st.integers(1, 12), bits=st.sampled_from([None, 64, 65, 66, 67, 72, 128]))
def test_encode_rows_matches_str_and_format(data, rows, bits):
    """Every cell of several integer columns, and a hex column, is its str() or format()."""
    ints = data.draw(st.lists(integer_column(rows), min_size=1, max_size=5))
    columns = list(ints)
    texts = [[str(int(v)) for v in col] for col in ints]
    if bits is not None:
        values = data.draw(st.lists(st.integers(0, 2**bits - 1), min_size=rows, max_size=rows))
        nbytes = -(-bits // 8)
        raw = np.frombuffer(b"".join(v.to_bytes(nbytes, "big") for v in values), dtype=np.uint8)
        at = data.draw(st.integers(0, len(columns)))
        columns.insert(at, (raw.reshape(rows, nbytes), bits))
        texts.insert(at, [format(v, f"0{(bits + 3) // 4}x") for v in values])
    want = "".join(",".join(row) + "\n" for row in zip(*texts))
    assert table.encode_rows(columns).tobytes().decode("ascii") == want


@pytest.mark.parametrize("first", [9_999 - 4_090, 99_999 - 4_090, -10_000 - 5, -2_050, 10**18 - 4_000])
def test_encode_rows_digit_count_changes_mid_chunk(first):
    """A cell width that changes inside a chunk, in the first and the last column."""
    values = np.arange(first, first + table.CHUNK_ROWS, dtype=np.int64)
    got = table.encode_rows([values, values % 7, values[::-1]]).tobytes().decode("ascii")
    want = [f"{a},{a % 7},{b}" for a, b in zip(values.tolist(), values[::-1].tolist())]
    assert got.split("\n") == want + [""]


def test_orbit_csv_at_full_chunks_crosses_five_digit_row_numbers(tmp_path):
    """n = 20000 at the real CHUNK_ROWS: row 10000 sits inside a chunk, where n
    goes from four digits to five."""
    orbit = generate_orbit(steps_sqrt23(), RandomSymbols(), 20_000, 128, seed=8)
    path = tmp_path / "orbit.csv"
    write_orbit_csv(orbit, path)
    assert path.read_bytes() == reference_orbit_csv(orbit)


@pytest.mark.parametrize("row_bytes, rows", [(0, 4096), (159, 4096), (1153, 3637), (2**23, 1)])
def test_chunk_bounds_hold_chunks_to_chunk_bytes(row_bytes, rows):
    assert (table.CHUNK_ROWS, table.CHUNK_BYTES) == (4096, 2**22)
    bounds = list(table.chunk_bounds(5000, row_bytes))
    assert bounds[0] == (0, rows) and bounds[-1][1] == 5000
    assert all(e - s == rows for s, e in bounds[:-1])


def test_wide_orbit_files_in_byte_bounded_chunks(tmp_path):
    """At 16384 bits a CSV chunk has 988 rows and an ORB1 chunk 2048: both files span chunks."""
    orbit = generate_orbit(steps_with_negative_b(), RandomSymbols(), 2500, 16384, seed=9)
    write_orbit_csv(orbit, tmp_path / "orbit.csv")
    assert (tmp_path / "orbit.csv").read_bytes() == reference_orbit_csv(orbit)
    write_orb1(orbit, tmp_path / "orbit.orb1")
    back = read_orb1(tmp_path / "orbit.orb1")
    assert np.array_equal(back["points"], gathered_points(orbit.omega, orbit.fp_steps, 16384))
    assert np.array_equal(back["omega"], orbit.omega)


def test_minimum_bits_orbit_and_roundtrip(tmp_path):
    steps = steps_sqrt23()
    orbit = generate_orbit(steps, ExplicitWord((1, 2, 2, 1)), 4, 64)
    assert orbit.bits == 64
    assert np.array_equal(orbit.top64(), np.array([orbit.point(k) for k in range(5)], dtype=np.uint64))
    path = tmp_path / "o64.orb1"
    write_orb1(orbit, path)
    assert np.array_equal(read_orb1(path)["points"], gathered_points(orbit.omega, orbit.fp_steps, 64))


def test_greedy_wraparound_forbidden_interval():
    """Forbidden (0.9, 0.1) wraps through 0; the orbit stays out of it."""
    steps = steps_sqrt23()
    lo, hi = F(9, 10), F(1, 10)
    orbit = generate_orbit(steps, GreedyAvoid(lo, hi), 5000, 128)
    points = limb_ints(gathered_points(orbit.omega, orbit.fp_steps, 128), 128)
    for k in range(1, orbit.n + 1):
        x = F(points[k], 1 << 128)
        assert not (x > lo or x < hi), (k, x)


# sha256 of the artifacts of small orbit runs, recorded with the big-int orbit
# loops that `fixedpoint.limb_chunks` replaced; they must not change.
PINNED_RUNS = {
    "random128": (
        dict(kind="orbit", seed=7, bits=128, steps=("sqrt2", "sqrt3"),
             strategy={"type": "random"}, n=3000),
        {"results.csv": "50ff561e7a7fe6b9b632d1cf789e3a9beb736f7cd37e920f95c0fdf7eb77481e",
         "orbit.orb1": "0127689a6d5a48c32ee66085bcbc45a0c01993064adcc67742d94f94025dc3ea",
         "summary.json": "46c81e76f933f5602269a69bff334401e246b67de43ebdaa33e25f4a52acc86e"},
    ),
    "periodic128": (
        dict(kind="orbit", bits=128, steps=("sqrt2", "sqrt3"),
             strategy={"type": "periodic", "word": "1121"}, n=2500),
        {"results.csv": "2bc2f5321e015904a649eed36a4351d43e3ce4369b6dbd887f7d377d159e8152",
         "orbit.orb1": "41fd3ba4502ee796efc2e8c684b17a1d09a63571069c5c554904acf4b0fbcc09",
         "summary.json": "5b5e1cc3890eec774f07023afc9471aeb2431a773c9b2fbd8102962c23c91671"},
    ),
    "greedy128": (
        dict(kind="orbit", bits=128, steps=("sqrt2", "sqrt3"),
             strategy={"type": "greedy_avoid", "lo": "0.4", "hi": "0.6", "cell_bits": 12}, n=3000),
        {"results.csv": "fd6bd184199072efcd680b780cf6428b82e8392931987517e3d151cd2ad110e1",
         "orbit.orb1": "64bf9265eebbaa674a45a70767ea95948ccc10c5867f0f3e2f291802e9162cb5",
         "summary.json": "88c6efa48229d6ecd63f347d71f9cec5ef4acc1216da017e267759a8719898f1"},
    ),
    "random72": (
        dict(kind="orbit", seed=3, bits=72, steps=("sqrt2", "sqrt3"),
             strategy={"type": "random"}, n=3000),
        {"results.csv": "c2ef0c11aee8271216bf5f6a1b27211a65475b40cbec289d0800c988de2fdf44",
         "orbit.orb1": "d0d7a74138b4b524bf35c29942f7d505323c4884f45c9a740d0cbcda0756de57",
         "summary.json": "09f6a054740e4047e20de3c2bed92d9128e38930725e3928217e6f00231b77ff"},
    ),
    "ell3_256": (
        dict(kind="orbit", seed=5, bits=256, steps=("sqrt2-sqrt3", "-sqrt2", "1/3"),
             strategy={"type": "random"}, n=2000),
        {"results.csv": "e800e46eacd505d1c86b15abfc58d585bc05dd66275fc81e4ef0d7c0291cdf5f",
         "orbit.orb1": "43f594b95efafdb639ac48f22a0690f479db9c00a477eae62c51f84231114a00",
         "summary.json": "cf3e22a912e9a411817aff1a8209eb33b00a8cfcd99f6baf1d2fa384bce71f21"},
    ),
    "separation128": (
        dict(kind="diophantine", seed=9, bits=128, steps=("sqrt2", "sqrt3"),
             strategy={"type": "random"}, n=3000, params={"op": "separation", "k_max": 50}),
        {"results.csv": "77da909ff6c05952659f76e90eea3a862dd1a89c54ea8e0f3af15a6b45005ebc",
         "summary.json": "a45c1b0d9dbbc095759e9e877982c16705fd8330b14d7cad3cb52b39eb1952a7"},
    ),
    "separation72_ell3": (
        dict(kind="diophantine", seed=4, bits=72, steps=("sqrt2-sqrt3", "-sqrt2", "1/3"),
             strategy={"type": "random"}, n=3000, params={"op": "separation", "k_max": 50}),
        {"results.csv": "591473a82805c044a42dd459d9e2b10dfe7f65207bb5f8c6ab5e13b11865a824",
         "summary.json": "a45c1b0d9dbbc095759e9e877982c16705fd8330b14d7cad3cb52b39eb1952a7"},
    ),
}


CANTOR_MAPS = ({"ratio": "1/3", "shift": "0"}, {"ratio": "1/3", "shift": "2/3"})

# sha256 of the artifacts of small runs of the other kinds and recipes,
# recorded when each recipe still had its own CSV writer and every file was
# renamed into place alone; staged runs and the one table writer keep them.
PINNED_KIND_RUNS = {
    "boxdim_ifs": (
        dict(kind="boxdim", ifs=CANTOR_MAPS, scales=(2, 8), params={"depth": 7}),
        {"plot.svg": "ddaef85df72539e75b31f2637de1759f4a9c704e9025467717033814ba1969f0",
         "results.csv": "8cc319aa83814ce681b72cd684390f54f3f0b60b47ccceae7138053cd9079ee7",
         "summary.json": "2b435b37373d2a5d92ee25866868e11017e305343e057f148695bf090719b1d4"},
    ),
    "boxdim_orbit": (
        dict(kind="boxdim", seed=2, steps=("sqrt2", "sqrt3"), strategy={"type": "random"},
             n=2000, scales=(4, 10)),
        {"plot.svg": "562c9d376e63f9f05a50488e973889306f0ac7ac786d5ae47821165e2a893a67",
         "results.csv": "9a98c894fef05293c834ff4869e758a9a7753f8f6fc4c43fd149b9aa6be17074",
         "summary.json": "6b7c698b354c6d119878905f5733bf0760fad1571161f371b13205494544cae7"},
    ),
    "embed": (
        dict(kind="embed", params={"n_max": 8, "depth": 5}),
        {"results.csv": "bcbe32fd05a74f49fa8c1fd72d1d8f689430a3629bf9553e4ab54b96022c068b",
         "summary.json": "31bc230e257de19d256d85f3ae44ef06e4666e2b651b1067b8b4b923d81b4a62"},
    ),
    "trace_ratio_bounds": (
        dict(kind="verify-theorem", params={"theorem": "trace-ratio-bounds", "n_max": 8, "depth": 5}),
        {"results.csv": "bcbe32fd05a74f49fa8c1fd72d1d8f689430a3629bf9553e4ab54b96022c068b",
         "summary.json": "003c629730f7502dceeef03e33ed59af5b6a38db5305909503624b32ddefba6f"},
    ),
    "ifs": (
        dict(kind="ifs", ifs=CANTOR_MAPS, params={"depth": 4, "sample_depth": 5}),
        {"results.csv": "9a8f5774049e5e68be101b5dc468dbd17aef4af94b9a104bd80de6c63cd4b009",
         "summary.json": "6afc45ab7b3497b0950b474d9004baa2917236c3d6692e62f77469c9916c1cf5"},
    ),
    "rank": (
        dict(kind="rank", params={"values": ["sqrt2", "1+2*sqrt2", "1/3"], "include_one": True}),
        {"results.csv": "b55914e9ffc385a4d21c196b789f8c81a55a23afa7937de163e9b03bf1dfdd8e",
         "summary.json": "ef633527bdba8651b85ad16f2082ab4a8b1bdf89481b532ef92291974c8b7d6a"},
    ),
    "independence": (
        dict(kind="independence", steps=("sqrt2", "sqrt3", "sqrt2+sqrt3")),
        {"results.csv": "df20b94673cd4e62ae3cd4f3f176900e653c8da010c6008090399aa96b24202b",
         "summary.json": "e0ee57646dfd7c26113f0d32cb93d155754c20949b99f9729e9990234eea0681"},
    ),
    "pigeonhole": (
        dict(kind="diophantine", n=50, params={"betas": ["sqrt2", "sqrt3"], "m": 2}),
        {"results.csv": "792ad8417adccf77032019b27afb73f0577f203472da885f0ee8bbca588b05f7",
         "summary.json": "828bc56586b7095fca1f7f95b1ad1b711a04f44ad8dfff7f9be21936574299cf"},
    ),
    "dimension_threshold": (
        dict(kind="verify-theorem",
             params={"theorem": "dimension-threshold", "ell_max": 4, "lam_max": 3}),
        {"results.csv": "6c3f704500745b1cda5162dde28ba174422e54fa582d8fe717910f44f35f163c",
         "summary.json": "8c11aff53253a0620ec4b53ecdef336b762d8040ba565d80abb4ea33e1d1212d"},
    ),
    "scaled_covering": (
        dict(kind="verify-theorem", seed=3, params={"theorem": "scaled-covering", "trials": 4,
                                                    "max_points": 40, "p_max": 5, "k_max": 6}),
        {"results.csv": "fe8be8f2f9745c71800def82aa079c553b0e32866039a37fc727e4829168096f",
         "summary.json": "205741d40cc15b696b75a0125267b25b7676f87414f356c316e60a22ba045dd3"},
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_KIND_RUNS))
def test_small_kind_artifacts_match_pinned_hashes(tmp_path, name):
    config, hashes = PINNED_KIND_RUNS[name]
    out = tmp_path / name
    result = run_config(ExperimentConfig(out_dir=str(out), **config))
    assert result.exit_code == 0, result.summary
    assert sorted(os.listdir(out)) == sorted(hashes)
    for artifact, digest in hashes.items():
        assert hashlib.sha256((out / artifact).read_bytes()).hexdigest() == digest, artifact


@pytest.mark.parametrize("chunk", [CHUNK, table.CHUNK_ROWS])
@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_small_orbit_artifacts_match_pinned_hashes(tmp_path, monkeypatch, name, chunk):
    monkeypatch.setattr(table, "CHUNK_ROWS", chunk)
    config, hashes = PINNED_RUNS[name]
    out = tmp_path / name
    result = run_config(ExperimentConfig(out_dir=str(out), **config))
    assert result.exit_code == 0, result.summary
    assert sorted(os.listdir(out)) == sorted(hashes)
    for artifact, digest in hashes.items():
        assert hashlib.sha256((out / artifact).read_bytes()).hexdigest() == digest, artifact
