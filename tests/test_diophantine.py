"""Pigeonhole approximation and the separation diagnostic."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_min_k,
    random_basis,
    reference_returns,
    reference_scan_minimal,
    reference_separation,
)
from multirot import diophantine, table
from multirot.diophantine import check_k_space, kxn_separation, norm_dist, pigeonhole_approx
from multirot.errors import GuardError, UsageError
from multirot.exact.symbolic import builtin_table
from multirot.fixedpoint import fp_from_fraction, pack
from multirot.orbit import RandomSymbols, generate_orbit, reduced_orbit, steps_from_values
from multirot.orbit.generate import MAX_ORBIT_BITS

F = Fraction
TABLE = builtin_table()
SQRT2 = TABLE.symbol("sqrt2").value()


def test_norm_dist_examples():
    assert norm_dist(F(1, 4)) == F(1, 4)
    assert norm_dist(F(3)) == 0
    assert norm_dist(F(-6, 10)) == F(4, 10)
    assert norm_dist(0.25) == 0.25
    assert norm_dist(3.0) == 0.0


def test_norm_dist_symmetry_and_periodicity():
    rng = random.Random(3)
    for _ in range(300):
        x = F(rng.randint(-500, 500), rng.randint(1, 97))
        z = rng.randint(-5, 5)
        assert norm_dist(x) == norm_dist(-x) == norm_dist(x + z)
        assert 0 <= norm_dist(x) <= F(1, 2)


def test_pigeonhole_sqrt2_small_cases():
    res = pigeonhole_approx([SQRT2], 1, 2)
    assert res.k == 1 and res.path == "scan" and res.minimal
    res = pigeonhole_approx([SQRT2], 1, 3)
    assert res.k == 2
    assert all(a <= res.bound() for a in res.achieved)


def test_pigeonhole_rational_beta():
    res = pigeonhole_approx([F(1, 2)], 1, 4)
    assert res.k == 2 and res.achieved == (F(0),)


def test_pigeonhole_guards():
    with pytest.raises(GuardError, match="bucket path's guard"):
        pigeonhole_approx([SQRT2] * 5, 3, 200)  # (mn)^r + 1 beyond 2**40
    with pytest.raises(UsageError):
        pigeonhole_approx([SQRT2], 1000, 1000, bits=16)
    with pytest.raises(UsageError, match="bits too small"):
        pigeonhole_approx([SQRT2], 1, 4, bits=0)  # used to end in a negative shift count
    # the slack 2**(4 - bits) grew without bound: 10**9 bits took 4 s and 670 MB
    with pytest.raises(GuardError, match=f"bits=1000000000 exceeds the guard of {MAX_ORBIT_BITS}"):
        pigeonhole_approx([SQRT2], 1, 4, bits=10**9)
    with pytest.raises(GuardError):
        check_k_space(1, 4, 1, MAX_ORBIT_BITS + 1)
    assert pigeonhole_approx([SQRT2], 1, 4, bits=MAX_ORBIT_BITS).k >= 1


def test_pigeonhole_bits_rule_is_two_to_the_bits_minus_four_above_mn():
    """One rule, in check_k_space, for the library and the config: 2**(bits - 4) > mn."""
    assert pigeonhole_approx([SQRT2], 1, 15, bits=8).k >= 1
    for m, n, bits in ((1, 16, 8), (4, 4, 8), (1, 1, 4), (1, 1, 0), (1, 1, -3)):
        with pytest.raises(UsageError, match="bits too small"):
            check_k_space(m, n, 1, bits)
    assert check_k_space(1, 1, 1, 5) == 2


def test_pigeonhole_bucket_path_guard():
    """Past MAX_BUCKET_K_SPACE the bucket path is refused before its loop; the
    scan path, when the scan budget covers the k-space, is not."""
    limit = diophantine.MAX_BUCKET_K_SPACE
    with pytest.raises(GuardError):
        pigeonhole_approx([SQRT2], 1, limit, scan_budget=1)
    with pytest.raises(GuardError):
        pigeonhole_approx([SQRT2], 1, 10**8)  # past the default scan budget too
    assert pigeonhole_approx([SQRT2], 1, limit, scan_budget=limit + 1).path == "scan"


def test_pigeonhole_matches_brute_force_and_bounds():
    """Random declared bases: scan k is the brute-force minimum, the bound
    (mn)^r + 1 holds, and doubled-precision re-evaluation stays in bounds."""
    rng = random.Random(12)
    for _ in range(100):
        r = rng.randint(1, 3)
        basis = random_basis(rng, r)
        betas = [basis.value(f"b{j}") for j in range(r)]
        m = rng.choice([1, 2, 3])
        n = rng.randint(1, 24 if r < 3 else 12)
        res = pigeonhole_approx(betas, m, n)
        assert res.k <= (m * n) ** r + 1
        assert res.k == brute_force_min_k(betas, res.bound(), res.k_space())
        slack = F(1, 1 << 252)
        for b in betas:
            v = F(fp_from_fraction((res.k * b) % 1, 256), 1 << 256)
            assert min(v, 1 - v) <= res.bound() + slack


def test_pigeonhole_bucket_path():
    rng = random.Random(5)
    basis = random_basis(rng, 2)
    betas = [basis.value("b0"), basis.value("b1")]
    res = pigeonhole_approx(betas, 3, 40, scan_budget=1000)
    assert res.path == "bucket" and not res.minimal
    assert res.k <= res.k_space()
    assert all(a <= res.bound() + F(1, 1 << 124) for a in res.achieved)


# -- the return walk of the scan path ------------------------------------------

@pytest.mark.parametrize("mod", range(1, 25))
def test_first_in_matches_brute_force(mod):
    """Every f < mod and every range [lo, hi] in [1, mod): the least x, or None."""
    for f in range(mod):
        hits = [f * x % mod for x in range(mod + 1)]
        for lo in range(1, mod):
            for hi in range(lo, mod):
                want = next((x for x, h in enumerate(hits) if lo <= h <= hi), None)
                assert diophantine._first_in(f, lo, hi, mod) == want


STEP_EDGES = [0, 1, 2, 3, 2**63, 2**63 - 1, 2**63 + 1, 2**64 - 1, 2**64 - 2, 3 << 62, 5 << 60]
steps_64 = st.one_of(
    st.sampled_from(STEP_EDGES),
    st.integers(0, 2**64 - 1),
    st.integers(1, 1000),                                   # near 0
    st.integers(2**64 - 1000, 2**64 - 1),                   # near 2**64
    st.builds(lambda odd, z: (odd << z) % 2**64,            # many trailing zero bits
              st.integers(1, 2**20).map(lambda x: 2 * x + 1), st.integers(40, 63)),
)
thresholds = st.one_of(
    st.integers(1, 2**63 - 1),
    st.integers(1, 2**40),
    st.sampled_from([1, 2, 2**62, 2**62 + 1, 2**63 - 2, 2**63 - 1]),
    st.integers(2, 64).map(lambda d: 2**64 // d // 2),      # about 1/(2d) of the circle
)


@settings(max_examples=300, deadline=None)
@given(f=steps_64, thr=thresholds, k_max=st.integers(1, 20_000))
def test_return_walk_matches_the_linear_screen(f, thr, k_max):
    """The walk yields exactly the screen's survivors, in increasing order."""
    assert list(diophantine._returns(f, thr, k_max)) == reference_returns(f, thr, k_max)


def rational_betas(mn):
    """0, 1/2 and p/q with q <= mn, p of either sign."""
    return st.one_of(
        st.sampled_from([F(0), F(1, 2), F(-1, 2), F(1)]),
        st.integers(1, mn).flatmap(lambda q: st.integers(-2 * q, 2 * q).map(lambda p: F(p, q))),
    )


@st.composite
def pigeonhole_cases(draw):
    r = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    n = draw(st.one_of(st.integers(1, 2), st.integers(1, 40 if r < 3 else 12)))
    declared = st.integers(0, 10**55 - 1).map(lambda num: F(num, 10**55))
    betas = [draw(st.one_of(declared, rational_betas(m * n))) for _ in range(r)]
    return betas, m, n


@settings(max_examples=200, deadline=None)
@given(case=pigeonhole_cases())
def test_pigeonhole_k_matches_the_linear_scan(case):
    """Declared and rational betas in every position, mn <= 2 included: the least k
    equals the linear scan's and the brute-force minimum."""
    betas, m, n = case
    res = pigeonhole_approx(betas, m, n)
    assert res.path == "scan" and res.minimal
    assert res.k == reference_scan_minimal(betas, res.bound(), res.k_space())
    assert res.k == brute_force_min_k(betas, res.bound(), res.k_space())


@pytest.mark.parametrize("first, other", [
    (F(0), SQRT2), (F(1, 2), SQRT2), (F(0), F(3, 2000) + F(1, 10**40)),
])
def test_the_walk_skips_a_short_period(monkeypatch, first, other):
    """0 or 1/2 ahead of a beta with longer return steps: the walk takes the other
    beta (for 3/2000 + 10**-40 both smaller steps are 1 and the larger decides), and
    k is the linear scan's."""
    walked = []
    walk = diophantine._returns
    monkeypatch.setattr(diophantine, "_returns", lambda f, *args: walked.append(f) or walk(f, *args))
    res = pigeonhole_approx([first, other], 1, 1000)
    assert walked == [fp_from_fraction(other, 64)]
    assert res.k == reference_scan_minimal([first, other], res.bound(), res.k_space())


def test_separation_zero_sequence():
    report = kxn_separation(pack([0] * 50, 128)[:, 0].copy, 1, 10)
    assert all(row.sup_norm == 0 for row in report.rows)
    assert report.flagged() == list(range(1, 11))


def test_separation_rational_orbit():
    """x~_n = n/7: k = 7 kills it, k = 1 reaches 3/7."""
    bits = 128
    seq = pack([fp_from_fraction(F(n, 7), bits) for n in range(70)], bits)
    report = kxn_separation(seq[:, 0].copy, 1, 7)
    by_k = {row.k: row for row in report.rows}
    assert by_k[7].sup_norm < 1e-12
    assert abs(by_k[1].sup_norm - 3 / 7) < 1e-9


def test_separation_on_reduced_orbit():
    steps = steps_from_values(TABLE, ["sqrt2", "sqrt3"])
    orbit = generate_orbit(steps, RandomSymbols(), 20_000, 128, seed=9)
    red = reduced_orbit(orbit)
    report = kxn_separation(red.top64, 1, 100)
    assert report.flagged() == []  # all maxima clear 1/5 comfortably


def test_separation_empty_errors():
    with pytest.raises(UsageError):
        kxn_separation(np.zeros(0, dtype=np.uint64).copy, 1, 5)


@pytest.mark.parametrize("seq", [[0] * 5, np.zeros(5, dtype=np.int64), np.zeros((5, 2), dtype=np.uint64)])
def test_separation_rejects_anything_but_64_bit_points(seq):
    """Big-int lists, signed arrays and whole limb arrays are not 64-bit points."""
    with pytest.raises(UsageError):
        kxn_separation(seq.copy, 1, 5)


def separation_rows(report):
    return [(row.k, row.sup_norm, row.n_argmax) for row in report.rows]


CHUNK = 7  # rows per chunk of the first-index pass, so that short sequences span several

# 2**63 is the largest norm, 1/2; 0 and its neighbours give the smallest
UINT64_EDGES = [0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**62, 3 * 2**62, 2**32]


def target_floor(k: int, j: int) -> int:
    """floor((2**63 + j 2**64) / k): ||k x|| is 1/2 at the target itself."""
    return ((1 << 63) + j * (1 << 64)) // k


# the integers nearest the targets of each k <= 16, where the maxima lie
TARGET_NEIGHBOURS = st.integers(1, 16).flatmap(lambda k: st.builds(
    lambda j, d: (target_floor(k, j) + d) % 2**64, st.integers(0, k - 1), st.integers(-1, 1)))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(UINT64_EDGES),
                                 TARGET_NEIGHBOURS), min_size=1, max_size=40),
       copies=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39), st.booleans()), max_size=8),
       k_min=st.integers(1, 6), k_span=st.integers(0, 10))
def test_separation_matches_full_length_scan(values, copies, k_min, k_span):
    """Ties, edge values and the neighbours of the targets; a copied value ties with
    itself and a mirrored one, 2**64 - v, with v for every k, so the first index must
    break ties on both sides of one target and across targets.  At CHUNK rows a chunk
    of the first-index pass, tied winners repeat across chunks, and most chunks hold
    no winner."""
    for src, dst, mirror in copies:
        v = values[src % len(values)]
        values[dst % len(values)] = (2**64 - v) % 2**64 if mirror else v
    top = np.array(values, dtype=np.uint64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(table, "CHUNK_ROWS", CHUNK)
        report = kxn_separation(top.copy, k_min, k_min + k_span)
    assert separation_rows(report) == reference_separation(top, k_min, k_min + k_span)
    assert report.n_points == top.size


def test_separation_matches_full_length_scan_up_to_k_300():
    """1000 points, 300 of them next to targets of k in 150..300: the numerators
    2**63 (2j + 1) of the targets reach 300 * 2**64, and their floors must be exact."""
    rng = np.random.default_rng(300)
    top = rng.integers(0, 2**64, size=1000, dtype=np.uint64)
    for i in range(300):
        k = int(rng.integers(150, 301))
        top[3 * i] = (target_floor(k, int(rng.integers(0, k))) + int(rng.integers(-1, 2))) % 2**64
    report = kxn_separation(top.copy, 1, 300)
    assert separation_rows(report) == reference_separation(top, 1, 300)


def check_half_at(top, at, k_min):
    """Against the full-length scan, and 1/2 at index `at` for every odd k; column
    is called twice, once per pass."""
    k_max = k_min + 34
    calls = []
    report = kxn_separation(lambda: calls.append(1) or top.copy(), k_min, k_max)
    assert len(calls) == 2
    assert separation_rows(report) == reference_separation(top, k_min, k_max)
    odd = [row for row in report.rows if row.k % 2]
    assert odd and all(row.sup_norm == 0.5 and row.n_argmax == at for row in odd)


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("k_min", [1, 4])
def test_separation_lengths_around_the_default_block(offset, k_min):
    """Lengths 4095, 4096 and 4097, a chunk of top's pass and one row either side;
    the maximum, 2**63, is the last point."""
    size = 4096 + offset
    top = np.random.default_rng(size).integers(0, 2**64, size=size, dtype=np.uint64)
    top[0], top[-1] = 0, 2**63
    check_half_at(top, size - 1, k_min)


@pytest.mark.parametrize("k_min", [1, 4])
def test_separation_tie_goes_to_the_first_index(k_min):
    """2**63 opens the second chunk of 4096 points and recurs at both edges of the third."""
    rows = 4096
    top = np.random.default_rng(3).integers(0, 2**64, size=3 * rows, dtype=np.uint64)
    top[[rows, 2 * rows - 1, 2 * rows]] = 2**63
    check_half_at(top, rows, k_min)


def test_separation_of_one_point():
    top = np.array([2**63], dtype=np.uint64)
    rows = separation_rows(kxn_separation(top.copy, 1, 4))
    assert rows == [(1, 0.5, 0), (2, 0.0, 0), (3, 0.5, 0), (4, 0.0, 0)]
    assert rows == reference_separation(top, 1, 4)


@pytest.mark.parametrize("at", [[0], [0, 6, 7, 13, 14, 40], [6, 7, 49]])
def test_separation_winner_at_index_0_and_across_chunks(monkeypatch, at):
    """2**63 at index 0, and on both sides of the boundaries of chunks of CHUNK rows."""
    monkeypatch.setattr(table, "CHUNK_ROWS", CHUNK)
    top = np.random.default_rng(len(at)).integers(0, 2**64, size=50, dtype=np.uint64)
    top[at] = 2**63
    check_half_at(top, at[0], 1)
