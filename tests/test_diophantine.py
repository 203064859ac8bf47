"""Pigeonhole approximation and the separation diagnostic."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import brute_force_min_k, random_basis
from multirot.diophantine import kxn_separation, norm_dist, pigeonhole_approx
from multirot.errors import UsageError
from multirot.exact.symbolic import builtin_table
from multirot.fixedpoint import fp_from_fraction, pack
from multirot.orbit import RandomSymbols, generate_orbit, reduced_orbit, steps_from_values

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
    with pytest.raises(UsageError):
        pigeonhole_approx([SQRT2] * 5, 3, 200)  # (mn)^r + 1 beyond 2**40
    with pytest.raises(UsageError):
        pigeonhole_approx([SQRT2], 1000, 1000, bits=16)


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


def test_separation_zero_sequence():
    report = kxn_separation(pack([0] * 50, 128)[:, 0], 1, 10)
    assert all(row.sup_norm == 0 for row in report.rows)
    assert report.flagged() == list(range(1, 11))


def test_separation_rational_orbit():
    """x~_n = n/7: k = 7 kills it, k = 1 reaches 3/7."""
    bits = 128
    seq = pack([fp_from_fraction(F(n, 7), bits) for n in range(70)], bits)
    report = kxn_separation(seq[:, 0], 1, 7)
    by_k = {row.k: row for row in report.rows}
    assert by_k[7].sup_norm < 1e-12
    assert abs(by_k[1].sup_norm - 3 / 7) < 1e-9


def test_separation_on_reduced_orbit():
    steps = steps_from_values(TABLE, ["sqrt2", "sqrt3"])
    orbit = generate_orbit(steps, RandomSymbols(), 20_000, 128, seed=9)
    red = reduced_orbit(orbit)
    report = kxn_separation(red.top64(), 1, 100)
    assert report.flagged() == []  # all maxima clear 1/5 comfortably


def test_separation_empty_errors():
    with pytest.raises(UsageError):
        kxn_separation(np.zeros(0, dtype=np.uint64), 1, 5)


@pytest.mark.parametrize("seq", [[0] * 5, np.zeros(5, dtype=np.int64), np.zeros((5, 2), dtype=np.uint64)])
def test_separation_rejects_anything_but_64_bit_points(seq):
    """Big-int lists, signed arrays and whole limb arrays are not 64-bit points."""
    with pytest.raises(UsageError):
        kxn_separation(seq, 1, 5)
