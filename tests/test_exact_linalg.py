"""Exact linear algebra: ranks, kernels, Hermite bases, and the simplex."""

from __future__ import annotations

import random
from fractions import Fraction

from helpers import brute_force_feasible
from multirot.exact.linalg import (
    common_denominator,
    hermite_row_basis,
    integer_coordinates,
    kernel_basis,
    rank_rational,
    solve,
)
from multirot.exact.simplex import (
    basic_feasible_solutions,
    feasible_point,
    nonneg_kernel_vector,
)

F = Fraction


def _random_int_matrix(rng, rows, cols, span=5):
    return [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]


def test_rank_matches_float_rank_on_random_matrices():
    import numpy as np

    rng = random.Random(11)
    for _ in range(200):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = _random_int_matrix(rng, rows, cols)
        expected = np.linalg.matrix_rank(np.array(m, dtype=np.float64))
        assert rank_rational(m) == expected


def test_rank_rational_clears_denominators():
    rows = [[F(1, 2), F(1, 3)], [F(1, 4), F(1, 6)]]
    assert rank_rational(rows) == 1


def test_kernel_basis_annuls_matrix():
    rng = random.Random(5)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = [[F(x) for x in row] for row in _random_int_matrix(rng, rows, cols)]
        basis = kernel_basis(m)
        assert len(basis) == cols - rank_rational(m)
        for vec in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_solve_square_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = [[F(x) for x in row] for row in _random_int_matrix(rng, n, n)]
        x = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        b = [sum(m[i][j] * x[j] for j in range(n)) for i in range(n)]
        sol = solve(m, b)
        if sol is not None:
            assert all(
                sum(m[i][j] * sol[j] for j in range(n)) == b[i] for i in range(n)
            )


def test_solve_needs_independent_columns_and_a_consistent_system():
    # 3 x 2, independent columns: the unique solution
    a = [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]
    assert solve(a, [F(1, 2), F(1, 3), F(5, 6)]) == [F(1, 2), F(1, 3)]
    # the same columns, third equation contradicting the first two
    assert solve(a, [F(1, 2), F(1, 3), F(1)]) is None
    # 3 x 2 with dependent columns: consistent, yet no unique solution
    dep = [[F(1), F(2)], [F(2), F(4)], [F(3), F(6)]]
    assert solve(dep, [F(1), F(2), F(3)]) is None
    # square and singular
    assert solve([[F(1), F(1)], [F(1), F(1)]], [F(1), F(1)]) is None
    # no columns: consistent only for b = 0
    assert solve([[], []], [F(0), F(0)]) == []
    assert solve([[], []], [F(0), F(1)]) is None


def test_hermite_rows_generate_same_module():
    rng = random.Random(3)
    for _ in range(100):
        rows = _random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), span=6)
        h = hermite_row_basis(rows)
        # every original row is an integer combination of the basis
        for row in rows:
            coords = integer_coordinates(h, row)
            assert coords is not None
            rebuilt = [0] * len(row)
            for c, hrow in zip(coords, h):
                rebuilt = [x + c * y for x, y in zip(rebuilt, hrow)]
            assert rebuilt == row
        # basis rows lie in the module spanned by the originals (rank check)
        assert rank_rational(h) == rank_rational(rows) == len(h)


def test_feasible_point_finds_solutions_and_rejects_infeasible():
    # x1 + x2 = 1, x1 - x2 = 3 -> x = (2, -1), infeasible over x >= 0
    a = [[F(1), F(1)], [F(1), F(-1)]]
    assert feasible_point(a, [F(1), F(3)]) is None
    sol = feasible_point(a, [F(3), F(1)])
    assert sol is not None and sol == [F(2), F(1)]


def test_feasible_point_on_random_systems_against_basic_solutions():
    rng = random.Random(13)
    for _ in range(80):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 5)
        a = [[F(x) for x in row] for row in _random_int_matrix(rng, rows, cols, 4)]
        b = [F(rng.randint(-4, 4)) for _ in range(rows)]
        mine = feasible_point(a, b)
        assert (mine is not None) == brute_force_feasible(a, b)
        if mine is not None:
            for row, bi in zip(a, b):
                assert sum(x * y for x, y in zip(row, mine)) == bi
            assert all(x >= 0 for x in mine)


def test_nonneg_kernel_vector_examples():
    # t1 + t2 = 0 over t >= 0 admits only 0
    assert nonneg_kernel_vector([[F(1), F(1)]], 2) is None
    # t1 - t2 = 0 has (1, 1)
    vec = nonneg_kernel_vector([[F(1), F(-1)]], 2)
    assert vec is not None and vec[0] == vec[1] > 0
    # no constraints: any coordinate vector
    vec = nonneg_kernel_vector([], 3)
    assert vec is not None and any(v > 0 for v in vec)


def test_basic_feasible_solutions_cover_vertices():
    # t1 + t2 = 1: vertices (1,0) and (0,1)
    sols = basic_feasible_solutions([[F(1), F(1)]], [F(1)])
    assert [F(1), F(0)] in sols and [F(0), F(1)] in sols


def test_common_denominator_scales_every_row_by_one_lcm():
    assert common_denominator([[F(1, 2), F(3, 4)], [F(5, 6)]]) == (12, [[6, 9], [10]])
    assert common_denominator([[F(2), F(-3)]]) == (1, [[2, -3]])
