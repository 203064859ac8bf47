"""Larger derived scenarios: long-orbit measurements and heuristic helpers."""

from __future__ import annotations

from fractions import Fraction

from multirot import boxdim as bx
from multirot.cli.config import ExperimentConfig
from multirot.cli.runner import run_config
from multirot.diophantine import kxn_separation
from multirot.embedtrace import induced_step_system
from multirot.exact.relations import integer_relation_heuristic
from multirot.exact.symbolic import builtin_table
from multirot.ifs import similarity_dimension
from multirot.orbit import (
    ExplicitWord,
    GreedyAvoid,
    RandomSymbols,
    first_forbidden_violation,
    generate_orbit,
    reduced_orbit,
    steps_from_values,
)

F = Fraction
TABLE = builtin_table()


def test_greedy_long_run_reports_no_violation():
    """(sqrt2, sqrt3) greedy at n = 1e5: clean, or the reporter names the index."""
    steps = steps_from_values(TABLE, ["sqrt2", "sqrt3"])
    lo, hi = F(4, 10), F(6, 10)
    orbit = generate_orbit(steps, GreedyAvoid(lo, hi), 100_000, 128)
    violation = first_forbidden_violation(orbit, lo, hi)
    # candidates sit sqrt3 - sqrt2 > 0.2 apart, so this interval is avoidable
    assert violation is None


def test_violation_reporter_flags_unavoidable_interval():
    steps = steps_from_values(TABLE, ["sqrt2", "sqrt3"])
    lo, hi = F(1, 10), F(9, 10)  # wider than the candidate spread
    orbit = generate_orbit(steps, GreedyAvoid(lo, hi), 1000, 128)
    violation = first_forbidden_violation(orbit, lo, hi)
    assert violation is not None
    assert lo < orbit.point_fraction(violation) < hi


def test_long_orbit_max_gap_small():
    """Random (sqrt2, sqrt3) orbit at n = 1e6 has every gap below 1e-3."""
    steps = steps_from_values(TABLE, ["sqrt2", "sqrt3"])
    orbit = generate_orbit(steps, RandomSymbols(), 10**6, 128, seed=8)
    prof = bx.gap_profile(bx.CirclePoints.from_orbit(orbit), 12)
    assert prof.max_gap < F(1, 1000)


def test_separation_at_hundred_thousand_points():
    steps = steps_from_values(TABLE, ["sqrt2", "sqrt3"])
    orbit = generate_orbit(steps, RandomSymbols(), 100_000, 128, seed=31)
    red = reduced_orbit(orbit)
    report = kxn_separation(red.top64(), 1, 101)
    assert report.flagged() == []


def test_synthetic_incommensurable_chain_check():
    """rho = (1/2, 1/2), gamma_1 = 1/3, random word: estimator-level report.

    No actual embedding realizes this instance; the check only records that
    the similarity dimension of the ratio system clears half the upper box
    estimate at tolerance 0.1.
    """
    steps = induced_step_system([F(1, 2), F(1, 2)], F(1, 3))
    import numpy as np

    rng = np.random.default_rng(12)
    word = tuple(int(x) for x in rng.integers(1, 3, size=50_000))
    orbit = generate_orbit(steps, ExplicitWord(word), len(word), 128)
    est = bx.box_dim_estimate(
        bx.covering_profile(bx.CirclePoints.from_orbit(orbit), 4, 12)
    )
    dim_e = similarity_dimension([F(1, 2), F(1, 2)])  # = 1
    assert dim_e >= est.upper_est / 2 - 0.1


def test_integer_relation_heuristic_is_advisory():
    """PSLQ-style detector: finds the planted relation, abstains otherwise."""
    rel = integer_relation_heuristic(["1.4142135623730951", "0.7071067811865476"])
    assert rel == [1, -2] or rel == [-1, 2]
    none_found = integer_relation_heuristic(
        ["1.4142135623730951", "1.7320508075688772"], max_coeff=50
    )
    assert none_found is None


def test_cli_rank_one_and_sqrt2(tmp_path):
    cfg = ExperimentConfig(kind="rank", out_dir=str(tmp_path / "o"),
                           params={"values": ["1", "sqrt2"], "include_one": False})
    result = run_config(cfg)
    assert result.exit_code == 0 and result.summary["rank"] == 2
