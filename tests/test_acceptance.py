"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances and runtime ceilings are fixed here, not
calibrated elsewhere.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import ceil, log

import numpy as np

from helpers import (
    brute_force_commensurable,
    brute_force_min_k,
    brute_force_qplus_witness,
    exact_integer_combination,
    random_basis,
)
from multirot import boxdim as bx
from multirot.cli.config import ExperimentConfig
from multirot.cli.runner import run_config
from multirot.diophantine import pigeonhole_approx
from multirot.embedtrace import (
    build_instance,
    induced_orbit,
    sn_sequence,
    threshold_c,
)
from multirot.exact.commensurability import commensurability_witness, log_vector
from multirot.exact.independence import qplus_independent_mod1
from multirot.exact.symbolic import SymbolicReal, builtin_table
from multirot.ifs import SimilarIFS, attractor_sample, similarity_dimension
from multirot.orbit import (
    GreedyAvoid,
    RandomSymbols,
    build_step_system,
    generate_orbit,
    steps_from_values,
)

F = Fraction
TABLE = builtin_table()


class Criterion:
    def __init__(self, number: int, label: str, limit_s: float):
        self.number = number
        self.label = label
        self.limit = limit_s
        self.t0 = time.time()

    def finish(self, ok: bool, detail: str = ""):
        elapsed = time.time() - self.t0
        status = "PASS" if ok and elapsed < self.limit else "FAIL"
        tail = f" [{detail}]" if detail else ""
        print(f"{status}  criterion {self.number}: {self.label} "
              f"({elapsed:.1f}s / limit {self.limit:.0f}s){tail}", flush=True)
        assert ok, f"criterion {self.number} failed: {detail}"
        assert elapsed < self.limit, f"criterion {self.number} over time: {elapsed:.1f}s"


def test_criterion_1_scaled_covering_invariant():
    c = Criterion(1, "scaled covering N_{p d}(pA) <= N_d(A), 1000 random sets", 30)
    rng = np.random.default_rng(0)
    violations = 0
    checked = 0
    for _ in range(1000):
        size = int(rng.integers(1, 257))
        raw = rng.integers(0, 1 << 63, size=size, dtype=np.int64).astype(np.uint64)
        pts = bx.CirclePoints(raw << np.uint64(1))
        for res in bx.scaled_covering_checks(pts, 16, 12):
            violations += not res.holds
            checked += 1
    c.finish(violations == 0 and checked == 154_000, f"{checked} checks, {violations} violations")


def test_criterion_2_orbit_lower_box_bound():
    c = Criterion(2, "two-step orbit lower box estimate >= 1/3 - 0.1 (random)", 60)
    steps = steps_from_values(TABLE, ["sqrt2", "sqrt3"])
    assert steps.r == 2
    bound = 1 / (steps.r + 1) - 0.1
    orbit = generate_orbit(steps, RandomSymbols(), 10**6, 128, seed=20240817)
    est = bx.box_dim_estimate(
        bx.covering_profile(bx.CirclePoints.from_orbit(orbit), 6, 14)
    )
    c.finish(est.lower_est >= bound, f"lower={est.lower_est:.4f} vs {bound:.4f}")

    c2 = Criterion(2, "same bound under greedy-avoid, forbidden length 0.2", 60)
    greedy = generate_orbit(steps, GreedyAvoid(F(4, 10), F(6, 10)), 10**6, 128)
    est2 = bx.box_dim_estimate(
        bx.covering_profile(bx.CirclePoints.from_orbit(greedy), 6, 14)
    )
    c2.finish(est2.lower_est >= bound, f"lower={est2.lower_est:.4f} vs {bound:.4f}")


def test_criterion_3_difference_set_or_interval():
    c = Criterion(3, "difference set fills 2^12 cells or an interval >= 2^-8 shows", 60)
    steps = steps_from_values(TABLE, ["sqrt2", "sqrt3"])
    orbit = generate_orbit(steps, RandomSymbols(), 10**6, 128, seed=5)
    pts = bx.CirclePoints.from_orbit(orbit)
    diff = bx.difference_set(pts, cell_k=12)
    filled = diff.cell_count == 1 << 12
    gap = bx.gap_profile(pts, 12)
    interval = gap.longest_run_cells >= 1 << 4  # 2^-8 at resolution 2^-12
    c.finish(filled or interval,
             f"cells={diff.cell_count}/{1 << 12}, run={gap.longest_run_cells}")


def test_criterion_4_pigeonhole_bound_and_minimality():
    c = Criterion(4, "pigeonhole k <= (mn)^r + 1, exact bound, oracle minimality", 120)
    rng = random.Random(2025)
    slack = F(1, 1 << 100)
    runs = 0
    for r in (1, 2, 3):
        for m in (1, 2, 3):
            for _ in range(20):
                basis = random_basis(rng, r)
                betas = [basis.value(f"b{j}") for j in range(r)]
                for n in range(1, 65):
                    res = pigeonhole_approx(betas, m, n)
                    assert res.k <= (m * n) ** r + 1
                    assert all(a <= res.bound() + slack for a in res.achieved)
                    assert res.path == "scan"
                    assert res.k == brute_force_min_k(betas, res.bound(), res.k)
                    runs += 1
    c.finish(True, f"{runs} runs")


def test_criterion_5_independence_vs_bounded_oracle():
    c = Criterion(5, "Q+ independence agrees with bounded witness search", 60)
    rng = random.Random(424242)
    conclusive = 0
    for _ in range(200):
        r = rng.randint(1, 3)
        table = random_basis(rng, r)
        ell = rng.randint(1, 4)
        alphas = [
            SymbolicReal(
                table,
                F(rng.randint(-4, 4), rng.randint(1, 4)),
                {f"b{j}": F(rng.randint(-4, 4)) for j in range(r)},
            )
            for _ in range(ell)
        ]
        steps = build_step_system(alphas)
        verdict = qplus_independent_mod1(steps)
        if not verdict.independent:
            assert exact_integer_combination(alphas, verdict.witness)
        brute = brute_force_qplus_witness(alphas, 8, 8)
        if brute is not None:
            conclusive += 1
            assert not verdict.independent, (alphas, brute)
    c.finish(conclusive > 0, f"200 systems, {conclusive} brute-force witnesses")


def test_criterion_6_commensurability_instances():
    c = Criterion(6, "commensurability witnesses match bounded brute force", 5)
    out = commensurability_witness([F(1, 3)], [F(1, 9)], 64)
    ok = out.witness is not None and out.witness.exponents == ((F(2),),)
    out2 = commensurability_witness([F(1, 2), F(1, 3)], [F(1, 6)], 64)
    ok &= out2.witness is not None and out2.witness.column(0) == (F(1), F(1))
    out3 = commensurability_witness([F(1, 2)], [F(1, 3)], 64)
    ok &= out3.witness is None and not out3.columns[0].feasible
    for rhos, gamma, feasible in [
        ([F(1, 3)], F(1, 9), True),
        ([F(1, 2), F(1, 3)], F(1, 6), True),
        ([F(1, 2)], F(1, 3), False),
    ]:
        brute = brute_force_commensurable([log_vector(x) for x in rhos], log_vector(gamma), 64)
        ok &= (brute is not None) == feasible
    c.finish(ok)


def test_criterion_7_similarity_dimension_and_sample_estimate():
    c = Criterion(7, "Moran roots and Cantor attractor box estimate", 30)
    cantor = log(2) / log(3)
    ok = abs(similarity_dimension([F(1, 3), F(1, 3)]) - cantor) < 1e-12
    golden = log((1 + 5**0.5) / 2) / log(2)
    ok &= abs(similarity_dimension([F(1, 4), F(1, 2)]) - golden) < 1e-12
    ifs = SimilarIFS.line_maps([(F(1, 3), 0), (F(1, 3), F(2, 3))])
    pts = [p[0] for p in attractor_sample(ifs, 12)]
    est = bx.box_dim_estimate(
        bx.covering_profile(bx.CirclePoints.from_unit_reals(pts), 4, 12)
    )
    ok &= abs(est.slope_global - cantor) < 0.05
    c.finish(ok, f"slope={est.slope_global:.4f} vs {cantor:.4f}")


def test_criterion_8_embedding_trace():
    c = Criterion(8, "Cantor-pair trace: s_n = ceil(n/2), ratios in bounds, 2-point orbit", 10)
    e_ifs = SimilarIFS.line_maps([(F(1, 3), 0), (F(1, 3), F(2, 3))])
    f_ifs = SimilarIFS.line_maps([(F(1, 9), 0), (F(1, 9), F(8, 9))])
    inst = build_instance(e_ifs, f_ifs, F(1), F(0), coding_len=40)
    trace = sn_sequence(inst, 40, depth=6)
    ok = trace.s_values() == [ceil(n / 2) for n in range(1, 41)]
    ok &= trace.all_within_bounds()
    steps, orbit = induced_orbit(inst, 40)
    ok &= [a.value() for a in steps.alphas] == [F(1, 2), F(1, 2)]
    values = {orbit.point_fraction(k) for k in range(orbit.n + 1)}
    ok &= values == {F(0), F(1, 2)}
    c.finish(ok, f"s_40={trace.s_values()[-1]}, orbit values={len(values)}")


def test_criterion_9_threshold_table():
    c = Criterion(9, "embedding threshold table over ell <= 6, lambda <= 5", 1)
    ok = True
    for ell in range(2, 7):
        for lam in range(1, 6):
            want = F(1, 4) if (ell == 2 or lam == 1) else F(1, 2 * lam + 2)
            ok &= threshold_c(ell, lam) == want
    c.finish(ok)


def test_criterion_10_byte_identical_outputs(tmp_path):
    c = Criterion(10, "repeated runs produce byte-identical CSV artifacts", 60)
    base = dict(
        kind="verify-theorem", seed=33, bits=128,
        steps=["sqrt2", "sqrt3"], strategy={"type": "random"}, n=100_000,
        scales=[6, 12], params={"theorem": "orbit-box-lower"},
    )
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = ExperimentConfig.from_dict({**base, "out_dir": str(out)})
        res = run_config(cfg)
        assert res.exit_code == 0
        blobs.append(((out / "results.csv").read_bytes(),
                      (out / "summary.json").read_bytes(),
                      (out / "plot.svg").read_bytes()))
    ok = blobs[0] == blobs[1]

    orbit_base = dict(kind="orbit", seed=7, bits=128, steps=["sqrt2", "sqrt3"],
                      strategy={"type": "random"}, n=20_000)
    orb_blobs = []
    for tag, jobs in (("c", "1"), ("d", "4")):  # parallelism flag must not matter
        import json

        from multirot.cli.main import main

        out = tmp_path / tag
        cfg_path = tmp_path / f"cfg-{tag}.json"
        cfg_path.write_text(json.dumps({**orbit_base, "out_dir": str(out)}))
        assert main(["run", str(cfg_path), "--jobs", jobs]) == 0
        orb_blobs.append(((out / "results.csv").read_bytes(),
                          (out / "orbit.orb1").read_bytes(),
                          (out / "summary.json").read_bytes()))
    ok &= orb_blobs[0] == orb_blobs[1]
    c.finish(ok)
