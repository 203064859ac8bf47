"""Config schema, runner dispatch, determinism, exit codes."""

from __future__ import annotations

import contextlib
from collections import Counter
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multirot.cli import config as config_module
from multirot.cli.config import RECIPES, ExperimentConfig, parse_ifs, parse_step_expression
from multirot.cli.main import main
from multirot.cli import runner
from multirot.cli.runner import run_config, write_csv
from multirot.errors import ConfigError, GuardError, UsageError
from multirot.exact.symbolic import builtin_table
from multirot.ifs import MAX_DEPTH, SimilarIFS
from multirot.orbit import read_orb1
from multirot.orbit.generate import MAX_ELL, MAX_ORBIT_N


F = Fraction


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_fresh(code: str, *argv: str) -> str:
    """Run code in a fresh interpreter with this checkout's src first on its path;
    return its stdout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [src, *(p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p)]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# -- config ------------------------------------------------------------------


def test_config_roundtrip_identity():
    cfg = ExperimentConfig(
        kind="orbit",
        out_dir="out",
        seed=3,
        bits=128,
        steps=("sqrt2", "sqrt3"),
        strategy={"type": "random"},
        n=100,
        scales=(4, 10),
        params={"x": 1},
    )
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert ExperimentConfig.from_dict(again.to_dict()) == again


def test_config_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="nope").validate()


def test_config_random_needs_seed():
    cfg = ExperimentConfig(kind="orbit", steps=("sqrt2", "sqrt3"),
                           strategy={"type": "random"}, n=10)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_config_unknown_label_rejected():
    cfg = ExperimentConfig(kind="orbit", steps=("nosuch",),
                           strategy={"type": "word", "word": "1"}, n=1)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_step_expression_parser():
    table = builtin_table()
    assert parse_step_expression("1/4", table).value() == 0.25
    x = parse_step_expression("1 + 2*sqrt2", table)
    assert x.q0 == 1 and x.coeffs == {"sqrt2": 2}
    y = parse_step_expression("1-sqrt2", table)
    assert y.q0 == 1 and y.coeffs == {"sqrt2": -1}
    with pytest.raises(UsageError):
        parse_step_expression("sqrt2 +", table)
    with pytest.raises(UsageError):
        parse_step_expression("", table)


# -- runner ---------------------------------------------------------------------


def test_run_rank_kind(tmp_path):
    cfg = ExperimentConfig(kind="rank", out_dir=str(tmp_path / "o"),
                           params={"values": ["1", "sqrt2"], "include_one": False})
    result = run_config(cfg)
    assert result.exit_code == 0
    assert result.summary["rank"] == 2
    assert (tmp_path / "o" / "summary.json").exists()
    assert (tmp_path / "o" / "results.csv").exists()


def test_run_independence_kind(tmp_path):
    cfg = ExperimentConfig(kind="independence", out_dir=str(tmp_path / "o"),
                           steps=("sqrt2", "1-sqrt2"))
    result = run_config(cfg)
    assert result.exit_code == 0
    assert result.summary["qplus_independent"] is False
    assert result.summary["qplus_witness"]


def test_run_orbit_and_determinism(tmp_path):
    base = dict(kind="orbit", seed=11, bits=128, steps=["sqrt2", "sqrt3"],
                strategy={"type": "random"}, n=500)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        cfg = ExperimentConfig.from_dict({**base, "out_dir": str(out)})
        assert run_config(cfg).exit_code == 0
    csv1 = (out1 / "results.csv").read_bytes()
    csv2 = (out2 / "results.csv").read_bytes()
    assert csv1 == csv2
    assert (out1 / "orbit.orb1").read_bytes() == (out2 / "orbit.orb1").read_bytes()


def test_run_boxdim_orbit_route(tmp_path):
    cfg = ExperimentConfig(kind="boxdim", out_dir=str(tmp_path / "o"), seed=1,
                           steps=("sqrt2", "sqrt3"), strategy={"type": "random"},
                           n=4000, scales=(4, 10))
    result = run_config(cfg)
    assert result.exit_code == 0
    assert 0.5 < result.summary["lower_est"] <= 1.0
    assert (tmp_path / "o" / "plot.svg").exists()


def test_run_boxdim_ifs_route(tmp_path):
    cfg = ExperimentConfig(kind="boxdim", out_dir=str(tmp_path / "o"),
                           ifs=({"ratio": "1/3", "shift": "0"},
                                {"ratio": "1/3", "shift": "2/3"}),
                           scales=(4, 10), params={"depth": 10})
    result = run_config(cfg)
    assert result.exit_code == 0
    assert abs(result.summary["slope_global"] - 0.6309297535714574) < 0.05


def test_run_diophantine_kind(tmp_path):
    cfg = ExperimentConfig(kind="diophantine", out_dir=str(tmp_path / "o"),
                           n=3, params={"op": "pigeonhole", "betas": ["sqrt2"], "m": 1})
    result = run_config(cfg)
    assert result.exit_code == 0
    assert result.summary["k"] == 2


def test_run_ifs_kind(tmp_path):
    cfg = ExperimentConfig(kind="ifs", out_dir=str(tmp_path / "o"),
                           ifs=({"ratio": "1/3", "shift": "0"},
                                {"ratio": "1/3", "shift": "2/3"}),
                           params={"depth": 4})
    result = run_config(cfg)
    assert result.exit_code == 0
    assert result.summary["ssc_certified"] is True
    assert result.summary["ssc_delta"] == "1/3"


def test_run_embed_kind_default_pair(tmp_path):
    cfg = ExperimentConfig(kind="embed", out_dir=str(tmp_path / "o"),
                           params={"n_max": 12, "depth": 6})
    result = run_config(cfg)
    assert result.exit_code == 0
    assert result.summary["s_values"] == [(n + 1) // 2 for n in range(1, 13)]
    assert result.summary["all_within_bounds"] is True
    assert result.summary["induced_qplus_independent"] is False
    assert result.summary["threshold_c"] == "1/4"


def test_run_validation_exit_code(tmp_path):
    cfg = ExperimentConfig(kind="orbit", out_dir=str(tmp_path / "o"),
                           steps=("sqrt2", "sqrt3"), strategy={"type": "random"}, n=10)
    result = run_config(cfg)  # no seed
    assert result.exit_code == 2


def test_run_guard_exit_code(tmp_path):
    cfg = ExperimentConfig(kind="ifs", out_dir=str(tmp_path / "o"),
                           ifs=({"ratio": "1/3", "shift": "0"},
                                {"ratio": "1/3", "shift": "2/3"}),
                           params={"depth": 2, "sample_depth": 30})
    result = run_config(cfg)
    assert result.exit_code == 3
    assert not (tmp_path / "o" / "results.csv").exists()  # no partial output


# -- verify recipes ----------------------------------------------------------------


def test_verify_dimension_threshold(tmp_path):
    cfg = ExperimentConfig(kind="verify-theorem", out_dir=str(tmp_path / "o"),
                           params={"theorem": "dimension-threshold"})
    result = run_config(cfg)
    assert result.exit_code == 0 and result.summary["pass"] is True


def test_verify_scaled_covering_small(tmp_path):
    cfg = ExperimentConfig(kind="verify-theorem", out_dir=str(tmp_path / "o"), seed=0,
                           params={"theorem": "scaled-covering", "trials": 30,
                                   "max_points": 64, "p_max": 8, "k_max": 8})
    result = run_config(cfg)
    assert result.exit_code == 0
    assert result.summary["violations"] == 0 and result.summary["pass"] is True


def test_verify_trace_ratio_bounds(tmp_path):
    cfg = ExperimentConfig(kind="verify-theorem", out_dir=str(tmp_path / "o"),
                           params={"theorem": "trace-ratio-bounds", "n_max": 16, "depth": 6})
    result = run_config(cfg)
    assert result.exit_code == 0 and result.summary["pass"] is True


def test_verify_unknown_target(tmp_path):
    cfg = ExperimentConfig(kind="verify-theorem", out_dir=str(tmp_path / "o"),
                           params={"theorem": "nope"})
    result = run_config(cfg)
    assert result.exit_code == 2


def test_verify_orbit_box_lower_small(tmp_path):
    cfg = ExperimentConfig(kind="verify-theorem", out_dir=str(tmp_path / "o"), seed=5,
                           steps=("sqrt2", "sqrt3"), strategy={"type": "random"},
                           n=50_000, scales=(4, 10),
                           params={"theorem": "orbit-box-lower"})
    result = run_config(cfg)
    assert result.exit_code == 0
    assert result.summary["bound"] == "1/3"
    assert result.summary["pass"] is True
    tables = {}
    for scales in (None, (6, 14)):  # left out, the recipe's scales are 6..14
        out = tmp_path / str(scales)
        assert run_config(dataclasses.replace(cfg, scales=scales), str(out)).exit_code == 0
        tables[scales] = (out / "results.csv").read_bytes()
    assert tables[None] == tables[(6, 14)]


def test_verify_difference_dense_small(tmp_path):
    cfg = ExperimentConfig(kind="verify-theorem", out_dir=str(tmp_path / "o"), seed=5,
                           steps=("sqrt2", "sqrt3"), strategy={"type": "random"},
                           n=100_000, params={"theorem": "difference-dense", "k": 10})
    result = run_config(cfg)
    assert result.exit_code == 0
    assert result.summary["pass"] is True


# The orbit-analysis recipes of the benchmark, at 128 bits.  Each reads only
# the word or the 64-bit column, so none may hold the (n+1, 2) limb array,
# 16 bytes a point, or a second n-sized array beside the column.
ANALYSIS_RECIPES = {
    "orbit-box-lower": dict(kind="verify-theorem", scales=(6, 14),
                            strategy={"type": "greedy_avoid", "lo": "0.4", "hi": "0.6"},
                            params={"theorem": "orbit-box-lower"}),
    "difference-dense": dict(kind="verify-theorem", strategy={"type": "random"},
                             params={"theorem": "difference-dense", "k": 12}),
    "separation": dict(kind="diophantine", strategy={"type": "random"},
                       params={"op": "separation", "k_min": 1, "k_max": 100}),
}


@pytest.mark.parametrize("recipe", sorted(ANALYSIS_RECIPES))
def test_orbit_analysis_peaks_below_13_bytes_a_point(tmp_path, recipe):
    """tracemalloc's peak over one run at n = 2**17: about 11-12 bytes a point, the
    64-bit column and the word; 18-20 when the cells, the gaps or the separation's
    sorted copy took a second n-sized array, and 36 when the limb array was built.
    A run at n = 1000 first loads what the recipe imports on first use, which would
    count as a fixed cost."""
    def config(n, out):
        return ExperimentConfig(out_dir=str(tmp_path / out), seed=1, steps=("sqrt2", "sqrt3"),
                                n=n, bits=128, **ANALYSIS_RECIPES[recipe])

    assert run_config(config(1000, "warm")).exit_code == 0
    n = 1 << 17
    tracemalloc.start()
    try:
        code = run_config(config(n, "o")).exit_code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 13 * n, f"{recipe}: {peak / n:.1f} bytes a point"


def test_greedy_orbit_leaves_numpy_random_unloaded(tmp_path):
    """A greedy orbit draws nothing, so a greedy run in a fresh interpreter never
    imports numpy.random (5 MB of RSS)."""
    recipe = ANALYSIS_RECIPES["orbit-box-lower"]
    run_fresh("import sys\n"
              "from multirot.cli.config import ExperimentConfig\n"
              "from multirot.cli.runner import run_config\n"
              f"cfg = ExperimentConfig(out_dir={str(tmp_path / 'o')!r}, seed=1, steps=('sqrt2', 'sqrt3'),\n"
              f"                       n=1000, bits=128, **{recipe!r})\n"
              "assert run_config(cfg).exit_code == 0\n"
              "assert 'numpy.random' not in sys.modules\n")


@pytest.mark.parametrize("bits", [128, 1000])
def test_orbit_export_adds_below_4_bytes_a_point(tmp_path, bits):
    """tracemalloc's peak over an `orbit` run grows by about 1 byte a point, the
    word: each writer sums one chunk of points at a time.  The cached limb array
    made it 17 bytes a point at 128 bits and 129 at 1000 bits.  The chunks'
    temporaries are a fixed cost, so the slope is taken between n = 2**16 and
    2**18, after a run at n = 1000 that loads what the recipe imports."""
    def peak(n):
        cfg = ExperimentConfig(kind="orbit", out_dir=str(tmp_path / str(n)), seed=1, n=n, bits=bits,
                               steps=("sqrt2", "sqrt3"), strategy={"type": "random"})
        tracemalloc.start()
        try:
            assert run_config(cfg).exit_code == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1000)
    small, large = 1 << 16, 1 << 18
    slope = (peak(large) - peak(small)) / (large - small)
    assert slope < 4, f"{slope:.1f} bytes a point"


# -- command line ---------------------------------------------------------------------


def test_main_run_and_exit_codes(tmp_path, capsys):
    path = write_config(tmp_path, {
        "kind": "rank", "out_dir": str(tmp_path / "o"),
        "params": {"values": ["sqrt2", "sqrt3"], "include_one": True},
    })
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "rank = 3" in out


def test_rank_reads_steps_as_it_reads_values(tmp_path, capsys):
    """rank reads only the reals, so steps over a basis entry declared rational
    give the summary the same expressions give as params.values."""
    basis = [{"label": "a", "value": "0." + "7" * 60, "irrational": False}]
    summaries = []
    for i, fields in enumerate(({"steps": ["a", "1/3"]}, {"params": {"values": ["a", "1/3"]}})):
        out = tmp_path / f"o{i}"
        path = write_config(tmp_path, {"kind": "rank", "basis": basis, "out_dir": str(out),
                                       **fields}, name=f"c{i}.json")
        assert main(["run", path]) == 0, capsys.readouterr().err
        summaries.append(json.loads((out / "summary.json").read_text()))
    assert summaries[0] == summaries[1]
    assert summaries[0]["rank"] == 2


def test_main_bad_config_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, {"kind": "nope"})
    assert main(["run", path]) == 2


def test_main_missing_file_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 2


def test_main_orbit_subcommand(tmp_path, capsys):
    code = main([
        "orbit", "--steps", "sqrt2,sqrt3", "--word", "1212", "--n", "4",
        "--out", str(tmp_path / "o"),
    ])
    assert code == 0
    assert (tmp_path / "o" / "results.csv").exists()


ORBIT_CONFIG = {
    "kind": "orbit", "seed": 1, "steps": ["sqrt2", "sqrt3"],
    "strategy": {"type": "random"}, "n": 20,
}


@pytest.mark.parametrize("route", ["config", "override", "subcommand"])
def test_main_orbit_misaligned_bits_writes_nothing(tmp_path, capsys, route):
    out = tmp_path / "o"
    if route == "subcommand":
        argv = ["orbit", "--steps", "sqrt2,sqrt3", "--seed", "1", "--n", "20",
                "--bits", "100", "--out", str(out)]
    else:
        bits = 100 if route == "config" else 128
        path = write_config(tmp_path, {**ORBIT_CONFIG, "bits": bits, "out_dir": str(out)})
        argv = ["run", path] + (["--bits", "100"] if route == "override" else [])
    assert main(argv) == 2
    assert "multiple of 8" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("route", ["run", "subcommand", "config"])
def test_orbit_length_guard_exit_3_writes_nothing(tmp_path, capsys, route):
    out = tmp_path / "o"
    n = MAX_ORBIT_N + 1
    if route == "config":
        cfg = ExperimentConfig(kind="orbit", out_dir=str(out), seed=1, steps=("sqrt2", "sqrt3"),
                               strategy={"type": "random"}, n=n)
        result = run_config(cfg)
        assert result.exit_code == 3 and "guard" in result.summary["error"]
    else:
        if route == "run":
            argv = ["run", write_config(tmp_path, {**ORBIT_CONFIG, "n": n, "out_dir": str(out)})]
        else:
            argv = ["orbit", "--steps", "sqrt2,sqrt3", "--seed", "1", "--n", str(n),
                    "--out", str(out)]
        assert main(argv) == 3
        assert "guard:" in capsys.readouterr().err
    assert not out.exists()


def test_orbit_length_guard_spares_pigeonhole_n():
    """The pigeonhole op's n is the approximation target, not an orbit length:
    its bound is the k-space (mn)^r + 1, not MAX_ORBIT_N."""
    with pytest.raises(GuardError, match=r"\(mn\)\^r \+ 1"):
        ExperimentConfig(kind="diophantine", n=10 * MAX_ORBIT_N,
                         params={"betas": ["sqrt2"]}).validate()
    with pytest.raises(GuardError, match=f"n={MAX_ORBIT_N + 1} exceeds"):
        ExperimentConfig(kind="boxdim", n=MAX_ORBIT_N + 1, scales=(2, 6)).validate()


def test_missing_fields_are_named_before_the_seed_check():
    """A random strategy without a seed on a config that also lacks what the
    recipe needs: the error names the missing fields."""
    with pytest.raises(ConfigError, match="^boxdim needs steps, n$"):
        ExperimentConfig(kind="boxdim", scales=(2, 6), strategy={"type": "random"}).validate()
    with pytest.raises(ConfigError, match="^random strategy requires a seed$"):
        ExperimentConfig(kind="boxdim", scales=(2, 6), strategy={"type": "random"},
                         steps=("sqrt2", "sqrt3"), n=10).validate()


def test_pigeonhole_bucket_guard_exits_3(tmp_path, capsys):
    """A k-space past the scan budget and the bucket path's guard exits 3 before any work."""
    out = tmp_path / "o"
    path = write_config(tmp_path, {"kind": "diophantine", "n": 10 * MAX_ORBIT_N,
                                   "params": {"betas": ["sqrt2"]}, "out_dir": str(out)})
    assert main(["run", path]) == 3
    assert "guard:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cell_bits, code, label", [(200, 3, "guard:"), (40, 3, "guard:"),
                                                     (-1, 2, "error:"), (2.5, 2, "error:")])
def test_greedy_cell_bits_refused_before_any_output(tmp_path, capsys, cell_bits, code, label):
    """A cell table past MAX_CELL_BITS exits 3, a negative or non-integer cell_bits 2,
    both before the 2**cell_bits occupancy bytes are allocated."""
    out = tmp_path / "o"
    strategy = {"type": "greedy_avoid", "lo": "0.4", "hi": "0.6", "cell_bits": cell_bits}
    path = write_config(tmp_path, {**ORBIT_CONFIG, "strategy": strategy, "out_dir": str(out)})
    assert main(["run", path]) == code
    err = capsys.readouterr().err
    assert err.startswith(label) and "cell_bits" in err
    assert not out.exists()


def test_main_orbit_single_step(tmp_path, capsys):
    """n = 1 leaves no pair for the tau statistics; the run still completes."""
    out = tmp_path / "o"
    assert main(["orbit", "--steps", "sqrt2,sqrt3", "--word", "2", "--n", "1",
                 "--out", str(out)]) == 0
    assert "tau_max_pair_defect = 0" in capsys.readouterr().out
    assert sorted(os.listdir(out)) == ["orbit.orb1", "results.csv", "summary.json"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_artifacts_get_umask_modes(tmp_path, capsys, umask, mode):
    path = write_config(tmp_path, {**ORBIT_CONFIG, "out_dir": str(tmp_path / "o")})
    old = os.umask(umask)
    try:
        assert main(["run", path]) == 0
    finally:
        os.umask(old)
    for name in ("results.csv", "orbit.orb1", "summary.json"):
        assert os.stat(tmp_path / "o" / name).st_mode & 0o777 == mode, name
    assert os.stat(tmp_path / "o").st_mode & 0o777 == 0o777 & ~umask


def test_main_rank_subcommand(tmp_path, capsys):
    code = main(["rank", "--values", "sqrt2,1+2*sqrt2", "--out", str(tmp_path / "o")])
    assert code == 0
    assert "rank = 2" in capsys.readouterr().out


def test_main_embed_subcommand(tmp_path, capsys):
    code = main([
        "embed", "--e-ifs", "1/3:0,1/3:2/3", "--f-ifs", "1/9:0,1/9:8/9",
        "--n-max", "10", "--out", str(tmp_path / "o"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "all_within_bounds = True" in out


def test_embed_run_loads_numpy_only(tmp_path):
    """An embed run, induced betas included, in a fresh interpreter: mpmath stays unloaded."""
    run_fresh("import sys\n"
              "from multirot.cli.main import main\n"
              f"assert main(['embed', '--n-max', '10', '--out', {str(tmp_path / 'o')!r}]) == 0\n"
              "assert 'mpmath' not in sys.modules\n")
    assert "induced_r" in json.loads((tmp_path / "o" / "summary.json").read_text())


def test_main_boxdim_subcommand(tmp_path, capsys):
    code = main([
        "boxdim", "--ifs", "1/3:0,1/3:2/3", "--depth", "8",
        "--kmin", "3", "--kmax", "8", "--out", str(tmp_path / "o"),
    ])
    assert code == 0
    assert (tmp_path / "o" / "plot.svg").exists()


def test_main_verify_subcommand(tmp_path, capsys):
    code = main([
        "verify", "dimension-threshold", "--out", str(tmp_path / "o"),
    ])
    assert code == 0
    assert "pass = True" in capsys.readouterr().out


def test_run_diophantine_separation_op(tmp_path):
    cfg = ExperimentConfig(kind="diophantine", out_dir=str(tmp_path / "o"), seed=4,
                           steps=("sqrt2", "sqrt3"), strategy={"type": "random"},
                           n=5000, params={"op": "separation", "k_min": 1, "k_max": 20})
    result = run_config(cfg)
    assert result.exit_code == 0
    lines = (tmp_path / "o" / "results.csv").read_text().splitlines()
    assert lines[0] == "k,sup_norm,n_argmax"
    assert len(lines) == 21


def test_run_diophantine_missing_betas_is_validation_error(tmp_path):
    cfg = ExperimentConfig(kind="diophantine", out_dir=str(tmp_path / "o"), n=3)
    assert run_config(cfg).exit_code == 2


def test_verify_difference_dense_scale_guard_exit_3(tmp_path, capsys):
    code = main(["verify", "difference-dense", "--steps", "sqrt2,sqrt3", "--seed", "1",
                 "--n", "100", "--params", '{"k": 23}', "--out", str(tmp_path / "o")])
    assert code == 3
    assert "guard:" in capsys.readouterr().err
    assert not (tmp_path / "o" / "results.csv").exists()


def test_verify_difference_dense_honest_failure(tmp_path):
    """A two-point rational orbit fills neither the cells nor an interval."""
    cfg = ExperimentConfig(kind="verify-theorem", out_dir=str(tmp_path / "o"), seed=1,
                           steps=("1/2", "1/2"), strategy={"type": "random"},
                           n=500, params={"theorem": "difference-dense", "k": 12})
    result = run_config(cfg)
    assert result.exit_code == 0
    assert result.summary["pass"] is False


def test_main_verify_greedy_strategy(tmp_path, capsys):
    code = main([
        "verify", "orbit-box-lower", "--steps", "sqrt2,sqrt3",
        "--strategy", "greedy", "--forbidden", "0.4,0.6",
        "--n", "100000", "--kmin", "6", "--kmax", "12",
        "--out", str(tmp_path / "o"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "pass = True" in out
    assert "bound = 1/3" in out


def test_config_file_load_serialize_load(tmp_path):
    payload = {
        "kind": "boxdim", "out_dir": "out", "bits": 128, "seed": 2,
        "steps": ["sqrt2", "sqrt3"], "strategy": {"type": "random"},
        "n": 1000, "scales": [4, 10],
    }
    path = write_config(tmp_path, payload)
    cfg = ExperimentConfig.load(path)
    again = ExperimentConfig.from_dict(json.loads(cfg.dumps()))
    assert again == cfg
    assert again.dumps() == cfg.dumps()


def test_main_run_seed_override(tmp_path, capsys):
    payload = {
        "kind": "orbit", "out_dir": str(tmp_path / "a"), "seed": 1, "bits": 128,
        "steps": ["sqrt2", "sqrt3"], "strategy": {"type": "random"}, "n": 200,
    }
    path = write_config(tmp_path, payload)
    assert main(["run", path]) == 0
    assert main(["run", path, "--out", str(tmp_path / "b"), "--seed", "2"]) == 0
    a = (tmp_path / "a" / "results.csv").read_bytes()
    b = (tmp_path / "b" / "results.csv").read_bytes()
    assert a != b  # different seed, different orbit


@pytest.mark.parametrize("config, override", [
    ({k: v for k, v in ORBIT_CONFIG.items() if k != "seed"}, ["--seed", "5"]),
    ({**ORBIT_CONFIG, "bits": 100}, ["--bits", "128"]),
])
def test_overrides_apply_before_the_config_is_checked(tmp_path, capsys, config, override):
    """The config alone is refused; with the override it is the config that runs."""
    path = write_config(tmp_path, {**config, "out_dir": str(tmp_path / "o")})
    assert main(["run", path]) == 2
    assert main(["run", path, *override]) == 0
    assert (tmp_path / "o" / "orbit.orb1").exists()


def test_verify_orbit_defaults_fill_a_left_out_seed(tmp_path, capsys):
    """A random strategy without a seed takes the verify recipes' seed 0, as with no strategy."""
    runs = {}
    for name, extra in [("given", {"seed": 0}), ("left_out", {})]:
        out = tmp_path / name
        path = write_config(tmp_path, {
            "kind": "verify-theorem", "strategy": {"type": "random"}, "n": 2000,
            "params": {"theorem": "difference-dense", "k": 10}, "out_dir": str(out), **extra})
        assert main(["run", path]) == 0
        runs[name] = {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}
    assert runs["left_out"] == runs["given"]


def test_one_run_validates_once(tmp_path, capsys, monkeypatch):
    calls = []
    validate = ExperimentConfig.validate

    def counted(cfg):
        calls.append(cfg)
        return validate(cfg)

    monkeypatch.setattr(ExperimentConfig, "validate", counted)
    path = write_config(tmp_path, {**ORBIT_CONFIG, "out_dir": str(tmp_path / "o")})
    assert main(["run", path, "--seed", "2"]) == 0
    assert len(calls) == 1 and calls[0].seed == 2


def test_main_verify_params_json(tmp_path, capsys):
    code = main([
        "verify", "scaled-covering", "--seed", "0", "--out", str(tmp_path / "o"),
        "--params", '{"trials": 10, "max_points": 32, "p_max": 4, "k_max": 6}',
    ])
    assert code == 0
    assert "violations = 0" in capsys.readouterr().out


def test_main_verify_bad_params_json(tmp_path, capsys):
    assert main(["verify", "scaled-covering", "--params", "[1,2]",
                 "--out", str(tmp_path / "o")]) == 2


IFS_CANTOR = [{"ratio": "1/3", "shift": "0"}, {"ratio": "1/3", "shift": "2/3"}]
ORBIT_PART = {"seed": 1, "steps": ["sqrt2", "sqrt3"], "strategy": {"type": "random"}, "n": 100}
PAIR = {"n_max": 4, "depth": 3}


@pytest.mark.parametrize("config", [
    {"kind": "rank", "steps": ["sqrt2", "1/3"]},
    {"kind": "independence", "steps": ["sqrt2", "sqrt3"]},
    {"kind": "orbit", **ORBIT_PART},
    {"kind": "boxdim", **ORBIT_PART, "scales": [2, 6]},
    {"kind": "boxdim", "ifs": IFS_CANTOR, "scales": [2, 6], "params": {"depth": 6}},
    {"kind": "diophantine", "n": 3, "params": {"betas": ["sqrt2"]}},
    {"kind": "diophantine", **ORBIT_PART, "params": {"op": "separation", "k_max": 4}},
    {"kind": "ifs", "ifs": IFS_CANTOR, "params": {"depth": 3}},
    {"kind": "embed", "params": PAIR},
    {"kind": "embed", "ifs": IFS_CANTOR, "params": PAIR,
     "ifs_f": [{"ratio": "1/9", "shift": shift} for shift in ("0", "8/9")]},
    {"kind": "verify-theorem", "params": {"theorem": "scaled-covering", "trials": 2, "k_max": 4}},
    {"kind": "verify-theorem", **ORBIT_PART, "params": {"theorem": "difference-dense", "k": 6}},
    {"kind": "verify-theorem", **ORBIT_PART, "scales": [2, 6],
     "params": {"theorem": "orbit-box-lower"}},
    {"kind": "verify-theorem", "params": {"theorem": "trace-ratio-bounds", **PAIR}},
    {"kind": "verify-theorem", "params": {"theorem": "dimension-threshold", "ell_max": 3}},
])
def test_one_run_parses_each_field_once(tmp_path, monkeypatch, config):
    """validate parses each field once, and the handler runs on what it returned:
    no parser or config reader is called after validate."""
    calls, validated = [], []

    def watch(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            assert not validated, f"{name} called after validate"
            calls.append((name, repr(args[0]) if name == "parse_ifs" else None))
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("build_step_system", "parse_strategy", "parse_ifs", "parse_step_expression"):
        watch(config_module, name)
    for name in ("basis_table", "step_system", "affine_map"):
        watch(ExperimentConfig, name)
    validate = ExperimentConfig.validate

    def validate_then_seal(cfg):
        inputs = validate(cfg)
        validated.append(cfg)
        return inputs

    monkeypatch.setattr(ExperimentConfig, "validate", validate_then_seal)
    result = run_config(ExperimentConfig.from_dict({**config, "out_dir": str(tmp_path / "o")}))
    assert result.exit_code == 0, result.summary
    assert len(validated) == 1
    once = ("build_step_system", "parse_strategy", "basis_table", "parse_ifs")
    counts = Counter(call for call in calls if call[0] in once)
    assert counts and max(counts.values()) == 1, counts
    if config["kind"] == "rank":  # rank reads the reals of its steps alone
        assert counts["build_step_system", None] == 0, counts


@pytest.mark.parametrize("config", [
    {"kind": "verify-theorem", **ORBIT_PART, "params": {"theorem": "difference-dense", "k": "x"}},
    {"kind": "verify-theorem", **ORBIT_PART, "scales": [2, 6],
     "params": {"theorem": "orbit-box-lower", "tolerance": "x"}},
    {"kind": "verify-theorem", "params": {"theorem": "scaled-covering", "trials": "x"}},
    {"kind": "verify-theorem", "params": {"theorem": "scaled-covering", "k_max": [3]}},
    {"kind": "verify-theorem", "params": {"theorem": "dimension-threshold", "lam_max": "2.5"}},
    {"kind": "verify-theorem", "params": {"theorem": "trace-ratio-bounds", "n_max": None}},
    {"kind": "embed", "params": {"depth": "deep"}},
    {"kind": "ifs", "ifs": IFS_CANTOR, "params": {"sample_depth": "x"}},
    {"kind": "boxdim", "ifs": IFS_CANTOR, "scales": [2, 6], "params": {"depth": {}}},
    {"kind": "diophantine", **ORBIT_PART, "params": {"op": "separation", "k_max": "x"}},
    {"kind": "diophantine", "n": 10, "params": {"betas": ["sqrt2"], "m": "x"}},
    {"kind": "verify-theorem", "params": {"theorem": "dimension-threshold", "lam_max": 2.9}},
    {"kind": "verify-theorem", "params": {"theorem": "dimension-threshold", "ell_max": True}},
    *({"kind": "verify-theorem", **ORBIT_PART, "scales": [2, 6],
       "params": {"theorem": "orbit-box-lower", "tolerance": t}} for t in ("nan", "inf", "-inf")),
])
def test_non_integer_recipe_params_exit_2(tmp_path, capsys, config):
    out = tmp_path / "o"
    path = write_config(tmp_path, {**config, "out_dir": str(out)})
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "params." in err
    assert not out.exists()


def test_verify_non_integer_param_exit_2(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["verify", "difference-dense", "--steps", "sqrt2,sqrt3", "--seed", "1",
                 "--n", "100", "--params", '{"k": "x"}', "--out", str(out)]) == 2
    assert "error: params.k" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("params, code", [('{"k": 23}', 3), ('{"k": "x"}', 2), ('{"k": -1}', 2)])
def test_failed_verify_removes_the_directories_it_made(tmp_path, capsys, params, code):
    out = tmp_path / "new" / "deeper" / "o"
    assert main(["verify", "difference-dense", "--steps", "sqrt2,sqrt3", "--seed", "1",
                 "--n", "100", "--params", params, "--out", str(out)]) == code
    assert os.listdir(tmp_path) == []


def test_failed_run_keeps_a_directory_that_existed(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    path = write_config(tmp_path, {"kind": "verify-theorem", **ORBIT_PART, "out_dir": str(out),
                                   "params": {"theorem": "difference-dense", "k": 23}})
    assert main(["run", path]) == 3
    assert out.is_dir() and os.listdir(out) == []
    (out / "keep.txt").write_text("x")
    cfg = ExperimentConfig(kind="verify-theorem", out_dir=str(out / "sub"), seed=1,
                           steps=("sqrt2", "sqrt3"), strategy={"type": "random"}, n=100,
                           params={"theorem": "difference-dense", "k": "x"})
    assert run_config(cfg).exit_code == 2
    assert os.listdir(out) == ["keep.txt"]


def test_failed_run_leaves_no_partial_artifact(tmp_path, monkeypatch):
    """An artifact written before the failure stays in the stage, which goes."""
    def write_then_fail(cfg, out):
        write_csv(out, "results.csv", ["x"], [[1]])
        raise UsageError("failed after writing")

    monkeypatch.setattr(runner, "_run_rank", write_then_fail)
    out = tmp_path / "new" / "o"
    assert run_config(ExperimentConfig(kind="rank", out_dir=str(out))).exit_code == 2
    assert os.listdir(tmp_path) == []


def _unreachable(*args, **kwargs):
    raise AssertionError("the config should have been refused before this call")


SMALL_ORBIT = dict(kind="orbit", seed=1, steps=("sqrt2", "sqrt3"), strategy={"type": "random"},
                   n=200)


def test_failed_rerun_keeps_the_earlier_run(tmp_path, monkeypatch):
    out = tmp_path / "o"
    cfg = ExperimentConfig(out_dir=str(out), **SMALL_ORBIT)
    assert run_config(cfg).exit_code == 0
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    assert sorted(before) == ["orbit.orb1", "results.csv", "summary.json"]

    def fail(orbit, path):
        raise UsageError("export failed")

    # the rerun's results.csv (another seed) is written before its export fails
    monkeypatch.setattr(runner, "write_orb1", fail)
    assert run_config(dataclasses.replace(cfg, seed=2)).exit_code == 2
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before


@pytest.mark.parametrize("existing", [False, True])
def test_interrupted_run_leaves_nothing(tmp_path, monkeypatch, existing):
    out = tmp_path / "new" / "o"
    if existing:
        out.mkdir(parents=True)

    def interrupt(orbit, path):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner, "write_orb1", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_config(ExperimentConfig(out_dir=str(out), **SMALL_ORBIT))
    if existing:
        assert os.listdir(out) == []
    else:
        assert os.listdir(tmp_path) == []


def test_out_naming_a_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(runner, "rank_span", _unreachable)
    afile = tmp_path / "afile"
    afile.write_text("keep")
    for out in (afile, afile / "sub"):
        assert main(["rank", "--values", "sqrt2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: output path")
    assert afile.read_text() == "keep" and os.listdir(tmp_path) == ["afile"]


def test_unwritable_output_location_exits_2(tmp_path, capsys, monkeypatch):
    def refuse(**kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(runner.tempfile, "mkdtemp", refuse)
    assert main(["rank", "--values", "sqrt2", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write under")
    assert os.listdir(tmp_path) == []


# -- scale guards at validation ------------------------------------------------------


@pytest.mark.parametrize("k, code", [(23, 3), (-1, 2)])
def test_difference_dense_scale_refused_before_the_orbit(tmp_path, monkeypatch, k, code):
    """Without steps or n the recipe would first generate a 10**6-point orbit."""
    monkeypatch.setattr(runner, "generate_orbit", _unreachable)
    cfg = ExperimentConfig(kind="verify-theorem", out_dir=str(tmp_path / "o"),
                           params={"theorem": "difference-dense", "k": k})
    result = run_config(cfg)
    assert result.exit_code == code, result.summary
    assert os.listdir(tmp_path) == []


SIX_MAPS = tuple({"ratio": "1/7", "shift": f"{i}/7"} for i in range(6))


@pytest.mark.parametrize("ifs, params, message", [
    (IFS_CANTOR, {"depth": 17, "sample_depth": 4}, "2**17 cylinders"),
    (IFS_CANTOR, {"depth": 16, "sample_depth": 30}, "2**30 points"),
    (SIX_MAPS, {"depth": 6}, "6**10 points"),  # the default sample depth, min(depth + 4, 12)
])
def test_ifs_depths_refused_before_the_ssc_check(tmp_path, monkeypatch, ifs, params, message):
    monkeypatch.setattr(runner, "ssc_check", _unreachable)
    monkeypatch.setattr(runner, "attractor_sample", _unreachable)
    cfg = ExperimentConfig(kind="ifs", out_dir=str(tmp_path / "o"), ifs=tuple(ifs), params=params)
    result = run_config(cfg)
    assert result.exit_code == 3 and message in result.summary["error"]
    assert os.listdir(tmp_path) == []


NINE_MAPS = tuple({"ratio": "1/10", "shift": f"{i}/9"} for i in range(9))


@pytest.mark.parametrize("kind, params, ifs, message", [
    ("embed", {"n_max": 1025}, {}, "n_max=1025 exceeds the guard of 1024"),
    ("embed", {"depth": 17}, {}, "2**17 cylinders of E"),
    ("embed", {"depth": 10**8}, {}, "2**100000000 cylinders of E"),
    ("embed", {"depth": 8}, {"ifs": tuple(IFS_CANTOR), "ifs_f": NINE_MAPS}, "9**8 points of F"),
    ("trace-ratio-bounds", {"n_max": 10**5}, {}, "n_max=100000 exceeds"),
    ("trace-ratio-bounds", {"depth": 17}, {}, "2**17 cylinders of E"),
])
def test_embed_sizes_refused_before_the_trace(tmp_path, monkeypatch, kind, params, ifs, message):
    monkeypatch.setattr(runner, "build_instance", _unreachable)
    monkeypatch.setattr(runner, "sn_sequence", _unreachable)
    if kind == "trace-ratio-bounds":
        kind, params = "verify-theorem", {"theorem": kind, **params}
    cfg = ExperimentConfig(kind=kind, out_dir=str(tmp_path / "o"), params=params, **ifs)
    result = run_config(cfg)
    assert result.exit_code == 3 and message in result.summary["error"], result.summary
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("kind", ["embed", "trace-ratio-bounds"])
@pytest.mark.parametrize("params", [{"n_max": 0}, {"depth": 0}, {"depth": -3}])
def test_embed_empty_trace_or_depth_is_a_config_error(tmp_path, monkeypatch, kind, params):
    """n_max = 0 used to pass trace-ratio-bounds on an empty trace; depth <= 0 crashed."""
    monkeypatch.setattr(runner, "build_instance", _unreachable)
    if kind == "trace-ratio-bounds":
        kind, params = "verify-theorem", {"theorem": kind, **params}
    result = run_config(ExperimentConfig(kind=kind, out_dir=str(tmp_path / "o"), params=params))
    assert result.exit_code == 2 and "n_max >= 1 and depth >= 1" in result.summary["error"]
    assert os.listdir(tmp_path) == []


def test_embed_cli_trace_length_guard_exit_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(runner, "build_instance", _unreachable)
    assert main(["embed", "--n-max", "100000", "--out", str(tmp_path / "e")]) == 3
    assert "guard:" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


NEAR_ONE_F = ["--e-ifs", "1/3:0,1/3:2/3", "--f-ifs", "99/100:0,99/100:1/100", "--depth", "4"]


def test_embed_trace_work_guard_exit_3(tmp_path, monkeypatch, capsys):
    """gamma_1 = 99/100 took 45 s at n_max 16 and grows about quadratically in n_max."""
    monkeypatch.setattr(runner, "induced_step_system", _unreachable)
    assert main(["embed", *NEAR_ONE_F, "--n-max", "64", "--out", str(tmp_path / "e")]) == 3
    assert "guard: trace work: s_64 <= 6996 steps" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_fraction_cells_past_the_interpreter_digit_limit():
    """str() refuses ints past 4300 digits; a near-one trace's ratios reach them."""
    big = F(10**5000 + 7, 3)
    assert runner._csv_cell(big) == "1" + "0" * 4999 + "7/3"
    assert runner._jsonable([-big]) == ["-1" + "0" * 4999 + "7/3"]


@pytest.mark.parametrize("argv, message", [
    (["boxdim", "--steps", "sqrt2,sqrt3", "--seed", "1", "--n", "1000", "--bits", "1048576",
      "--kmin", "2", "--kmax", "8"], "orbit bits=1048576 exceeds the guard of 65536"),
    (["orbit", "--steps", "sqrt2,sqrt3", "--seed", "1", "--n", "19531", "--bits", "65536"],
     "n=19531, bits=65536: orbit limb bytes=160006144 exceeds the guard of 160000016"),
    # the verify recipes' own orbit has 10**6 points: 21 limbs a point pass the guard
    (["verify", "difference-dense", "--bits", "1344"], "n=1000000, bits=1344: orbit limb bytes"),
    (["verify", "orbit-box-lower", "--bits", "1344"], "n=1000000, bits=1344: orbit limb bytes"),
])
def test_orbit_bits_guard_exit_3_before_the_orbit(tmp_path, monkeypatch, capsys, argv, message):
    """bits = 2**20 at n = 1000 took 11.5 s and 542 MB; every orbit route refuses it first."""
    monkeypatch.setattr(runner, "generate_orbit", _unreachable)
    assert main([*argv, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("guard:") and message in err
    assert os.listdir(tmp_path) == []


def test_orbit_bits_guard_spares_the_ifs_route_and_the_largest_orbit():
    ExperimentConfig(kind="boxdim", ifs=tuple(IFS_CANTOR), scales=(2, 6), bits=1 << 20).validate()
    ExperimentConfig(kind="orbit", steps=("sqrt2", "sqrt3"), strategy={"type": "random"},
                     seed=1, n=MAX_ORBIT_N, bits=128).validate()


# At n = 200000 and seed 1 the word has N_1 = 99857 and N_2 = 100143, and p = ((1, 0), (c, 1)).
def _big_p_orbit(coeff):
    return {"kind": "orbit", "seed": 1, "steps": ["sqrt2", f"{coeff}*sqrt2 + sqrt3"],
            "strategy": {"type": "random"}, "n": 200000}


@pytest.mark.parametrize("coeff", [10**14, 10**20])
def test_orbit_b_columns_past_int64_exit_3_before_the_orbit(tmp_path, capsys, monkeypatch, coeff):
    """b_1(n) = 99857 + 100143 c: at c = 10**14 it was written wrapped, as
    -8432444073709451759, with exit 0; at c = 10**20 the run ended in an
    OverflowError traceback."""
    monkeypatch.setattr(runner, "generate_orbit", _unreachable)
    path = write_config(tmp_path, {**_big_p_orbit(coeff), "out_dir": str(tmp_path / "o")})
    assert main(["run", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("guard:") and f"max|p_ij|={coeff}: b_j columns" in err
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("coeff", [10**20, 184204028975659])
def test_separation_takes_its_shift_index_from_exact_b(tmp_path, coeff):
    """|b_1(n)| > b_2(n) = 100143 exactly.  The int64 products ended in an
    OverflowError traceback at c = 10**20, and at c = 184204028975659 wrapped
    b_1(n) to -32522, so shift index 1 was reported."""
    cfg = {**_big_p_orbit(coeff), "kind": "diophantine", "params": {"op": "separation", "k_max": 4}}
    result = run_config(ExperimentConfig(out_dir=str(tmp_path / "o"), **cfg))
    assert result.exit_code == 0, result.summary
    assert result.summary["shift_index"] == 0


_OWN_PEAK = """import sys
if sys.argv[1:]:
    from multirot.cli.main import main
    assert main(["run", sys.argv[1]]) == 0
else:
    import multirot.cli.main
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""


def _peak_rise_over_import(tmp_path, config) -> float:
    """MB by which a run of config peaks above an import of the CLI, each in a process
    of its own."""
    path = write_config(tmp_path, {**config, "out_dir": str(tmp_path / "o")})
    peaks = [int(run_fresh(_OWN_PEAK, *argv).split()[-1]) / 1024 for argv in ([], [path])]
    return peaks[1] - peaks[0]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_orbit_run_memory_rise_over_import(tmp_path):
    """The orbit recipe at n = 10**6 and 128 bits peaks less than 40 MB above an
    import of the CLI, each in a process of its own: the points take 16 MB, and
    whole (n+1, ell) count and b_j arrays took the rise to about 55 MB."""
    rise = _peak_rise_over_import(tmp_path, {**ORBIT_CONFIG, "n": 10**6, "bits": 128})
    assert rise < 40, rise


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_separation_run_releases_the_orbit(tmp_path):
    """The separation recipe at n = 10**6 and 128 bits peaks less than 42 MB above an
    import of the CLI (about 37 MB): the reduced orbit's points take 16 MB.  Holding
    the orbit's own 16 MB of points through the scan took the rise to about 46 MB."""
    config = {**ORBIT_CONFIG, "kind": "diophantine", "n": 10**6, "bits": 128,
              "params": {"op": "separation"}}
    rise = _peak_rise_over_import(tmp_path, config)
    assert rise < 42, rise


def test_boxdim_ifs_depth_refused_before_the_sample(tmp_path, monkeypatch):
    monkeypatch.setattr(SimilarIFS, "line_sample", _unreachable)
    cfg = ExperimentConfig(kind="boxdim", out_dir=str(tmp_path / "o"), ifs=tuple(IFS_CANTOR),
                           scales=(2, 6), params={"depth": 10**8})
    result = run_config(cfg)
    assert result.exit_code == 3 and "2**100000000 points" in result.summary["error"]
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("recipe", ["boxdim", "ifs", "embed"])
def test_sample_guard_exit_3_before_the_sample(tmp_path, monkeypatch, capsys, recipe):
    """2**22 points, where the ifs recipe peaked at 1.8 GB, pass the sample guard:
    each sampling recipe exits 3 before it samples."""
    monkeypatch.setattr(SimilarIFS, "line_sample", _unreachable)
    monkeypatch.setattr(runner, "attractor_sample", _unreachable)
    past, half = 22, 11  # 2**22 points; embed takes 4**11 points of F, 2**11 cylinders of E
    cantor = "1/3:0,1/3:2/3"
    ifs_config = write_config(tmp_path, {"kind": "ifs", "ifs": IFS_CANTOR,
                                         "params": {"sample_depth": past}})
    argv, message = {
        "boxdim": (["boxdim", "--ifs", cantor, "--depth", str(past), "--kmin", "4", "--kmax", "14"],
                   f"2**{past} points"),
        "ifs": (["run", ifs_config], f"2**{past} points"),
        "embed": (["embed", "--e-ifs", cantor, "--f-ifs", "1/9:0,1/9:2/9,1/9:2/3,1/9:8/9",
                   "--depth", str(half)], f"4**{half} points of F"),
    }[recipe]
    out = tmp_path / "out"
    out.mkdir()
    assert main([*argv, "--out", str(out / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("guard:") and message in err, err
    assert os.listdir(out) == []


# -- refused inputs: exit 2 or 3 with a message, never a traceback ------------------------


def _verify(theorem, **params):
    return {"kind": "verify-theorem", "params": {"theorem": theorem, **params}}


SEPARATION = {"kind": "diophantine", **ORBIT_PART, "params": {"op": "separation"}}


def _without(config, key):
    return {k: v for k, v in config.items() if k != key}


def test_separation_of_rational_steps_refused_before_the_orbit(tmp_path, capsys, monkeypatch):
    """All steps rational (r = 0) leave the reduced orbit undefined; at n = 10**7 the
    orbit took 0.41 s and 198 MB before the handler refused it."""
    monkeypatch.setattr(runner, "generate_orbit", _unreachable)
    path = write_config(tmp_path, {**SEPARATION, "steps": ["1/2", "1/3"], "n": 10**7,
                                   "out_dir": str(tmp_path / "o")})
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "reduced orbit undefined" in err, err
    assert os.listdir(tmp_path) == ["config.json"]


# One step past what a symbol byte holds; a random word over them once ended
# in a uint8 ValueError and a traceback.
STEPS_256 = [f"sqrt2 + {i}/{1000 + i}" for i in range(MAX_ELL + 1)]
GREEDY = {"type": "greedy_avoid", "lo": "0.4", "hi": "0.6"}


@pytest.mark.parametrize("config, code", [
    (_verify("scaled-covering", trials=10**8), 3),
    (_verify("scaled-covering", max_points=10**9), 3),
    (_verify("scaled-covering", p_max=10**6), 3),
    (_verify("scaled-covering", k_max=61), 2),
    (_verify("scaled-covering", k_max=0), 2),
    (_verify("scaled-covering", max_points=0), 2),
    (_verify("scaled-covering", trials=0), 2),
    (_verify("scaled-covering", p_max=0), 2),
    (_verify("dimension-threshold", ell_max=10**8), 3),
    (_verify("dimension-threshold", lam_max=10**8), 3),
    (_verify("dimension-threshold", ell_max=1), 2),
    (_verify("dimension-threshold", lam_max=0), 2),
    ({**SEPARATION, "params": {"op": "separation", "k_max": 10**9}}, 3),
    (_verify("nope"), 2),
    ({**SEPARATION, "params": {"op": "nope"}}, 2),
    ({"kind": "embed", "ifs": IFS_CANTOR}, 2),
    ({"kind": "embed", "ifs_f": IFS_CANTOR}, 2),
    ({**ORBIT_CONFIG, "seed": "1"}, 2),
    ({**ORBIT_CONFIG, "seed": 1.5}, 2),
    ({**ORBIT_CONFIG, "n": 20.0}, 2),
    ({**ORBIT_CONFIG, "bits": "128"}, 2),
    ({"kind": "rank", "params": [1]}, 2),
    ({**ORBIT_CONFIG, "strategy": "random"}, 2),
    ({"kind": "embed", "affine": ["1", "0"]}, 2),
    # a field the handler reads left out
    (_without(ORBIT_CONFIG, "steps"), 2),
    (_without(ORBIT_CONFIG, "strategy"), 2),
    (_without(ORBIT_CONFIG, "n"), 2),
    (_without(SEPARATION, "steps"), 2),
    ({"kind": "boxdim", **_without(ORBIT_PART, "n"), "scales": [2, 6]}, 2),
    ({"kind": "boxdim", "ifs": IFS_CANTOR}, 2),
    ({"kind": "diophantine", "params": {"betas": ["sqrt2"]}}, 2),
    # pigeonhole refuses bits that cannot hold 1/(mn) before the stage exists
    ({"kind": "diophantine", "n": 4, "bits": 0, "params": {"betas": ["sqrt2"]}}, 2),
    ({"kind": "diophantine", "n": 16, "bits": 8, "params": {"betas": ["sqrt2"]}}, 2),
    ({"kind": "ifs"}, 2),
    ({"kind": "independence"}, 2),
    # pigeonhole bits past the orbit routes' guard: the 1/(mn) slack costs memory in bits
    ({"kind": "diophantine", "n": 4, "bits": 10**8, "params": {"betas": ["sqrt2"]}}, 3),
    # scales that covering_profile or box_dim_estimate would refuse after the points are built
    *(({"kind": "boxdim", **route, "scales": scales}, 2)
      for route in (ORBIT_PART, {"ifs": IFS_CANTOR}) for scales in ([6, 7], [-1, 6], [4, 63])),
    ({**_verify("orbit-box-lower"), "scales": [6, 8]}, 2),
    # orbit-box-lower's tolerance lies in [0, bound): 1/3 for the default r = 2, 1 for r = 1
    (_verify("orbit-box-lower", tolerance=2.9), 2),
    (_verify("orbit-box-lower", tolerance=0.34), 2),
    (_verify("orbit-box-lower", tolerance=-0.1), 2),
    ({**_verify("orbit-box-lower", tolerance=1), "steps": ["sqrt2"]}, 2),
    # a misspelt params key, once dropped so that its default ran
    ({"kind": "embed", "params": {"nmax": 4, "depth": 3}}, 2),
    (_verify("scaled-covering", trails=1), 2),
    # 256 steps on every route that generates an orbit
    *(({**config, "steps": STEPS_256}, 2) for config in (
        {**ORBIT_CONFIG, "n": 1000}, {**ORBIT_CONFIG, "strategy": GREEDY},
        {"kind": "boxdim", **ORBIT_PART, "scales": [2, 6]}, SEPARATION,
        _verify("difference-dense"), _verify("orbit-box-lower"))),
])
def test_refused_config_exits_before_any_stage(tmp_path, capsys, monkeypatch, config, code):
    monkeypatch.setattr(runner.tempfile, "mkdtemp", _unreachable)
    path = write_config(tmp_path, {**config, "out_dir": str(tmp_path / "o")})
    assert main(["run", path]) == code
    assert capsys.readouterr().err.startswith("guard:" if code == 3 else "error:")
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("strategy", [{"type": "random"}, GREEDY])
def test_orbit_of_255_steps_runs(tmp_path, capsys, strategy):
    """The most steps a symbol byte holds: every symbol reaches ORB1 as it is."""
    out = tmp_path / "o"
    path = write_config(tmp_path, {**ORBIT_CONFIG, "steps": STEPS_256[:MAX_ELL], "n": 1000,
                                   "strategy": strategy, "out_dir": str(out)})
    assert main(["run", path]) == 0
    orb = read_orb1(out / "orbit.orb1")
    assert orb["ell"] == MAX_ELL and 1 <= orb["omega"].min() and orb["omega"].max() <= MAX_ELL


ONE_MAP = [{"ratio": "1/3", "shift": "1/7"}]


@pytest.mark.parametrize("route", ["boxdim", "ifs"])
@pytest.mark.parametrize("depth", [MAX_DEPTH, MAX_DEPTH + 1])
def test_one_map_ifs_depth_guard(tmp_path, capsys, monkeypatch, route, depth):
    """A one-map IFS has one point at every depth, so no ell**depth guard stops
    it, while its grid's denominator grows as 3**depth: past depth 64 it exits 3
    before any work, and at 64 it runs."""
    config = {"ifs": ONE_MAP, "out_dir": str(tmp_path / "o")}
    config.update({"boxdim": {"kind": "boxdim", "scales": [4, 12], "params": {"depth": depth}},
                   "ifs": {"kind": "ifs", "params": {"sample_depth": depth}}}[route])
    path = write_config(tmp_path, config)
    if depth > MAX_DEPTH:
        monkeypatch.setattr(runner.tempfile, "mkdtemp", _unreachable)
    code = main(["run", path])
    err = capsys.readouterr().err
    if depth > MAX_DEPTH:
        assert code == 3 and err.startswith("guard:") and f"depth {depth} of points" in err, err
        assert os.listdir(tmp_path) == ["config.json"]
    else:
        assert code == 0, err
        assert sorted(os.listdir(tmp_path)) == ["config.json", "o"]


@pytest.mark.parametrize("config, message", [
    # a misspelt key of a nested object, once dropped so that its value defaulted
    ({"kind": "ifs", "ifs": [{"ratio": "1/3", "shfit": "2/3"}, IFS_CANTOR[1]]},
     "unknown IFS map keys: ['shfit']"),
    ({**ORBIT_CONFIG, "strategy": {**GREEDY, "cellbits": 4}},
     "unknown greedy_avoid strategy keys: ['cellbits']"),
    ({**ORBIT_CONFIG, "strategy": {"type": "random", "word": "12"}},
     "unknown random strategy keys: ['word']"),
    ({"kind": "embed", "affine": {"m": "1", "B": "2/3"}}, "unknown affine keys: ['B']"),
    ({"kind": "ifs", "ifs": ["1/3:0", IFS_CANTOR[1]]}, "IFS map must be an object, got str"),
    # a leaf of another JSON type, once coerced: "false" to True, -1.7 to -1, true to 1
    ({"kind": "rank", "params": {"values": ["sqrt2"], "include_one": "false"}},
     "params.include_one must be true or false, got 'false'"),
    ({"kind": "ifs", "ifs": [IFS_CANTOR[0], {**IFS_CANTOR[1], "sign": -1.7}]},
     "an IFS map's sign must be 1 or -1, got -1.7"),
    ({"kind": "ifs", "ifs": [IFS_CANTOR[0], {**IFS_CANTOR[1], "sign": True}]},
     "an IFS map's sign must be 1 or -1, got True"),
    ({"kind": "embed", "affine": {"m": True}}, "bad affine: Invalid literal for Fraction: 'True'"),
    ({"kind": "embed", "affine": {"b": False}},
     "bad affine: Invalid literal for Fraction: 'False'"),
    # a params key the recipe does not read
    ({"kind": "embed", "params": {"nmax": 4, "depth": 3}}, "unknown embed params keys: ['nmax']"),
    (_verify("scaled-covering", trails=1), "unknown scaled-covering params keys: ['trails']"),
    ({"kind": "rank", "params": {"values": ["sqrt2"], "betas": ["sqrt2"]}},
     "unknown rank params keys: ['betas']"),
    ({**SEPARATION, "params": {"op": "separation", "theorem": "x"}},
     "unknown separation params keys: ['theorem']"),
    # an expression that is not a string, once a TypeError from the tokenizer
    ({**ORBIT_CONFIG, "steps": [1, "sqrt3"]}, "steps[0] must be a string expression, got 1"),
    ({"kind": "diophantine", "n": 10, "params": {"betas": [{"x": 1}]}},
     "params.betas[0] must be a string expression, got {'x': 1}"),
    ({"kind": "rank", "params": {"values": ["sqrt2", 2.5]}},
     "params.values[1] must be a string expression, got 2.5"),
])
def test_nested_config_keys_and_leaves_are_read_not_coerced(tmp_path, capsys, monkeypatch,
                                                             config, message):
    monkeypatch.setattr(runner.tempfile, "mkdtemp", _unreachable)
    path = write_config(tmp_path, {**config, "out_dir": str(tmp_path / "o")})
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert os.listdir(tmp_path) == ["config.json"]


def test_affine_and_ifs_numbers_are_read_by_their_decimal_form():
    """0.1 is 1/10, not the binary double next to it; a sign may be the inline form's string."""
    cfg = ExperimentConfig(kind="embed", affine={"m": 0.1, "b": 0.25})
    assert cfg.affine_map() == (F(1, 10), F(1, 4))
    maps = parse_ifs([{"ratio": 0.1}, {"ratio": "1/3", "shift": 0.5, "sign": "-1"}]).maps
    assert [(mp.ratio, mp.shift[0], mp.ortho) for mp in maps] == [(F(1, 10), 0, 1),
                                                                (F(1, 3), F(1, 2), -1)]


@pytest.mark.parametrize("steps, tolerance", [
    (("sqrt2", "sqrt3"), 0.0), (("sqrt2", "sqrt3"), 0.333), (("sqrt2",), 0.999),
])
def test_orbit_box_lower_takes_a_tolerance_below_its_bound(steps, tolerance):
    cfg = ExperimentConfig(kind="verify-theorem", steps=steps,
                           params={"theorem": "orbit-box-lower", "tolerance": tolerance})
    cfg.with_defaults().validate()


@pytest.mark.parametrize("argv", [
    ["orbit", "--steps", "sqrt2,sqrt3", "--strategy", "greedy", "--forbidden", "1", "--n", "10"],
    ["orbit", "--steps", "sqrt2,sqrt3", "--strategy", "greedy", "--forbidden", "a,b", "--n", "10"],
    ["orbit", "--steps", "sqrt2,sqrt3", "--word", "12x", "--n", "3"],
    ["orbit", "--steps", "1/0,sqrt2", "--seed", "1", "--n", "3"],
    ["boxdim", "--ifs", "1/3:0:x", "--kmin", "2", "--kmax", "6"],
    ["rank", "--values", "sqrt2,1/0"],
    ["embed", "--e-ifs", "1/3:0,1/4:3/4"],
])
def test_refused_flags_exit_2_before_any_stage(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(runner.tempfile, "mkdtemp", _unreachable)
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert os.listdir(tmp_path) == []


def test_run_on_a_directory_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 21]")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, message", [
    (["--e-ifs", "1/3:0", "--f-ifs", "1/9:0,1/9:8/9"], "E is a single point"),
    (["--e-ifs", "1/3:0,1/3:2/3", "--f-ifs", "1/9:0"], "F is a single point"),
    (["--b", "1/2"], "not in attractor"),
    (["--m", "0"], "M must be invertible"),
])
def test_degenerate_embedding_exits_2(tmp_path, capsys, argv, message):
    """A one-map E used to loop forever; the others ended in a traceback."""
    out = tmp_path / "o"
    assert main(["embed", *argv, "--n-max", "4", "--depth", "4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert os.listdir(tmp_path) == []


def test_every_recipe_has_one_handler():
    handlers = [record.handler for recipes in RECIPES.values() for record in recipes.values()]
    assert len(set(handlers)) == len(handlers)
    assert all(callable(getattr(runner, name, None)) for name in handlers)


def test_readme_states_each_recipe_parameter_as_the_table_does():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    for recipes in RECIPES.values():
        for recipe, record in recipes.items():
            for name, row in record.params.items():
                cells = " | ".join("-" if v is None else str(v) for v in row)
                line = f"| `{recipe}` | `{name}` | {cells} |"
                assert line in readme, line


# -- fuzz: every config and flag set ends in exit 0, 2 or 3 ------------------------------


def mostly(good, bad):
    """good in about nine draws of ten, else bad."""
    return st.integers(0, 9).flatmap(lambda i: good if i else bad)


JUNK = st.sampled_from(["x", None, [1], {}, 2.5, True, -1])
# sizes stay tiny, or lie below their least value or far past their guard
SIZE = mostly(st.integers(1, 3), st.one_of(st.integers(-1, 0), st.just(10**9), JUNK))
STEPS = st.lists(st.sampled_from(["sqrt2", "sqrt3", "1+2*sqrt2", "1/2"]), min_size=2, max_size=2)
BAD_EXPRS = st.lists(st.sampled_from(["sqrt2", "1/0", "x", "", 5]), max_size=2)
MAP = st.fixed_dictionaries(
    {"ratio": st.sampled_from(["1/3", "1/9", "1/2", "2", "0", "x"]),
     "shift": st.sampled_from(["0", "2/3", "8/9", "x"])},
    optional={"sign": st.sampled_from([1, -1, 2, "x", "-1", -1.7, True]),
              "shfit": st.just("2/3")},
)
NINTHS = [{"ratio": "1/9", "shift": "0"}, {"ratio": "1/9", "shift": "8/9"}]
EXPRS = mostly(st.just(["sqrt2", "1/3"]), st.one_of(BAD_EXPRS, JUNK))
# the params keys a recipe reads besides its sizes, drawn only where it reads them
READS = {"values": EXPRS, "betas": EXPRS,
         "include_one": mostly(st.booleans(), st.sampled_from(["false", 1, None]))}
# each field: its value in a run that works, and the values that may replace it
FIELDS = {
    "seed": (1, st.one_of(st.integers(-1, 3), JUNK)),
    "bits": (128, st.sampled_from([64, 100, 0, "x"])),
    "basis": (None, st.sampled_from([[{"label": "a", "value": "x"}], [{"value": "1"}], [5], "x"])),
    "steps": (["sqrt2", "sqrt3"], st.one_of(STEPS, BAD_EXPRS, JUNK)),
    "strategy": ({"type": "random"}, st.sampled_from([
        {"type": "word", "word": "1212"}, {"type": "periodic", "word": "12"},
        {"type": "greedy_avoid", "lo": "0.4", "hi": "0.6"}, {"type": "greedy_avoid"},
        {"type": "word", "word": "12x"}, {"type": "nope"}, {}, "random",
        {"type": "greedy_avoid", "cellbits": 4}, {"type": "random", "word": "12"}]) | st.builds(
        lambda cell_bits: {"type": "greedy_avoid", "cell_bits": cell_bits},
        st.one_of(st.integers(-1, 26), st.sampled_from([40, 200]), JUNK))),
    "scales": ([2, 6], st.one_of(st.lists(st.integers(-1, 8), max_size=3), JUNK)),
    "ifs": (IFS_CANTOR, st.one_of(st.lists(MAP, max_size=3), JUNK)),
    "ifs_f": (NINTHS, st.one_of(st.lists(MAP, max_size=3), JUNK)),
    "affine": (None, st.one_of(st.fixed_dictionaries({}, optional={
        "m": st.sampled_from(["1", "1/3", "0", "x", None, 0.1, True]),
        "b": st.sampled_from(["0", "2/3", "1/2", "x", False]), "B": st.just("2/3")}), JUNK)),
    # always given: the verify recipes' own orbit has 10**6 points
    "n": (50, st.one_of(st.integers(-1, 200), JUNK)),
}


@st.composite
def configs(draw):
    kind = draw(mostly(st.sampled_from(list(RECIPES)), st.just("nope")))
    recipe, params = kind, {}
    if kind in ("verify-theorem", "diophantine"):
        recipe = draw(mostly(st.sampled_from(list(RECIPES[kind])), st.just("nope")))
        params = {"theorem" if kind == "verify-theorem" else "op": recipe}
    record = RECIPES.get(kind, {}).get(recipe)
    for name in record.params if record else ():  # every size given, so none defaults
        params[name] = draw(SIZE)
    for name in record.reads if record else ():  # values, betas or include_one
        params[name] = draw(READS[name])
    raw = {"kind": kind, "params": params}
    for key, (good, other) in FIELDS.items():
        pick = draw(st.integers(0, 7))  # keep, drop or replace
        if pick < 5 and good is not None:
            raw[key] = good
        elif pick == 7 or key == "n":
            raw[key] = draw(other)
    return draw(mostly(st.just(raw), JUNK))


# each flag: a value that works, and the values that may replace it
FLAGS = {
    "--steps": ("sqrt2,sqrt3", ["sqrt2", "1/2,1/2", "1/0,sqrt2", "x", ""]),
    "--strategy": ("random", ["greedy", "nope"]),
    "--word": ("12" * 25, ["12x", "3"]),
    "--forbidden": ("0.4,0.6", ["1", "a,b"]),
    "--seed": ("1", ["-1", "0"]),
    "--bits": ("128", ["64", "100", "0"]),
    "--ifs": ("1/3:0,1/3:2/3", ["1/3:0:x", "1/3:0", "2:0", "x"]),
    "--e-ifs": ("1/3:0,1/3:2/3", ["1/3:0", "1/2:0,1/2:1/2"]),
    "--f-ifs": ("1/9:0,1/9:8/9", ["1/9:0", "x"]),
    "--kmin": ("2", ["-1", "6"]),
    "--kmax": ("6", ["4", "70"]),
    "--values": ("sqrt2,1+2*sqrt2", ["sqrt2,1/0", "x"]),
    "--m": ("1", ["0", "1/3", "x"]),
    "--b": ("0", ["1/2", "2/3", "x"]),
    "--trials": ("2", ["0", "1000000000"]),
    "--n": ("50", ["-1", "0", "1", "200"]),
    "--depth": ("3", ["-1", "0"]),
    "--n-max": ("3", ["-1", "1"]),
}
# per subcommand: the flags always given (the required ones and the sizes), and the others
SUBCOMMANDS = {
    "verify": (["--n"], ["--steps", "--strategy", "--forbidden", "--seed", "--bits", "--kmin",
                         "--kmax", "--trials"]),
    "orbit": (["--steps", "--n", "--seed"], ["--strategy", "--word", "--forbidden", "--bits"]),
    "boxdim": (["--kmin", "--kmax", "--depth"], ["--steps", "--strategy", "--word", "--forbidden",
                                                 "--n", "--ifs", "--seed", "--bits"]),
    "rank": (["--values"], ["--bits"]),
    "embed": (["--n-max", "--depth"], ["--e-ifs", "--f-ifs", "--m", "--b", "--bits"]),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    given_flags, optional = SUBCOMMANDS[command]
    argv = [command]
    if command == "verify":
        theorem = draw(mostly(st.sampled_from(list(RECIPES["verify-theorem"])), st.just("nope")))
        record = RECIPES["verify-theorem"].get(theorem)
        rows = record.params if record else {}
        params = json.dumps({name: draw(SIZE) for name in rows})
        argv += [theorem, "--params", draw(mostly(st.just(params), st.sampled_from(["[1]", "{"])))]
    for flag in given_flags + draw(st.lists(st.sampled_from(optional), unique=True)):
        good, other = FLAGS[flag]
        argv += [flag, draw(mostly(st.just(good), st.sampled_from(other)))]
    return argv


def _check_fuzzed_run(argv_for_out):
    """Run main on the argv made for a fresh directory; a failed run leaves no output."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = argv_for_out(tmp)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3)
        if code:
            assert not os.path.exists(os.path.join(tmp, "o"))


# run's overrides: each left out, or a value that works or one that is refused
OVERRIDES = st.fixed_dictionaries({}, optional={
    "--seed": st.sampled_from(["1", "0", "-1"]), "--bits": st.sampled_from(["128", "64", "100", "0"])})


@settings(derandomize=True, max_examples=200, deadline=None)
@given(configs(), OVERRIDES)
def test_fuzzed_configs_exit_0_2_or_3(raw, overrides):
    def argv(tmp):
        path = os.path.join(tmp, "config.json")
        payload = {**raw, "out_dir": os.path.join(tmp, "o")} if isinstance(raw, dict) else raw
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return ["run", path, *(part for flag, value in overrides.items() for part in (flag, value))]

    _check_fuzzed_run(argv)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(argvs())
def test_fuzzed_flags_exit_0_2_or_3(argv):
    _check_fuzzed_run(lambda tmp: argv + ["--out", os.path.join(tmp, "o")])
