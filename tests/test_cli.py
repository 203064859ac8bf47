"""Config schema, runner dispatch, determinism, exit codes."""

from __future__ import annotations

import json
import os

import pytest

from multirot.cli.config import ExperimentConfig, parse_step_expression
from multirot.cli.main import main
from multirot.cli import runner
from multirot.cli.runner import run_config, write_csv
from multirot.errors import ConfigError, GuardError, UsageError
from multirot.exact.symbolic import builtin_table
from multirot.orbit.generate import MAX_ORBIT_N


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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


def test_verify_difference_dense_small(tmp_path):
    cfg = ExperimentConfig(kind="verify-theorem", out_dir=str(tmp_path / "o"), seed=5,
                           steps=("sqrt2", "sqrt3"), strategy={"type": "random"},
                           n=100_000, params={"theorem": "difference-dense", "k": 10})
    result = run_config(cfg)
    assert result.exit_code == 0
    assert result.summary["pass"] is True


# -- command line ---------------------------------------------------------------------


def test_main_run_and_exit_codes(tmp_path, capsys):
    path = write_config(tmp_path, {
        "kind": "rank", "out_dir": str(tmp_path / "o"),
        "params": {"values": ["sqrt2", "sqrt3"], "include_one": True},
    })
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "rank = 3" in out


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
    """The pigeonhole op's n is the approximation target, not an orbit length."""
    cfg = ExperimentConfig(kind="diophantine", n=10 * MAX_ORBIT_N, params={"betas": ["sqrt2"]})
    cfg.validate()
    with pytest.raises(GuardError):
        ExperimentConfig(kind="boxdim", n=MAX_ORBIT_N + 1, scales=(2, 6)).validate()


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


def test_failed_run_keeps_a_directory_with_artifacts(tmp_path, monkeypatch):
    """Only empty directories go; a partial artifact stays until runs are staged."""
    def write_then_fail(cfg, out):
        write_csv(out, "results.csv", ["x"], [[1]])
        raise UsageError("failed after writing")

    monkeypatch.setitem(runner._HANDLERS, "rank", write_then_fail)
    out = tmp_path / "new" / "o"
    assert run_config(ExperimentConfig(kind="rank", out_dir=str(out))).exit_code == 2
    assert os.listdir(out) == ["results.csv"]
