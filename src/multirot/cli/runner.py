"""Experiment dispatch: run a validated config, emit CSV/JSON/SVG artifacts.

Outputs are deterministic for a fixed config and seed: CSV files use LF
line endings and fixed column orders, JSON summaries are key-sorted, and
every file is written atomically (temp file + rename) with the mode the
umask gives new files.  Entries run sequentially; nothing in the output
depends on any parallelism setting.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .. import boxdim as bx
from ..diophantine import kxn_separation, pigeonhole_approx, write_separation_csv
from ..embedtrace import (
    build_instance,
    induced_step_system,
    sn_sequence,
    threshold_c,
    write_trace_csv,
)
from ..errors import ConfigError, GuardError, UsageError
from ..exact.independence import q_independent_mod1, qplus_independent_mod1, rank_span
from ..ifs import attractor_sample, similarity_dimension, ssc_check
from ..orbit.generate import generate_orbit, reduced_orbit, tau_discrepancy
from ..orbit.io import write_orb1, write_orbit_csv
from .config import ExperimentConfig, parse_ifs, parse_step_expression

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GUARD = 3

VERIFY_TARGETS = (
    "scaled-covering",      # exact covering inequality on random sets
    "difference-dense",     # two-step orbit: difference set fills the circle or an interval shows
    "orbit-box-lower",      # lower box estimate against the 1/(r+1) bound
    "trace-ratio-bounds",   # embedding trace ratios inside their two-sided interval
    "dimension-threshold",  # the piecewise threshold table
)


def _publish(tmp: str, path: str) -> None:
    """Give a finished temp file the mode open() would have, then rename it."""
    # mkstemp creates 0600; umask can only be read by setting it
    umask = os.umask(0o022)
    os.umask(umask)
    os.chmod(tmp, 0o666 & ~umask)
    os.replace(tmp, path)


def atomic_write(path: str, data: str | bytes) -> None:
    binary = isinstance(data, bytes)
    kwargs = {} if binary else {"newline": "", "encoding": "utf-8"}
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb" if binary else "w", **kwargs) as fh:
            fh.write(data)
        _publish(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_via(writer, path: str) -> str:
    """Run a path-taking writer against a temp file, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    os.close(fd)
    try:
        writer(tmp)
        _publish(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _jsonable(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_summary(out_dir: str, summary: dict) -> str:
    path = os.path.join(out_dir, "summary.json")
    atomic_write(path, json.dumps(_jsonable(summary), sort_keys=True, indent=2) + "\n")
    return path


def write_csv(out_dir: str, name: str, header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(c) for c in row))
    path = os.path.join(out_dir, name)
    atomic_write(path, "\n".join(lines) + "\n")
    return path


def _csv_cell(c) -> str:
    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}"
    if isinstance(c, float):
        return repr(c)
    if isinstance(c, bool):
        return str(c).lower()
    return str(c)


def _param(cfg: ExperimentConfig, name: str, default, kind=int):
    """params[name], or default, converted by kind; a value it rejects is a config error."""
    value = cfg.params.get(name, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"params.{name} = {value!r} is not a valid {kind.__name__}") from None


@dataclass
class RunResult:
    exit_code: int
    summary: dict
    artifacts: list[str]


def _missing_dirs(path: str) -> list[str]:
    """The directories os.makedirs(path) would create, deepest first."""
    missing = []
    path = os.path.abspath(path)
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def _remove_if_empty(dirs: list[str]) -> None:
    for d in dirs:
        try:
            os.rmdir(d)
        except OSError:  # not empty (an artifact was written) or already gone
            return


def run_config(cfg: ExperimentConfig, out_dir: str | None = None) -> RunResult:
    """Validate and run a config.  A failed run removes the output directories
    it created while they are still empty; a directory that existed before
    the run is never touched."""
    out = out_dir or cfg.out_dir
    created: list[str] = []
    try:
        cfg.validate()
        created = _missing_dirs(out)
        os.makedirs(out, exist_ok=True)
        handler = _HANDLERS[cfg.kind]
        summary, artifacts = handler(cfg, out)
    except (ConfigError, UsageError) as exc:
        _remove_if_empty(created)
        return RunResult(EXIT_VALIDATION, {"error": str(exc)}, [])
    except GuardError as exc:
        _remove_if_empty(created)
        return RunResult(EXIT_GUARD, {"error": str(exc)}, [])
    summary = _jsonable(summary)
    summary_path = write_summary(out, summary)
    return RunResult(EXIT_OK, summary, artifacts + [summary_path])


# -- kind handlers ---------------------------------------------------------------

def _run_rank(cfg, out):
    table = cfg.basis_table()
    exprs = cfg.params.get("values") or list(cfg.steps or ())
    if not exprs:
        raise ConfigError("rank needs params.values or steps")
    reals = [parse_step_expression(e, table) for e in exprs]
    include_one = bool(cfg.params.get("include_one", False))
    rank = rank_span(reals, include_one)
    rows = [[i, e] for i, e in enumerate(exprs)]
    csv = write_csv(out, "results.csv", ["index", "expression"], rows)
    return {"kind": "rank", "rank": rank, "include_one": include_one, "count": len(exprs)}, [csv]


def _run_independence(cfg, out):
    steps = cfg.step_system()
    vplus = qplus_independent_mod1(steps)
    vq = q_independent_mod1(steps)
    rows = [
        ["qplus", vplus.independent, _witness_str(vplus.witness)],
        ["q", vq.independent, _witness_str(vq.witness)],
    ]
    csv = write_csv(out, "results.csv", ["relation", "independent", "witness"], rows)
    summary = {
        "kind": "independence",
        "qplus_independent": vplus.independent,
        "q_independent": vq.independent,
        "qplus_witness": _witness_str(vplus.witness),
        "q_witness": _witness_str(vq.witness),
        "r": steps.r,
        "lambda": steps.lam,
    }
    return summary, [csv]


def _witness_str(w):
    if w is None:
        return ""
    return ";".join(f"{t.numerator}/{t.denominator}" for t in w)


def _run_orbit(cfg, out):
    steps = cfg.step_system()
    if cfg.n is None:
        raise ConfigError("orbit needs n")
    orbit = generate_orbit(steps, cfg.strategy_object(), cfg.n, cfg.bits, cfg.seed)
    csv_path = atomic_via(lambda p: write_orbit_csv(orbit, p), os.path.join(out, "results.csv"))
    orb_path = atomic_via(lambda p: write_orb1(orbit, p), os.path.join(out, "orbit.orb1"))
    summary = {
        "kind": "orbit",
        "n": orbit.n,
        "ell": orbit.ell,
        "r": steps.r,
        "lambda": steps.lam,
        "strategy": orbit.strategy_descriptor,
        "error_bound": orbit.error_bound,
        "final_point_hex": format(orbit.point(orbit.n), "x"),
    }
    if orbit.ell == 2:
        rep = tau_discrepancy(orbit, samples=min(4096, orbit.n))
        summary["tau_estimate"] = rep.tau_estimate
        summary["tau_max_pair_defect"] = rep.max_pair_defect
    return summary, [csv_path, orb_path]


def _points_for_boxdim(cfg):
    if cfg.ifs is not None:
        depth = _param(cfg, "depth", 10)
        ifs = parse_ifs(cfg.ifs)
        sample = attractor_sample(ifs, depth)
        return bx.CirclePoints.from_unit_reals([p[0] for p in sample]), {
            "source": "ifs", "depth": depth, "points": len(sample),
        }
    steps = cfg.step_system()
    if cfg.n is None:
        raise ConfigError("boxdim needs n (orbit route) or an ifs")
    orbit = generate_orbit(steps, cfg.strategy_object(), cfg.n, cfg.bits, cfg.seed)
    return bx.CirclePoints.from_orbit(orbit), {
        "source": "orbit", "n": orbit.n, "strategy": orbit.strategy_descriptor,
    }


def _run_boxdim(cfg, out):
    if cfg.scales is None:
        raise ConfigError("boxdim needs scales [k_min, k_max]")
    points, meta = _points_for_boxdim(cfg)
    k_min, k_max = cfg.scales
    profile = bx.covering_profile(points, k_min, k_max)
    est = bx.box_dim_estimate(profile)
    csv_path = atomic_via(lambda p: bx.write_profile_csv(profile, p),
                          os.path.join(out, "results.csv"))
    svg_path = atomic_via(lambda p: bx.write_profile_svg(profile, p),
                          os.path.join(out, "plot.svg"))
    summary = {
        "kind": "boxdim",
        **meta,
        "k_min": k_min,
        "k_max": k_max,
        "lower_est": est.lower_est,
        "upper_est": est.upper_est,
        "slope_global": est.slope_global,
        "resolution_limited": est.resolution_limited,
    }
    return summary, [csv_path, svg_path]


def _run_diophantine(cfg, out):
    op = cfg.params.get("op", "pigeonhole")
    if op == "pigeonhole":
        table = cfg.basis_table()
        exprs = cfg.params.get("betas")
        if not exprs:
            raise ConfigError("pigeonhole needs params.betas")
        betas = [parse_step_expression(e, table).value() for e in exprs]
        m = _param(cfg, "m", 1)
        if cfg.n is None:
            raise ConfigError("pigeonhole needs n")
        res = pigeonhole_approx(betas, m, cfg.n, cfg.bits)
        rows = [[j, res.achieved[j], res.bound()] for j in range(res.r)]
        csv = write_csv(out, "results.csv", ["j", "achieved", "bound"], rows)
        summary = {
            "kind": "diophantine", "op": op, "k": res.k, "m": m, "n": cfg.n,
            "r": res.r, "path": res.path, "minimal": res.minimal,
            "k_space": res.k_space(),
        }
        return summary, [csv]
    if op == "separation":
        steps = cfg.step_system()
        orbit = generate_orbit(steps, cfg.strategy_object(), cfg.n, cfg.bits, cfg.seed)
        red = reduced_orbit(orbit)
        report = kxn_separation(red.top64(), _param(cfg, "k_min", 1),
                                _param(cfg, "k_max", 100))
        csv_path = atomic_via(lambda p: write_separation_csv(report, p),
                              os.path.join(out, "results.csv"))
        summary = {
            "kind": "diophantine", "op": op, "n": orbit.n,
            "flagged_below_one_fifth": report.flagged(),
            "shift_index": red.shift_index, "shift_amount": red.shift_amount,
        }
        return summary, [csv_path]
    raise ConfigError(f"unknown diophantine op {op!r}")


def _run_ifs(cfg, out):
    if cfg.ifs is None:
        raise ConfigError("ifs kind needs an ifs definition")
    ifs = parse_ifs(cfg.ifs)
    depth = _param(cfg, "depth", 6)
    cert = ssc_check(ifs, depth)
    dim = similarity_dimension(ifs.ratios())
    sample_depth = _param(cfg, "sample_depth", min(depth + 4, 12))
    sample = attractor_sample(ifs, sample_depth)
    rows = [[i, p[0]] for i, p in enumerate(sample)]
    csv = write_csv(out, "results.csv", ["index", "x"], rows)
    lo, hi = ifs.hull().interval()
    summary = {
        "kind": "ifs",
        "maps": ifs.ell,
        "similarity_dimension": dim,
        "ssc_certified": cert.certified,
        "ssc_delta": cert.delta if cert.delta is not None else "",
        "hull": [lo, hi],
        "sample_depth": sample_depth,
        "sample_points": len(sample),
    }
    return summary, [csv]


def _default_embed_pair():
    e = (("1/3", "0"), ("1/3", "2/3"))
    f = (("1/9", "0"), ("1/9", "8/9"))
    to_spec = lambda pairs: tuple({"ratio": r, "shift": s} for r, s in pairs)
    return to_spec(e), to_spec(f)


def _run_embed(cfg, out):
    e_spec, f_spec = cfg.ifs, cfg.ifs_f
    if e_spec is None or f_spec is None:
        e_spec, f_spec = _default_embed_pair()
    e_ifs, f_ifs = parse_ifs(e_spec), parse_ifs(f_spec)
    affine = cfg.affine or {"m": "1", "b": "0"}
    m, b = Fraction(affine["m"]), Fraction(affine["b"])
    n_max = _param(cfg, "n_max", 24)
    depth = _param(cfg, "depth", 8)
    inst = build_instance(e_ifs, f_ifs, m, b, coding_len=max(n_max, 8))
    trace = sn_sequence(inst, n_max, depth)
    csv_path = atomic_via(lambda p: write_trace_csv(trace, p),
                          os.path.join(out, "results.csv"))
    steps = induced_step_system([mp.ratio for mp in e_ifs.maps], inst.gamma1, cfg.bits)
    verdict = qplus_independent_mod1(steps)
    summary = {
        "kind": "embed",
        "ell_power": inst.ell_power,
        "gamma1": inst.gamma1,
        "delta": inst.delta,
        "coding_prefix": "".join(map(str, inst.coding[:16])),
        "s_values": trace.s_values(),
        "ratio_lower_bound": trace.lower_bound,
        "ratio_upper_bound": trace.upper_bound,
        "all_within_bounds": trace.all_within_bounds(),
        "induced_r": steps.r,
        "induced_lambda": steps.lam,
        "induced_qplus_independent": verdict.independent,
        "threshold_c": threshold_c(max(e_ifs.ell, 2), max(steps.lam, 1)),
    }
    return summary, [csv_path]


# -- verify recipes ----------------------------------------------------------------

def verify_theorem(name: str, cfg: ExperimentConfig, out: str):
    if name not in VERIFY_TARGETS:
        raise ConfigError(
            f"unknown verify target {name!r}; expected one of {', '.join(VERIFY_TARGETS)}"
        )
    return _VERIFIERS[name](cfg, out)


def _verify_scaled_covering(cfg, out):
    trials = _param(cfg, "trials", 1000)
    max_points = _param(cfg, "max_points", 256)
    p_max = _param(cfg, "p_max", 16)
    k_max = _param(cfg, "k_max", 12)
    rng = np.random.default_rng(cfg.seed if cfg.seed is not None else 0)
    violations = 0
    checked = 0
    rows = []
    for t in range(trials):
        size = int(rng.integers(1, max_points + 1))
        pts = bx.CirclePoints(rng.integers(0, 1 << 63, size=size, dtype=np.int64).astype(np.uint64) << np.uint64(1))
        for k in range(1, k_max + 1):
            for p in range(1, min(p_max, (1 << k) - 1) + 1):
                res = bx.scaled_covering_check(pts, p, k)
                checked += 1
                if not res.holds:
                    violations += 1
                    rows.append([t, p, k, res.lhs, res.rhs])
    csv = write_csv(out, "results.csv", ["trial", "p", "k", "lhs", "rhs"], rows)
    summary = {
        "kind": "verify-theorem", "theorem": "scaled-covering",
        "trials": trials, "checked": checked, "violations": violations,
        "pass": violations == 0,
    }
    return summary, [csv]


def _orbit_from_cfg(cfg, default_steps=("sqrt2", "sqrt3"), default_n=10**6):
    wcfg = cfg
    if cfg.steps is None:
        wcfg = ExperimentConfig(
            kind=cfg.kind, out_dir=cfg.out_dir, seed=cfg.seed, bits=cfg.bits,
            steps=default_steps, strategy=cfg.strategy or {"type": "random"},
            n=cfg.n or default_n, params=cfg.params,
        )
    steps = wcfg.step_system()
    strategy = wcfg.strategy_object() if wcfg.strategy else None
    if strategy is None:
        from ..orbit.strategies import RandomSymbols

        strategy = RandomSymbols()
    seed = wcfg.seed if wcfg.seed is not None else 0
    n = wcfg.n or default_n
    return steps, generate_orbit(steps, strategy, n, wcfg.bits, seed)


def _verify_difference_dense(cfg, out):
    k = _param(cfg, "k", 12)
    steps, orbit = _orbit_from_cfg(cfg)
    pts = bx.CirclePoints.from_orbit(orbit)
    diff = bx.difference_set(pts, cell_k=k)
    total = 1 << k
    filled = diff.cell_count
    gap = bx.gap_profile(pts, k)
    run_needed = 1 << max(k - 8, 0)
    interval_certified = gap.longest_run_cells >= run_needed
    rows = [[k, filled, total, gap.longest_run_cells, run_needed]]
    csv = write_csv(out, "results.csv",
                    ["k", "difference_cells", "total_cells", "longest_run", "run_needed"], rows)
    summary = {
        "kind": "verify-theorem", "theorem": "difference-dense",
        "n": orbit.n, "k": k,
        "difference_cells": filled, "total_cells": total,
        "difference_fills_circle": filled == total,
        "interval_certified": interval_certified,
        "longest_run_cells": gap.longest_run_cells,
        "pass": filled == total or interval_certified,
        "note": "difference cells carry one-cell slack relative to true differences",
    }
    return summary, [csv]


def _verify_orbit_box_lower(cfg, out):
    scales = cfg.scales or (6, 14)
    tolerance = _param(cfg, "tolerance", 0.1, float)
    steps, orbit = _orbit_from_cfg(cfg)
    pts = bx.CirclePoints.from_orbit(orbit)
    profile = bx.covering_profile(pts, scales[0], scales[1])
    est = bx.box_dim_estimate(profile)
    bound = Fraction(1) if steps.r == 1 else Fraction(1, steps.r + 1)
    ok = est.lower_est >= float(bound) - tolerance
    csv_path = atomic_via(lambda p: bx.write_profile_csv(profile, p),
                          os.path.join(out, "results.csv"))
    svg_path = atomic_via(lambda p: bx.write_profile_svg(profile, p),
                          os.path.join(out, "plot.svg"))
    summary = {
        "kind": "verify-theorem", "theorem": "orbit-box-lower",
        "n": orbit.n, "r": steps.r, "lambda": steps.lam,
        "strategy": orbit.strategy_descriptor,
        "bound": bound, "tolerance": tolerance,
        "lower_box_estimate": est.lower_est,
        "upper_box_estimate": est.upper_est,
        "slope_global": est.slope_global,
        "pass": ok,
    }
    return summary, [csv_path, svg_path]


def _verify_trace_ratio_bounds(cfg, out):
    summary, artifacts = _run_embed(cfg, out)
    summary = {
        "kind": "verify-theorem", "theorem": "trace-ratio-bounds",
        "s_values": summary["s_values"],
        "ratio_lower_bound": summary["ratio_lower_bound"],
        "ratio_upper_bound": summary["ratio_upper_bound"],
        "pass": summary["all_within_bounds"],
    }
    return summary, artifacts


def _verify_dimension_threshold(cfg, out):
    ell_max = _param(cfg, "ell_max", 6)
    lam_max = _param(cfg, "lam_max", 5)
    rows = []
    ok = True
    for ell in range(2, ell_max + 1):
        for lam in range(1, lam_max + 1):
            got = threshold_c(ell, lam)
            if ell == 2 or lam == 1:
                want = Fraction(1, 4)
            else:
                want = Fraction(1, 2 * lam + 2)
            ok = ok and got == want
            rows.append([ell, lam, got, want, got == want])
    csv = write_csv(out, "results.csv", ["ell", "lambda", "c", "expected", "match"], rows)
    summary = {
        "kind": "verify-theorem", "theorem": "dimension-threshold",
        "cells": len(rows), "pass": ok,
    }
    return summary, [csv]


def _run_verify(cfg, out):
    name = cfg.params.get("theorem")
    return verify_theorem(name, cfg, out)


_HANDLERS = {
    "rank": _run_rank,
    "independence": _run_independence,
    "orbit": _run_orbit,
    "boxdim": _run_boxdim,
    "diophantine": _run_diophantine,
    "ifs": _run_ifs,
    "embed": _run_embed,
    "verify-theorem": _run_verify,
}

_VERIFIERS = {
    "scaled-covering": _verify_scaled_covering,
    "difference-dense": _verify_difference_dense,
    "orbit-box-lower": _verify_orbit_box_lower,
    "trace-ratio-bounds": _verify_trace_ratio_bounds,
    "dimension-threshold": _verify_dimension_threshold,
}
