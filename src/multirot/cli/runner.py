"""Experiment dispatch: run a validated config, emit CSV/JSON/SVG artifacts.

Each handler runs on the `RunInputs` that `ExperimentConfig.validate`
returned: its steps, strategy, IFSs, affine map and params are parsed
there once, and no handler reads the config's fields again.

Outputs are deterministic for a fixed config and seed: CSV files use LF
line endings and fixed column orders, JSON summaries are key-sorted, and
every file gets the mode the umask gives new files.  A run writes its
artifacts into a fresh staging directory in the nearest existing
directory on the output path and moves them into place only when the
handler and the summary have both succeeded; a failed or interrupted run
leaves the output location as it was.  Entries run sequentially; nothing
in the output depends on any parallelism setting.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .. import boxdim as bx
from ..diophantine import kxn_separation, pigeonhole_approx
from ..embedtrace import build_instance, induced_step_system, sn_sequence, threshold_c
from ..errors import ConfigError, DomainError, GuardError, UsageError
from ..exact.independence import q_independent_mod1, qplus_independent_mod1, rank_span
from ..ifs import attractor_sample, similarity_dimension, ssc_check
from ..orbit.generate import generate_orbit, reduced_orbit, tau_discrepancy
from ..orbit.io import write_orb1, write_orbit_csv
from ..svgplot import loglog_svg
from .config import ExperimentConfig, box_lower_bound

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GUARD = 3


def atomic_write(path: str, data: str | bytes) -> None:
    """Write data to path inside the run's stage; text is UTF-8 with LF kept as is.

    The run publishes the stage only on success, which is what makes the
    write atomic.
    """
    binary = isinstance(data, bytes)
    kwargs = {} if binary else {"newline": "", "encoding": "utf-8"}
    with open(path, "wb" if binary else "w", **kwargs) as fh:
        fh.write(data)


def atomic_via(writer, path: str) -> str:
    """Run a path-taking writer against path inside the run's stage; return path."""
    writer(path)
    return path


def _fraction_text(q: Fraction) -> str:
    # Decimal, unlike str, writes ints past the interpreter's 4300-digit limit
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


def _jsonable(value):
    if isinstance(value, Fraction):
        return _fraction_text(value)
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
    """Write summary.json, key-sorted, into out_dir, the run's stage."""
    path = os.path.join(out_dir, "summary.json")
    atomic_write(path, json.dumps(_jsonable(summary), sort_keys=True, indent=2) + "\n")
    return path


def write_csv(out_dir: str, name: str, header: list[str], rows: list[list]) -> str:
    """Write a small table as out_dir/name, inside the run's stage, one `_csv_cell` per cell."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(c) for c in row))
    path = os.path.join(out_dir, name)
    atomic_write(path, "\n".join(lines) + "\n")
    return path


def _csv_cell(c) -> str:
    """The one CSV cell format: Fraction as n/d, float repr, lower-case bools."""
    if isinstance(c, Fraction):
        return _fraction_text(c)
    if isinstance(c, float):
        return repr(c)
    if isinstance(c, bool):
        return str(c).lower()
    return str(c)


@dataclass
class RunResult:
    exit_code: int
    summary: dict
    artifacts: list[str]


def _make_stage(out: str) -> str:
    """A fresh staging directory in the nearest existing ancestor of out."""
    parent = os.path.abspath(out)
    while not os.path.lexists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise ConfigError(f"output path {parent} is not a directory")
    try:
        return tempfile.mkdtemp(prefix=".stage-", dir=parent)
    except OSError as exc:
        raise ConfigError(f"cannot write under {parent}: {exc.strerror}") from None


def run_config(cfg: ExperimentConfig, out_dir: str | None = None) -> RunResult:
    """Fill in the recipe's defaults, validate once, run in a staging directory, then publish.

    validate checks the config the handler runs, so an input it refuses
    ends the run before the stage exists, and the handler runs on the
    RunInputs that validate returned, parsing nothing again.  The
    artifacts move into the output directory, made if missing, only after
    the handler and the summary have both succeeded.  A failed or interrupted run leaves no
    new directory and no artifact behind, and a directory that existed
    before the run keeps its contents.  A refused input is exit 2 and a
    guarded size exit 3, each with the reason as the summary's error.
    """
    out = out_dir or cfg.out_dir
    stage = None
    try:
        cfg = cfg.with_defaults()
        inputs = cfg.validate()
        stage = _make_stage(out)
        summary, staged = globals()[cfg.record.handler](inputs, stage)
        summary = _jsonable(summary)
        staged.append(write_summary(stage, summary))
        os.makedirs(out, exist_ok=True)
        artifacts = [os.path.join(out, os.path.basename(path)) for path in staged]
        for src, dst in zip(staged, artifacts):
            os.replace(src, dst)
    except (ConfigError, UsageError, DomainError) as exc:
        return RunResult(EXIT_VALIDATION, {"error": str(exc)}, [])
    except GuardError as exc:
        return RunResult(EXIT_GUARD, {"error": str(exc)}, [])
    finally:
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)
    return RunResult(EXIT_OK, summary, artifacts)


# -- kind handlers ---------------------------------------------------------------

def _run_rank(inputs, out):
    (exprs, reals), include_one = inputs.params["values"], inputs.params["include_one"]
    rank = rank_span(reals, include_one)
    rows = [[i, e] for i, e in enumerate(exprs)]
    csv = write_csv(out, "results.csv", ["index", "expression"], rows)
    return {"kind": "rank", "rank": rank, "include_one": include_one, "count": len(exprs)}, [csv]


def _run_independence(inputs, out):
    steps = inputs.steps
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
    return ";".join(map(_fraction_text, w or ()))


def _orbit(inputs):
    """The orbit of the config's orbit fields."""
    cfg = inputs.cfg
    return generate_orbit(inputs.steps, inputs.strategy, cfg.n, cfg.bits, cfg.seed)


def _run_orbit(inputs, out):
    steps, orbit = inputs.steps, _orbit(inputs)
    # tau before the CSV: the n-byte compares it frees raise glibc's dynamic
    # mmap threshold above results.csv's chunk buffers, which then come from
    # the heap.  At n = 10**6, tau after both files cost 1290 more page
    # faults (2465 against 1175) and no run time that 10 pairs of runs resolved.
    rep = tau_discrepancy(orbit, samples=min(4096, orbit.n)) if orbit.ell == 2 else None
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
    if rep is not None:
        summary["tau_estimate"] = rep.tau_estimate
        summary["tau_max_pair_defect"] = rep.max_pair_defect
    return summary, [csv_path, orb_path]


def _points_for_boxdim(inputs):
    ifs = inputs.ifs
    if ifs is not None:
        depth = inputs.params["depth"]
        return bx.CirclePoints.from_grid(*ifs.line_sample(depth)), {
            "source": "ifs", "depth": depth, "points": ifs.ell ** depth,
        }
    orbit = _orbit(inputs)
    return bx.CirclePoints.from_orbit(orbit), {
        "source": "orbit", "n": orbit.n, "strategy": orbit.strategy_descriptor,
    }


def _run_boxdim(inputs, out):
    points, meta = _points_for_boxdim(inputs)
    k_min, k_max = inputs.cfg.scales
    profile = bx.covering_profile(points, k_min, k_max)
    est = bx.box_dim_estimate(profile)
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
    return summary, _write_profile(out, profile)


def _write_profile(out, profile):
    """results.csv (k, N, log2N and the slope to k+1, blank on the last row) and plot.svg."""
    slopes = profile.slopes_local() + [""]
    rows = [[k, profile.counts[k], float(log2n), slope]
            for k, log2n, slope in zip(profile.ks(), profile.log2_counts(), slopes)]
    csv = write_csv(out, "results.csv", ["k", "N", "log2N", "local_slope"], rows)
    svg = os.path.join(out, "plot.svg")
    atomic_write(svg, loglog_svg(profile))
    return [csv, svg]


def _run_pigeonhole(inputs, out):
    betas = [x.value() for x in inputs.params["betas"][1]]
    m, cfg = inputs.params["m"], inputs.cfg
    res = pigeonhole_approx(betas, m, cfg.n, cfg.bits)
    rows = [[j, res.achieved[j], res.bound()] for j in range(res.r)]
    csv = write_csv(out, "results.csv", ["j", "achieved", "bound"], rows)
    summary = {
        "kind": "diophantine", "op": "pigeonhole", "k": res.k, "m": m, "n": cfg.n,
        "r": res.r, "path": res.path, "minimal": res.minimal,
        "k_space": res.k_space(),
    }
    return summary, [csv]


def _run_separation(inputs, out):
    red = reduced_orbit(_orbit(inputs))  # no reference keeps the orbit past this call
    report = kxn_separation(red.top64, inputs.params["k_min"], inputs.params["k_max"])
    rows = [[row.k, row.sup_norm, row.n_argmax] for row in report.rows]
    csv = write_csv(out, "results.csv", ["k", "sup_norm", "n_argmax"], rows)
    summary = {
        "kind": "diophantine", "op": "separation", "n": inputs.cfg.n,
        "flagged_below_one_fifth": report.flagged(),
        "shift_index": red.shift_index, "shift_amount": red.shift_amount,
    }
    return summary, [csv]


def _run_ifs(inputs, out):
    ifs, depth, sample_depth = inputs.ifs, inputs.params["depth"], inputs.params["sample_depth"]
    cert = ssc_check(ifs, depth)
    dim = similarity_dimension(ifs.ratios())
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


def _run_embed(inputs, out):
    e_ifs, f_ifs, (m, b) = inputs.ifs, inputs.ifs_f, inputs.affine
    n_max, depth = inputs.params["n_max"], inputs.params["depth"]
    inst = build_instance(e_ifs, f_ifs, m, b, coding_len=max(n_max, 8))
    trace = sn_sequence(inst, n_max, depth)
    rows = [[e.n, e.i_n, e.s_n, e.ratio, e.lower_ok, e.upper_ok] for e in trace.entries]
    csv = write_csv(out, "results.csv",
                    ["n", "i_n", "s_n", "ratio", "lower_bound_ok", "upper_bound_ok"], rows)
    steps = induced_step_system([mp.ratio for mp in e_ifs.maps], inst.gamma1)
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
    return summary, [csv]


# -- verify recipes ----------------------------------------------------------------

def _verify_scaled_covering(inputs, out):
    trials, max_points = inputs.params["trials"], inputs.params["max_points"]
    p_max, k_max = inputs.params["p_max"], inputs.params["k_max"]
    rng = np.random.default_rng(inputs.cfg.seed or 0)
    violations = 0
    checked = 0
    rows = []
    for t in range(trials):
        size = int(rng.integers(1, max_points + 1))
        pts = bx.CirclePoints(rng.integers(0, 1 << 63, size=size, dtype=np.int64).astype(np.uint64) << np.uint64(1))
        for res in bx.scaled_covering_checks(pts, p_max, k_max):
            checked += 1
            if not res.holds:
                violations += 1
                rows.append([t, res.p, res.k, res.lhs, res.rhs])
    csv = write_csv(out, "results.csv", ["trial", "p", "k", "lhs", "rhs"], rows)
    summary = {
        "kind": "verify-theorem", "theorem": "scaled-covering",
        "trials": trials, "checked": checked, "violations": violations,
        "pass": violations == 0,
    }
    return summary, [csv]


def _verify_difference_dense(inputs, out):
    k = inputs.params["k"]
    orbit = _orbit(inputs)
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


def _verify_orbit_box_lower(inputs, out):
    tolerance, steps, orbit = inputs.params["tolerance"], inputs.steps, _orbit(inputs)
    pts = bx.CirclePoints.from_orbit(orbit)
    profile = bx.covering_profile(pts, *inputs.cfg.scales)
    est = bx.box_dim_estimate(profile)
    bound = box_lower_bound(steps.r)
    ok = est.lower_est >= float(bound) - tolerance
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
    return summary, _write_profile(out, profile)


def _verify_trace_ratio_bounds(inputs, out):
    summary, artifacts = _run_embed(inputs, out)
    summary = {
        "kind": "verify-theorem", "theorem": "trace-ratio-bounds",
        "s_values": summary["s_values"],
        "ratio_lower_bound": summary["ratio_lower_bound"],
        "ratio_upper_bound": summary["ratio_upper_bound"],
        "pass": summary["all_within_bounds"],
    }
    return summary, artifacts


def _verify_dimension_threshold(inputs, out):
    ell_max, lam_max = inputs.params["ell_max"], inputs.params["lam_max"]
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
