"""multirot benchmark: end-to-end and per-layer metrics of four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is orbit-export, orbit-analysis, covering-check, exact-core or all.
S must equal run_seconds of BENCHMARK.json, so that every run of every
commit measures for the same time.  Each workload repeats one operation
("op") until S seconds of ops have been timed; every op's inputs derive
from --seed and the op's index.  An op launches one
`python3 perfbench/launch.py` process per CLI recipe (`multirot run
CONFIG --jobs 2`) or per exact-core batch, and is checked (untimed)
against exit codes, recipe verdicts, golden artifact hashes (golden.json,
config seed 0) and exact oracles.

--trace 0 reports:
  wall_s       mean over ops of the time from launch of the op's first
               process to its last artifact
  setup_s      median over processes of the time from launch until
               `multirot.cli.main` is imported
  peak_rss_mb  median over ops of the largest resident set of the op's
               processes
  throughput   work units of all ops / their summed (wall - setup time)
wall_s and throughput take in every op of the run rather than a median:
a run holds only 2-14 ops, and the machine's speed drifts over seconds,
so a median of so few ops follows the drift more than the mean does.

The times are reported at the reference speed.  On a shared machine the
CPU speed drifts by up to twofold over minutes, far more than the bounds
of BENCHMARK.json, and a run cannot outlast that drift.  So each run
also times a fixed reference task, which runs no multirot code, after
each setup probe, before each op and after the last, and scales wall_s and
setup_s by REFERENCE_NOMINAL_S / (median reference time), and throughput
by its inverse.  A change to multirot moves the metrics and not the
reference; a change of the machine's speed moves both.  The measured
values and the reference time are printed too.

--trace 1 alternates untraced and traced ops and reports the per-layer
metrics of BENCHMARK.json from the traced ones (tracer.py), plus
trace.overhead_s, the median over op indices of traced wall_s minus
untraced wall_s (both ops of an index share their inputs).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines before it print each metric with its unit, the
error rate (failed / attempted) and the work counts of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import exact_core  # noqa: E402
import oracles  # noqa: E402
from tracer import layer_totals  # noqa: E402

N_ORBIT = 10**6
COVER_TRIALS = 4      # trials per covering-check op
COVER_MAX_POINTS = 256
SETUP_PROBES = 5      # import-only launches per run; the first, cold one is not timed
# The reference task: interpreter start, the numpy and stdlib imports, hex
# formatting, a Python loop and a numpy sort, the kinds of work the
# workloads do, in no multirot code.  Its launch-to-exit time was about
# REFERENCE_NOMINAL_S on a 2-core x86_64 machine at its usual speed.
REFERENCE_CODE = (
    "import json, fractions, decimal\n"
    "import numpy as np\n"
    "rows = ','.join(format(i * 0x9E3779B97F4A7C15 % (1 << 128), '032x') for i in range(40000))\n"
    "acc = sum(i * i % 7 for i in range(200000))\n"
    "a = np.arange(1 << 18, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)\n"
    "a.sort()\n"
)
REFERENCE_NOMINAL_S = 0.27
# Declared 60-digit basis for the orbit steps; the orbit oracle recomputes
# points from these same strings.
BASIS = (
    {"label": "sqrt2", "value": "1.41421356237309504880168872420969807856967187537694807317668"},
    {"label": "sqrt3", "value": "1.73205080756887729352744634150587236694280525381038062805581"},
)
ARTIFACTS = ("results.csv", "orbit.orb1", "summary.json", "plot.svg")


def orbit_config(seed: int, strategy: dict, **extra) -> dict:
    return {"kind": "orbit", "seed": seed, "bits": 128, "basis": [dict(b) for b in BASIS],
            "steps": ["sqrt2", "sqrt3"], "strategy": strategy, "n": N_ORBIT, **extra}


def covering_seed(op_seed: int) -> int:
    """First config seed from op_seed * 1000 on whose drawn set sizes carry
    the size law's mean work.

    The recipe draws each trial's size uniformly from 1..256 and its cost
    grows with size squared, so four unconditioned trials vary about
    twofold in cost from seed to seed.  Taking the first seed whose sum of
    squared sizes is within 2 % of its expectation keeps every op at the
    same amount of work; the sets themselves stay random.
    """
    target = COVER_TRIALS * (COVER_MAX_POINTS + 1) * (2 * COVER_MAX_POINTS + 1) / 6
    seed = op_seed * 1000
    while True:
        sizes = oracles.covering_sizes(seed, COVER_TRIALS, COVER_MAX_POINTS)
        if abs(sum(s * s for s in sizes) - target) <= 0.02 * target:
            return seed
        seed += 1


def recipe_configs(workload: str, op_seed: int) -> list[tuple[str, dict]]:
    """(recipe name, config without out_dir) for each process of an op."""
    if workload == "orbit-export":
        return [("orbit", orbit_config(op_seed, {"type": "random"}))]
    if workload == "orbit-analysis":
        return [
            ("orbit-box-lower", orbit_config(
                op_seed, {"type": "greedy_avoid", "lo": "0.4", "hi": "0.6"},
                kind="verify-theorem", scales=[6, 14], params={"theorem": "orbit-box-lower"})),
            ("difference-dense", orbit_config(
                op_seed, {"type": "random"}, kind="verify-theorem",
                params={"theorem": "difference-dense", "k": 12})),
            ("separation", orbit_config(
                op_seed, {"type": "random"}, kind="diophantine",
                params={"op": "separation", "k_min": 1, "k_max": 100})),
        ]
    if workload == "covering-check":
        return [("scaled-covering", {
            "kind": "verify-theorem", "seed": covering_seed(op_seed), "bits": 128,
            "params": {"theorem": "scaled-covering", "trials": COVER_TRIALS,
                       "max_points": COVER_MAX_POINTS, "p_max": 16, "k_max": 12}})]
    raise ValueError(workload)


def config_digest(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def artifact_hashes(out: Path) -> dict[str, str]:
    return {name: sha256_file(out / name) for name in ARTIFACTS if (out / name).exists()}


class Runner:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.golden = json.loads((HERE / "golden.json").read_text())

    def launch(self, name: str, mode: str, target: Path, traced: bool) -> dict:
        """Run one launch.py process; its timings, peak RSS, report and log."""
        report = self.workdir / f"{name}.report.json"
        log = self.workdir / f"{name}.log"
        cmd = [sys.executable, str(HERE / "launch.py"), str(report), mode, str(target)]
        if traced:
            cmd.append("--trace")
        with open(log, "wb") as fh:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        rep = json.loads(report.read_text()) if report.exists() else {}
        ok = proc.returncode == 0 and "done" in rep
        if ok and not str(rep["module"]).startswith(str(SRC)):
            ok = False
            rep["error"] = f"imported multirot from {rep['module']}, not {SRC}"
        return {
            "ok": ok,
            "exit": proc.returncode,
            "setup": rep["ready"] - t0 if ok else None,
            "wall": rep["done"] - t0 if ok else None,
            "elapsed": elapsed,
            "rss_mb": usage.ru_maxrss / 1024,
            "report": rep,
            "log": log.read_text(errors="replace")[-2000:],
        }

    def reference(self) -> float:
        """Launch-to-exit time of one run of the reference task."""
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, "-c", REFERENCE_CODE], cwd=ROOT,
                                stdout=subprocess.DEVNULL)
        _, status, _ = os.wait4(proc.pid, 0)
        elapsed = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"reference task exited {proc.returncode}")
        return elapsed

    def run_op(self, workload: str, seed: int, index: int, traced: bool) -> dict:
        op_seed = seed * 1000 + index
        tag = f"op{index}{'t' if traced else ''}"
        if workload == "exact-core":
            return self._exact_op(op_seed, tag, traced)
        procs, failures, units, failed = [], [], 0, 0
        for recipe, cfg in recipe_configs(workload, op_seed):
            out = self.workdir / f"{tag}-{recipe}"
            cfg_path = self.workdir / f"{tag}-{recipe}.json"
            cfg_path.write_text(json.dumps({**cfg, "out_dir": str(out)}, indent=2))
            proc = self.launch(f"{tag}-{recipe}", "cli", cfg_path, traced)
            procs.append(proc)
            problems = self._check_recipe(recipe, cfg, out, proc)
            failures += [f"{recipe} (config seed {cfg['seed']}): {p}" for p in problems]
            if problems:
                failed += 1
            else:
                units += self._units(recipe, out)
            shutil.rmtree(out, ignore_errors=True)
        return self._op_record(procs, units, len(procs), failed, failures)

    def _exact_op(self, op_seed: int, tag: str, traced: bool) -> dict:
        spec = exact_core.make_spec(op_seed)
        spec_path = self.workdir / f"{tag}-exact.json"
        spec_path.write_text(json.dumps(spec))
        proc = self.launch(f"{tag}-exact", "exact", spec_path, traced)
        count = exact_core.instance_count(spec)
        if not proc["ok"]:
            failures = [f"exact-core batch (seed {op_seed}) exited {proc['exit']}: {proc['log']}"]
            return self._op_record([proc], 0, count, count, failures)
        bad = proc["report"]["failures"]
        failures = [f"exact-core (seed {op_seed}) {k}: {v}" for k, v in bad.items()]
        return self._op_record([proc], count - len(bad), count, len(bad), failures)

    @staticmethod
    def _units(recipe: str, out: Path) -> int:
        if recipe == "scaled-covering":
            return json.loads((out / "summary.json").read_text())["checked"]
        return N_ORBIT + 1

    def _check_recipe(self, recipe: str, cfg: dict, out: Path, proc: dict) -> list[str]:
        if not proc["ok"]:
            return [f"exit {proc['exit']} {proc['report'].get('error', '')} {proc['log']}"]
        try:
            return self._check_artifacts(recipe, cfg, out)
        except Exception:  # a malformed artifact fails the op, not the benchmark
            return [traceback.format_exc(limit=-3)]

    def _check_artifacts(self, recipe: str, cfg: dict, out: Path) -> list[str]:
        summary = json.loads((out / "summary.json").read_text())
        problems = []
        if summary.get("pass") is False:
            problems.append("recipe reports pass: false")
        if summary.get("violations", 0) > 0:
            problems.append(f"recipe reports {summary['violations']} violations")
        golden = self.golden.get(config_digest(cfg))
        if golden is not None and artifact_hashes(out) != golden["artifacts"]:
            problems.append("artifact hashes differ from golden.json")
        if recipe == "orbit":
            problems += oracles.check_orbit_export(out, cfg, summary)
        elif recipe == "scaled-covering":
            problems += oracles.check_covers(cfg)
        return problems

    @staticmethod
    def _op_record(procs, units, attempted, failed, failures) -> dict:
        ok = [p for p in procs if p["ok"]]
        record = {"attempted": attempted, "failed": failed, "failures": failures,
                  "units": units, "setups": [p["setup"] for p in ok],
                  "elapsed": sum(p["elapsed"] for p in procs),
                  "rss_mb": max(p["rss_mb"] for p in procs)}
        if len(ok) == len(procs):
            # processes run one after another; the untimed checks between them
            # are left out
            record["wall"] = sum(p["wall"] for p in procs)
            record["busy"] = record["wall"] - sum(record["setups"])
            spans = [p["report"].get("spans") for p in procs]
            if all(s is not None for s in spans):
                totals: dict[str, float] = {}
                for s in spans:
                    for key, value in layer_totals(s).items():
                        merge = max if key.endswith(".peak_mb") else float.__add__
                        totals[key] = merge(float(totals.get(key, 0.0)), float(value))
                record["layers"] = totals
        return record


# -- metrics --------------------------------------------------------------------

WORK_UNITS = {
    "orbit-export": "orbit points",
    "orbit-analysis": "orbit points",
    "covering-check": "scaled-covering checks",
    "exact-core": "exact instances",
}


def per_layer(totals: dict[str, float], names: list[str]) -> dict[str, float]:
    def get(key):
        return float(totals.get(key, 0.0))

    def ratio(num, den):
        return get(num) / get(den) if get(den) else 0.0

    derived = {
        "orbit.generate.points": get("orbit.generate.word.points") + get("orbit.generate.greedy.points"),
        "boxdim.difference_set.cell_level_ratio": ratio("boxdim.difference_set.cell_level",
                                                        "boxdim.difference_set.calls"),
        "boxdim.scaled_covering.checks": get("boxdim.scaled_covering.calls"),
        "boxdim.minimal_cover.us_per_call": 1e6 * ratio("boxdim.minimal_cover.self_s",
                                                        "boxdim.minimal_cover.calls"),
        "diophantine.pigeonhole.scan_ratio": ratio("diophantine.pigeonhole.scan",
                                                   "diophantine.pigeonhole.calls"),
        "ifs.ssc.certified_ratio": ratio("ifs.ssc.certified", "ifs.ssc.calls"),
        "cli.runner.bytes_written": get("cli.runner.bytes"),
    }
    return {name: derived[name] if name in derived else get(name) for name in names}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict,
                 workdir: Path) -> dict:
    runner = Runner(workdir)
    # The first probe compiles bytecode into src/ and fills the page cache.
    probes, refs = [], []
    for i in range(SETUP_PROBES):
        probes.append(runner.launch(f"probe{i}", "import", Path("-"), False))
        refs.append(runner.reference())
    probe_setups = [p["setup"] for p in probes[1:] if p["ok"]]
    ops, traced_ops, timed, index = [], [], 0.0, 0
    while timed < seconds or not ops:
        refs.append(runner.reference())
        for traced in ((False, True) if trace else (False,)):
            op = runner.run_op(workload, seed, index, traced)
            (traced_ops if traced else ops).append(op)
            timed += op["elapsed"]
        index += 1
    refs.append(runner.reference())

    all_ops = ops + traced_ops
    attempted = sum(op["attempted"] for op in all_ops)
    failed = sum(op["failed"] for op in all_ops)
    good = [op for op in ops if "wall" in op]
    lines = [f"workload {workload}  seed {seed}  ops {len(ops)}"
             f"{f' + {len(traced_ops)} traced' if trace else ''}"]
    metrics: dict[str, dict] = {}
    if not trace and good:
        measured = {
            "wall_s": statistics.fmean(op["wall"] for op in good),
            "setup_s": statistics.median(probe_setups + [s for op in good for s in op["setups"]]),
            "peak_rss_mb": statistics.median(op["rss_mb"] for op in good),
            "throughput": sum(op["units"] for op in good) / sum(op["busy"] for op in good),
        }
        reference = statistics.median(refs)
        scale = REFERENCE_NOMINAL_S / reference
        values = {**measured, "wall_s": measured["wall_s"] * scale,
                  "setup_s": measured["setup_s"] * scale,
                  "throughput": measured["throughput"] / scale}
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        lines += [
            f"  wall_s       {values['wall_s']:12.4f} s      mean of {len(good)} ops, "
            f"measured {measured['wall_s']:.4f} s",
            f"  setup_s      {values['setup_s']:12.4f} s      median of "
            f"{len(probe_setups) + sum(len(op['setups']) for op in good)} processes, "
            f"measured {measured['setup_s']:.4f} s",
            f"  peak_rss_mb  {values['peak_rss_mb']:12.1f} MB",
            f"  throughput   {values['throughput']:12.1f} {WORK_UNITS[workload]}/s, "
            f"measured {measured['throughput']:.1f}",
            f"  reference    {reference:12.4f} s      median of {len(refs)} runs of the "
            f"reference task (nominal {REFERENCE_NOMINAL_S} s)",
            "  op wall_s    " + " ".join(f"{op['wall']:.3f}" for op in good),
        ]
    traced_good = [op for op in traced_ops if "layers" in op]
    if trace and traced_good and good:
        names = [m["name"] for m in spec["per_layer"]]
        rows = [per_layer(op["layers"], names) for op in traced_good]
        pairs = [(t, u) for t, u in zip(traced_ops, ops) if "wall" in t and "wall" in u]
        overhead = statistics.median(t["wall"] - u["wall"] for t, u in pairs)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in names:
            value = overhead if name == "trace.overhead_s" else statistics.median(r[name] for r in rows)
            metrics[name] = {"value": value, "unit": units[name]}
            if value:
                lines.append(f"  {name:42s} {value:14.6g} {units[name]}")
    lines.append(f"  error_rate   {failed / attempted if attempted else 1.0:12.4f} ratio  "
                 f"{failed} failed of {attempted} attempted")
    lines.append(f"  work         {sum(op['units'] for op in all_ops)} "
                 f"{WORK_UNITS[workload]} in {len(all_ops)} ops")
    if workload == "covering-check":
        sizes = [oracles.covering_sizes(covering_seed(seed * 1000 + i), COVER_TRIALS,
                                        COVER_MAX_POINTS) for i in range(index)]
        lines.append(f"  set sizes    {sizes}")
    for op in all_ops:
        lines += [f"  FAILED {f}" for f in op["failures"]]
    return {"correct": failed == 0 and len(good) == len(ops), "attempted": attempted,
            "failed": failed, "metrics": metrics, "lines": lines}


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "numba": importlib.util.find_spec("numba") is not None,
            "machine": platform.machine()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORK_UNITS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, required=True,
                        help="timed seconds per workload; must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "multirot" / "__init__.py").is_file():
        print(f"error: no multirot package under {SRC}; run from a multirot checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    if args.seconds != seconds:
        print(f"error: --seconds {args.seconds} differs from run_seconds {seconds} "
              "of BENCHMARK.json", file=sys.stderr)
        return 2
    workloads = list(WORK_UNITS) if args.workload == "all" else [args.workload]

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        results = {w: run_workload(w, args.seed, seconds, bool(args.trace), spec, workdir)
                   for w in workloads}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(f"environment {json.dumps(environment(), sort_keys=True)}")
    for res in results.values():
        print("\n".join(res.pop("lines")))
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
