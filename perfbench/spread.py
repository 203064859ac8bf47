"""Run-to-run spread of the benchmark's end-to-end metrics over seeds.

    python3 perfbench/spread.py --workload NAME[,NAME...] [--seeds 1-10] [--out FILE]

Runs `run.py --trace 0` once per seed and workload, for run_seconds of
BENCHMARK.json, and prints, per workload and metric, the median and the
interquartile range (statistics.quantiles, n=4) as a share of the median,
next to the metric's bound in BENCHMARK.json.  With several workloads the
runs interleave (seed 1 of each workload, then seed 2 of each, ...), so a
drift of the machine's speed shows in all of them at once rather than in
whichever workload ran last.  --out writes the per-seed values, each
run's elapsed time and the summaries as JSON.  Use it to show the
benchmark is steady before comparing two commits at equal seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(runs: list[dict], spec: dict) -> dict:
    summary = {}
    for m in spec["end_to_end"]:
        vals = [r[m["name"]] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / med, "bound": m["bound"]}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, type=lambda t: t.split(","))
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    runs: dict[str, list[dict]] = {w: [] for w in args.workload}
    for seed in args.seeds:
        for workload in args.workload:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            t0 = time.monotonic()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            elapsed = time.monotonic() - t0
            result = json.loads(out.stdout.strip().splitlines()[-1])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs[workload].append({"seed": seed, "correct": result["correct"],
                                   "failed": result["failed"], "attempted": result["attempted"],
                                   "elapsed_s": elapsed, **values})
            print(f"{workload:14s} seed {seed:4d} correct={result['correct']} "
                  f"elapsed={elapsed:.1f}s "
                  + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)

    summaries = {w: summarize(r, spec) for w, r in runs.items()}
    for workload, summary in summaries.items():
        print(workload)
        for m in spec["end_to_end"]:
            s = summary[m["name"]]
            print(f"  {m['name']:12s} median {s['median']:12.6g} {m['unit']:4s} "
                  f"spread {s['spread']:7.4f}  bound {m['bound']} (a third: {m['bound'] / 3:.4f})")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seconds": seconds, "seeds": args.seeds,
             "workloads": {w: {"runs": runs[w], "summary": summaries[w]} for w in runs}},
            indent=2) + "\n")
    return 0 if all(r["correct"] for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
