"""Child process of the benchmark: one timed multirot invocation.

    python3 perfbench/launch.py REPORT (cli CONFIG | exact SPEC | import -) [--trace]

`cli` runs `multirot run CONFIG --jobs 2` through the package's own entry
point; `exact` runs one exact-core batch (see exact_core.py) in process;
`import` only imports multirot, to sample set-up time.
The report (JSON) holds `ready`, the CLOCK_MONOTONIC time at which
multirot was imported and could take input; `done`, the time the last
artifact was written; the exit code; any oracle failures; and, with
--trace, the spans recorded around each layer call.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import multirot.cli.main  # noqa: E402  (the import is what `ready` measures)

READY = time.monotonic()


def main(argv: list[str]) -> int:
    report_path, mode, target = argv[:3]
    trace = "--trace" in argv[3:]
    report: dict = {"ready": READY, "module": multirot.__file__}
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    if mode == "import":
        code = 0
        report["done"] = READY
    elif mode == "cli":
        code = multirot.cli.main.main(["run", target, "--jobs", "2"])
        report["done"] = time.monotonic()
    else:
        import exact_core

        with open(target, encoding="utf-8") as fh:
            spec = json.load(fh)
        outcome = exact_core.run_batch(spec)
        report["done"] = time.monotonic()
        report["failures"] = exact_core.check_batch(spec, outcome)
        code = 0
    report["exit"] = code
    if tracer is not None:
        report["spans"] = tracer.spans
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.stdout.flush()
    code = main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip interpreter teardown: it frees the orbit's million big ints after
    # every artifact is already on disk, which no user waits for.
    os._exit(code)
