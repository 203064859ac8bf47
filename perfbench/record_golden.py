"""Record golden.json: sha256 of every artifact of the CLI recipes at seed 0.

    python3 perfbench/record_golden.py

Runs op 0 of each CLI workload at --seed 0 (config seed 0) twice, as
`multirot run CONFIG --jobs 1` and `--jobs 2`, requires identical bytes,
and stores the hashes under the digest of the config (without out_dir).
run.py fails any op whose config digest is listed and whose artifacts
hash differently.  Record once, before a change that must keep artifacts
byte for byte.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

CLI = "import sys; sys.path.insert(0, 'src'); from multirot.cli.main import main; sys.exit(main(sys.argv[1:]))"


def main() -> int:
    golden = {}
    (run.ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="golden-", dir=run.ROOT / ".perfbench_work"))
    try:
        for workload in ("orbit-export", "orbit-analysis", "covering-check"):
            for recipe, cfg in run.recipe_configs(workload, 0):
                hashes = []
                for jobs in ("1", "2"):
                    out = work / f"{recipe}-jobs{jobs}"
                    cfg_path = work / f"{recipe}-jobs{jobs}.json"
                    cfg_path.write_text(json.dumps({**cfg, "out_dir": str(out)}))
                    subprocess.run([sys.executable, "-c", CLI, "run", str(cfg_path), "--jobs", jobs],
                                   cwd=run.ROOT, check=True, stdout=subprocess.DEVNULL)
                    hashes.append(run.artifact_hashes(out))
                if hashes[0] != hashes[1]:
                    print(f"{recipe}: --jobs 1 and --jobs 2 differ: {hashes}", file=sys.stderr)
                    return 1
                golden[run.config_digest(cfg)] = {"recipe": recipe, "config_seed": cfg["seed"],
                                                  "artifacts": hashes[0]}
                print(f"{recipe}: {hashes[0]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.HERE / "golden.json").write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
