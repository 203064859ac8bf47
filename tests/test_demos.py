"""Every demo under demos/ runs to the end, as the README invites a reader to run it."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(tmp_path, demo):
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    # the demos that export files write them under the temporary directory
    env = {**os.environ, "TMPDIR": str(tmp_path), "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
