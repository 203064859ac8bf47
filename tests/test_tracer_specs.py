"""The benchmark tracer's targets: every name it wraps must resolve.

`perfbench/tracer.py` rebinds functions by module and attribute name, so a
rename in the package would only show as a failed `--trace 1` benchmark
run.  These checks read the names without installing the tracer.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_specs():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPECS


@pytest.mark.parametrize("module_name, attr", [(m, a) for _, m, a, _ in load_specs()])
def test_tracer_spec_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in getattr(module, cls_name).__dict__
    else:
        assert callable(getattr(module, attr))


def test_runner_writers_keep_the_argument_order_the_tracer_reads():
    from multirot.cli import runner

    params = {name: list(inspect.signature(getattr(runner, name)).parameters)
              for name in ("write_summary", "write_csv", "atomic_write", "atomic_via")}
    assert params == {
        "write_summary": ["out_dir", "summary"],
        "write_csv": ["out_dir", "name", "header", "rows"],
        "atomic_write": ["path", "data"],
        "atomic_via": ["writer", "path"],
    }
