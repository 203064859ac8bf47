"""Spans around calls into multirot's layers, installed from outside the program.

`install()` wraps each public function listed in `SPECS` and rebinds every
name that resolves to it: the defining module, package re-exports and the
modules that imported it by name (so `multirot.cli.runner.generate_orbit`
and `multirot.orbit.generate.generate_orbit` both record).  Spans are kept
in memory; `Tracer.spans` is written out by the launcher when its run ends.
`layer_totals()` turns spans into per-metric self times and counts.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import tracemalloc


def _path_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _generate(args, kwargs, result):
    return {"points": result.n + 1}


def _generate_name(args, kwargs):
    strategy = args[1] if len(args) > 1 else kwargs["strategy"]
    return "orbit.generate.greedy" if strategy.adaptive else "orbit.generate.word"


def _profile(args, kwargs, result):
    return {"cells": sum(result.counts.values())}


def _difference(args, kwargs, result):
    return {"cell_level": int(result.cell_level)}


def _minimal_cover(args, kwargs, result):
    return {"points": len(args[0])}


def _pigeonhole(args, kwargs, result):
    return {"scan": int(result.path == "scan")}


def _ssc(args, kwargs, result):
    return {"certified": int(result.certified)}


def _sample(args, kwargs, result):
    return {"points": len(result)}


def _atomic_write(args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs["data"]
    return {"bytes": len(data if isinstance(data, bytes) else data.encode("utf-8"))}


def _atomic_via(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


# (metric prefix or name function, module, attribute, counts function).
# An attribute "Class.method" wraps a method or classmethod on the class.
SPECS = (
    ("orbit.io.csv", "multirot.orbit.io", "write_orbit_csv", _path_bytes),
    ("orbit.io.orb1", "multirot.orbit.io", "write_orb1", _path_bytes),
    (_generate_name, "multirot.orbit.generate", "generate_orbit", _generate),
    ("orbit.reduced", "multirot.orbit.generate", "reduced_orbit", None),
    ("orbit.tau", "multirot.orbit.generate", "tau_discrepancy", None),
    ("fixedpoint.top64", "multirot.orbit.generate", "Orbit.top64", None),
    ("fixedpoint.top64", "multirot.orbit.generate", "ReducedOrbit.top64", None),
    ("fixedpoint.top64", "multirot.boxdim", "CirclePoints.from_orbit", None),
    ("boxdim.covering_profile", "multirot.boxdim", "covering_profile", _profile),
    ("boxdim.gap_profile", "multirot.boxdim", "gap_profile", None),
    ("boxdim.difference_set", "multirot.boxdim", "difference_set", _difference),
    ("boxdim.scaled_covering", "multirot.boxdim", "scaled_covering_check", None),
    ("boxdim.minimal_cover", "multirot.boxdim", "minimal_cover_count", _minimal_cover),
    ("diophantine.pigeonhole", "multirot.diophantine", "pigeonhole_approx", _pigeonhole),
    ("diophantine.separation", "multirot.diophantine", "kxn_separation", None),
    ("exact.independence", "multirot.exact.independence", "qplus_independent_mod1", None),
    ("exact.independence", "multirot.exact.independence", "q_independent_mod1", None),
    ("exact.rank", "multirot.exact.independence", "rank_span", None),
    ("exact.commensurability", "multirot.exact.commensurability", "commensurability_witness", None),
    ("exact.steps", "multirot.orbit.steps", "build_step_system", None),
    ("ifs.ssc", "multirot.ifs", "ssc_check", _ssc),
    ("ifs.attractor_sample", "multirot.ifs", "attractor_sample", _sample),
    ("embedtrace.build_instance", "multirot.embedtrace", "build_instance", None),
    ("embedtrace.sn_sequence", "multirot.embedtrace", "sn_sequence", None),
    ("embedtrace.induced", "multirot.embedtrace", "induced_step_system", None),
    ("cli.config", "multirot.cli.config", "ExperimentConfig.load", None),
    ("cli.config", "multirot.cli.config", "ExperimentConfig.validate", None),
    ("cli.config", "multirot.cli.config", "ExperimentConfig.step_system", None),
    ("cli.runner", "multirot.cli.runner", "write_summary", None),
    ("cli.runner", "multirot.cli.runner", "write_csv", None),
    ("cli.runner", "multirot.cli.runner", "atomic_write", _atomic_write),
    ("cli.runner", "multirot.cli.runner", "atomic_via", _atomic_via),
)

# Layers whose own peak allocation (tracemalloc, traced runs only) is recorded.
MEMORY_LAYERS = ("boxdim.difference_set",)


class Tracer:
    """In-memory spans: [name, parent index, start, end, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            parent = self._stack[-1] if self._stack else -1
            record = [label, parent, 0.0, 0.0, {}]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            measure_memory = label in MEMORY_LAYERS and not tracemalloc.is_tracing()
            if measure_memory:
                tracemalloc.start()
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
                if measure_memory:
                    record[4]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if counts is not None:
                record[4].update(counts(args, kwargs, result))
            return result

        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every function in SPECS at each name that resolves to it."""
    rebind: dict[int, object] = {}
    for name, module_name, attr, counts in SPECS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(raw.__func__, name, counts)))
            else:
                setattr(cls, meth, tracer.wrap(raw, name, counts))
            continue
        original = getattr(module, attr)
        rebind[id(original)] = (original, tracer.wrap(original, name, counts))
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("multirot") or module is None:
            continue
        for key, value in list(vars(module).items()):
            hit = rebind.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])


def layer_totals(spans) -> dict[str, float]:
    """Per-op metric values: `<layer>.self_s`, `.calls` and summed counts.

    Self time is a span's duration minus its direct children's durations;
    children run synchronously inside their parent, so they never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, _, start, end, counts) in enumerate(spans):
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start) - child_time[i]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        for key, value in counts.items():
            if key == "peak_bytes":
                out[f"{name}.peak_mb"] = max(out.get(f"{name}.peak_mb", 0.0), value / 2**20)
            else:
                out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value
    return out
