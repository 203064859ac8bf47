"""Experiment configuration: a single JSON document with a published schema.

The schema is deliberately flat and stringly-typed at the leaves (exact
rationals as "p/q" or decimal strings, steps as little expressions over
basis labels), so a config round-trips parse -> serialize -> parse
byte-identically and diffs cleanly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from ..boxdim import DIFF_CELL_K_MAX
from ..errors import ConfigError, GuardError, UsageError
from ..exact.symbolic import BasisEntry, BasisTable, SymbolicReal, builtin_table
from ..embedtrace import MAX_TRACE_N
from ..ifs import MAX_CYLINDERS, MAX_SAMPLE_POINTS, SimilarIFS, Similitude, power_exceeds
from ..orbit.generate import MAX_ORBIT_N
from ..orbit.steps import StepSystem, build_step_system
from ..orbit.strategies import Strategy, parse_strategy

KINDS = (
    "rank",
    "independence",
    "orbit",
    "boxdim",
    "diophantine",
    "ifs",
    "embed",
    "verify-theorem",
)

RANDOM_STRATEGIES = ("random",)

# The default embedding pair: the middle-thirds set E, and F, its subset
# from the ratio-1/9 maps of E's second level.
_CANTOR_THIRDS = ({"ratio": "1/3", "shift": "0"}, {"ratio": "1/3", "shift": "2/3"})
_CANTOR_NINTHS = ({"ratio": "1/9", "shift": "0"}, {"ratio": "1/9", "shift": "8/9"})


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    out_dir: str = "out"
    seed: int | None = None
    bits: int = 128
    basis: tuple[dict, ...] | None = None    # None -> builtin constants
    steps: tuple[str, ...] | None = None     # step expressions
    strategy: dict | None = None
    n: int | None = None
    scales: tuple[int, int] | None = None
    ifs: tuple[dict, ...] | None = None      # E (or the only) IFS, d=1 maps
    ifs_f: tuple[dict, ...] | None = None
    affine: dict | None = None               # {"m": "...", "b": "..."}
    params: dict = field(default_factory=dict)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "out_dir": self.out_dir, "bits": self.bits}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.basis is not None:
            out["basis"] = [dict(e) for e in self.basis]
        if self.steps is not None:
            out["steps"] = list(self.steps)
        if self.strategy is not None:
            out["strategy"] = dict(self.strategy)
        if self.n is not None:
            out["n"] = self.n
        if self.scales is not None:
            out["scales"] = list(self.scales)
        if self.ifs is not None:
            out["ifs"] = [dict(e) for e in self.ifs]
        if self.ifs_f is not None:
            out["ifs_f"] = [dict(e) for e in self.ifs_f]
        if self.affine is not None:
            out["affine"] = dict(self.affine)
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - {
            "kind", "out_dir", "seed", "bits", "basis", "steps", "strategy",
            "n", "scales", "ifs", "ifs_f", "affine", "params",
        }
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(
                kind=raw["kind"],
                out_dir=raw.get("out_dir", "out"),
                seed=raw.get("seed"),
                bits=int(raw.get("bits", 128)),
                basis=tuple(raw["basis"]) if "basis" in raw else None,
                steps=tuple(raw["steps"]) if "steps" in raw else None,
                strategy=raw.get("strategy"),
                n=int(raw["n"]) if "n" in raw else None,
                scales=tuple(int(x) for x in raw["scales"]) if "scales" in raw else None,
                ifs=tuple(raw["ifs"]) if "ifs" in raw else None,
                ifs_f=tuple(raw["ifs_f"]) if "ifs_f" in raw else None,
                affine=raw.get("affine"),
                params=raw.get("params", {}),
            )
        except KeyError as exc:
            raise ConfigError(f"missing config key: {exc}") from exc

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        cfg = cls.from_dict(raw)
        cfg.validate()
        return cfg

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        errors = []
        if self.kind not in KINDS:
            errors.append(f"unknown kind {self.kind!r}")
        if self.strategy is not None:
            stype = self.strategy.get("type")
            if stype in RANDOM_STRATEGIES and self.seed is None:
                errors.append("random strategy requires a seed")
            try:
                parse_strategy(self.strategy)
            except (UsageError, KeyError) as exc:
                errors.append(f"bad strategy: {exc}")
        if self.steps is not None:
            table = self.basis_table()
            for expr in self.steps:
                try:
                    parse_step_expression(expr, table)
                except UsageError as exc:
                    errors.append(f"bad step {expr!r}: {exc}")
        if self.scales is not None and (len(self.scales) != 2 or self.scales[0] > self.scales[1]):
            errors.append("scales must be [k_min, k_max] with k_min <= k_max")
        for name in ("ifs", "ifs_f"):
            spec = getattr(self, name)
            if spec is not None:
                try:
                    parse_ifs(spec)
                except (UsageError, ValueError) as exc:
                    errors.append(f"bad {name}: {exc}")
        if self.kind == "orbit" and self.bits % 8:
            errors.append(f"orbit export needs bits to be a multiple of 8, got {self.bits}")
        if self.kind == "verify-theorem" and "theorem" not in self.params:
            errors.append("verify-theorem needs params.theorem")
        if errors:
            raise ConfigError("; ".join(errors))
        # n is an orbit length everywhere but in the pigeonhole op
        pigeonhole = self.kind == "diophantine" and self.params.get("op", "pigeonhole") == "pigeonhole"
        if self.n is not None and self.n > MAX_ORBIT_N and not pigeonhole:
            raise GuardError(f"orbit length n={self.n} exceeds the guard of {MAX_ORBIT_N}")
        self._check_scales()

    def _check_scales(self) -> None:
        """Refuse recipe scales past the library's guards before any work runs."""
        if self.kind == "verify-theorem" and self.params["theorem"] == "difference-dense":
            k = self.param("k", 12)
            if k < 0:
                raise ConfigError(f"params.k = {k} is negative")
            if k > DIFF_CELL_K_MAX:
                raise GuardError(
                    f"difference-set scale k={k} exceeds {DIFF_CELL_K_MAX} (a 2**k-cell bitmap)"
                )
        if self.kind == "ifs" and self.ifs is not None:
            ell = len(self.ifs)
            depth, sample_depth = self.ifs_depths()
            if power_exceeds(ell, depth, MAX_CYLINDERS):
                raise GuardError(f"ssc depth {depth}: {ell}**{depth} cylinders exceed 2**16")
            if power_exceeds(ell, sample_depth, MAX_SAMPLE_POINTS):
                raise GuardError(
                    f"sample depth {sample_depth}: {ell}**{sample_depth} points exceed 2**24"
                )
        if self.kind == "boxdim" and self.ifs is not None:
            ell, depth = len(self.ifs), self.param("depth", 10)
            if power_exceeds(ell, depth, MAX_SAMPLE_POINTS):
                raise GuardError(f"sample depth {depth}: {ell}**{depth} points exceed 2**24")
        trace = self.kind == "verify-theorem" and self.params["theorem"] == "trace-ratio-bounds"
        if self.kind == "embed" or trace:
            n_max, depth = self.embed_sizes()
            if n_max < 1 or depth < 1:
                # an empty trace passes vacuously, and depth 0 has no cylinder words
                raise ConfigError(f"embedding trace needs n_max >= 1 and depth >= 1, got {n_max}, {depth}")
            if n_max > MAX_TRACE_N:
                raise GuardError(f"trace length n_max={n_max} exceeds the guard of {MAX_TRACE_N}")
            # each step of the trace samples F and covers E at this depth
            e_spec, f_spec = self.embed_pair()
            if power_exceeds(len(e_spec), depth, MAX_CYLINDERS):
                raise GuardError(f"depth {depth}: {len(e_spec)}**{depth} cylinders of E exceed 2**16")
            if power_exceeds(len(f_spec), depth, MAX_SAMPLE_POINTS):
                raise GuardError(f"depth {depth}: {len(f_spec)}**{depth} points of F exceed 2**24")

    def param(self, name: str, default, kind=int):
        """params[name], or default, converted by kind; a value it rejects is a config error."""
        value = self.params.get(name, default)
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"params.{name} = {value!r} is not a valid {kind.__name__}") from None

    def ifs_depths(self) -> tuple[int, int]:
        """(depth, sample_depth) of the ifs kind: the SSC certificate's and the sample's."""
        depth = self.param("depth", 6)
        return depth, self.param("sample_depth", min(depth + 4, 12))

    def embed_sizes(self) -> tuple[int, int]:
        """(n_max, depth) of the embedding trace: its length and its sample and cover depth."""
        return self.param("n_max", 24), self.param("depth", 8)

    def embed_pair(self) -> tuple[tuple[dict, ...], tuple[dict, ...]]:
        """(E, F) specs of the embedding trace; the middle-thirds pair unless both are given."""
        if self.ifs is None or self.ifs_f is None:
            return _CANTOR_THIRDS, _CANTOR_NINTHS
        return self.ifs, self.ifs_f

    # -- materialization ----------------------------------------------------

    def basis_table(self) -> BasisTable:
        if self.basis is None:
            return builtin_table()
        return BasisTable(
            BasisEntry(e["label"], e["value"], bool(e.get("irrational", True)))
            for e in self.basis
        )

    def step_system(self) -> StepSystem:
        if self.steps is None:
            raise ConfigError("config has no steps")
        table = self.basis_table()
        alphas = [parse_step_expression(expr, table) for expr in self.steps]
        return build_step_system(alphas, self.bits)

    def strategy_object(self) -> Strategy:
        if self.strategy is None:
            raise ConfigError("config has no strategy")
        return parse_strategy(self.strategy)


# -- step expressions ---------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:/\d+)?)|(?P<label>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[+\-*]))")


def parse_step_expression(expr: str, table: BasisTable) -> SymbolicReal:
    """Parse "sqrt2", "1/4", "1 + 2*sqrt2", "1-sqrt2" over the table's labels."""
    pos = 0
    tokens: list[tuple[str, str]] = []
    while pos < len(expr):
        m = _TOKEN.match(expr, pos)
        if not m:
            raise UsageError(f"cannot tokenize {expr!r} at position {pos}")
        pos = m.end()
        for kind in ("num", "label", "op"):
            if m.group(kind) is not None:
                tokens.append((kind, m.group(kind)))
                break
    if expr.strip() == "" or not tokens:
        raise UsageError("empty step expression")
    if tokens[-1][0] == "op":
        raise UsageError(f"dangling operator in {expr!r}")

    result = SymbolicReal(table, 0, {})
    sign = 1
    i = 0
    while i < len(tokens):
        kind, text = tokens[i]
        if kind == "op":
            if text == "+":
                sign = 1
            elif text == "-":
                sign = -1
            else:
                raise UsageError(f"misplaced '*' in {expr!r}")
            i += 1
            continue
        if kind == "num":
            coeff = Fraction(text)
            if i + 2 < len(tokens) and tokens[i + 1] == ("op", "*") and tokens[i + 2][0] == "label":
                label = tokens[i + 2][1]
                if label not in table:
                    raise UsageError(f"unknown basis label {label!r}")
                result = result + table.symbol(label, sign * coeff)
                i += 3
            else:
                result = result + sign * coeff
                i += 1
        else:  # label
            if text not in table:
                raise UsageError(f"unknown basis label {text!r}")
            result = result + table.symbol(text, sign)
            i += 1
        sign = 1
    return result


# -- IFS specs -----------------------------------------------------------------

def parse_ifs(specs) -> SimilarIFS:
    """d=1 IFS from [{"ratio": "1/3", "shift": "0", "sign": 1}, ...]."""
    maps = []
    for entry in specs:
        ratio = Fraction(str(entry["ratio"]))
        shift = Fraction(str(entry.get("shift", "0")))
        sign = int(entry.get("sign", 1))
        maps.append(Similitude.line(ratio, shift, sign))
    return SimilarIFS(maps)


def parse_ifs_inline(text: str) -> tuple[dict, ...]:
    """Inline DSL "ratio:shift[:sign]" comma-separated, to config form."""
    out = []
    for part in text.split(","):
        bits = part.strip().split(":")
        if len(bits) not in (2, 3):
            raise UsageError(f"bad IFS map spec {part!r} (want ratio:shift[:sign])")
        entry = {"ratio": bits[0], "shift": bits[1]}
        if len(bits) == 3:
            entry["sign"] = int(bits[2])
        out.append(entry)
    return tuple(out)
