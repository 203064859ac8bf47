"""Experiment configuration: a single JSON document with a published schema.

The schema is deliberately flat and stringly-typed at the leaves (exact
rationals as "p/q" or decimal strings, steps as little expressions over
basis labels), so a config round-trips parse -> serialize -> parse
byte-identically and diffs cleanly.

`ExperimentConfig.validate` is the one place a config is read: it parses
each field the recipe reads once and returns the `RunInputs` its handler
in `runner` runs on, so no handler parses a field again.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from ..boxdim import COVER_BITS, DIFF_CELL_K_MAX, check_estimate_scales, check_scale_range
from ..diophantine import check_k_space
from ..errors import ConfigError, GuardError, UsageError
from ..exact.symbolic import BasisEntry, BasisTable, SymbolicReal, builtin_table
from ..embedtrace import MAX_TRACE_N
from ..ifs import MAX_CYLINDERS, MAX_SAMPLE_POINTS, SimilarIFS, Similitude, guard_power
from ..orbit.generate import MAX_ELL, guard_b_columns, guard_orbit_size
from ..orbit.steps import StepSystem, build_step_system
from ..orbit.strategies import Strategy, parse_strategy


@dataclass(frozen=True)
class Recipe:
    """One recipe: its handler's name in runner, its params, the config fields it
    needs that nothing defaults (an orbit route also needs steps, strategy and n),
    the values with_defaults fills in (None for a recipe that builds no orbit),
    and the params keys it reads besides the sized ones."""
    handler: str
    params: dict = field(default_factory=dict)
    needs: tuple[str, ...] = ()
    fills: dict | None = None
    reads: tuple[str, ...] = ()


# Each recipe's params: name -> (default, least, largest).  A value below
# least is a config error (exit 2); one above largest trips a guard (exit
# 3).  A largest of None leaves the bound to the ell**depth guards of
# validate or to the library.
_TRACE = {
    "n_max": (24, 1, MAX_TRACE_N),  # the trace's cost grows faster than its length
    "depth": (8, 1, None),          # ell**depth cylinders of E and sample points of F
}
# The orbit fields the verify recipes fill when a config leaves them out.
VERIFY_ORBIT = {"steps": ("sqrt2", "sqrt3"), "strategy": {"type": "random"}, "n": 10**6, "seed": 0}
# Every recipe by kind, and by theorem or op where a kind has several.
RECIPES = {
    "rank": {"rank": Recipe("_run_rank", reads=("values", "include_one"))},
    "independence": {"independence": Recipe("_run_independence", needs=("steps",))},
    "orbit": {"orbit": Recipe("_run_orbit", fills={})},
    # depth is the ifs route's sample depth; without ifs, boxdim builds an orbit
    "boxdim": {"boxdim": Recipe("_run_boxdim", {"depth": (10, 0, None)}, ("scales",), {})},
    "diophantine": {
        "pigeonhole": Recipe("_run_pigeonhole", {"m": (1, 1, None)}, ("n",),  # (mn)**r: check_k_space
                             reads=("betas",)),
        "separation": Recipe("_run_separation", {
            "k_min": (1, 1, None),
            "k_max": (100, 1, 4096),  # each k is 2k binary searches in the sorted points
        }, fills={}),
    },
    "ifs": {"ifs": Recipe("_run_ifs", {
        "depth": (6, 1, None),            # the SSC certificate's cylinders
        "sample_depth": (None, 0, None),  # None: min(depth + 4, 12)
    }, ("ifs",))},
    "embed": {"embed": Recipe("_run_embed", _TRACE)},
    "verify-theorem": {
        "scaled-covering": Recipe("_verify_scaled_covering", {
            "trials": (1000, 1, 10**5),       # about 2 ms a trial at the default sizes
            "max_points": (256, 1, 1 << 16),  # a trial's set size is drawn from 1..max_points
            "p_max": (16, 1, 1024),           # a trial makes up to k_max * p_max checks
            "k_max": (12, 1, None),           # at most COVER_BITS, the covers' precision
        }),
        "difference-dense": Recipe("_verify_difference_dense",
                                   {"k": (12, 0, DIFF_CELL_K_MAX)},  # a 2**k-cell bitmap
                                   fills=VERIFY_ORBIT),
        # tolerance below box_lower_bound(r) too (exit 2): at or above it any orbit passes
        "orbit-box-lower": Recipe("_verify_orbit_box_lower", {"tolerance": (0.1, 0.0, None)},
                                  fills={**VERIFY_ORBIT, "scales": (6, 14)}),
        "trace-ratio-bounds": Recipe("_verify_trace_ratio_bounds", _TRACE),
        "dimension-threshold": Recipe("_verify_dimension_threshold", {
            "ell_max": (6, 2, 256),  # the table has (ell_max - 1) * lam_max rows
            "lam_max": (5, 1, 256),
        }),
    },
}


def box_lower_bound(r: int) -> Fraction:
    """The lower box dimension orbit-box-lower checks an orbit of rank r against."""
    return Fraction(1) if r == 1 else Fraction(1, r + 1)


# The params key that picks the recipe of a kind with several, and its default.
_SELECTORS = {"verify-theorem": ("theorem", None), "diophantine": ("op", "pigeonhole")}

# The JSON type of each config key; null is refused like any other mismatch.
_KEY_TYPES = {
    "kind": str, "out_dir": str, "seed": int, "bits": int, "n": int,
    "basis": list, "steps": list, "scales": list, "ifs": list, "ifs_f": list,
    "strategy": dict, "affine": dict, "params": dict,
}
_JSON_TYPES = {str: "a string", int: "an integer", list: "an array", dict: "an object"}

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
        """The JSON form from_dict reads: every key that is set, tuples as lists, and
        params when not empty."""
        out: dict = {}
        for key in _KEY_TYPES:
            value = getattr(self, key)
            if isinstance(value, tuple):
                value = [dict(e) if isinstance(e, dict) else e for e in value]
            if value is not None and (value or key != "params"):
                out[key] = dict(value) if isinstance(value, dict) else value
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known_keys(raw, tuple(_KEY_TYPES), "config")
        if "kind" not in raw:
            raise ConfigError("missing config key: 'kind'")
        for key, value in raw.items():
            want = _KEY_TYPES[key]
            if not isinstance(value, want) or isinstance(value, bool):
                raise ConfigError(f"config key {key!r} must be {_JSON_TYPES[want]}, got {value!r}")
        return cls(**{key: tuple(v) if isinstance(v, list) else v for key, v in raw.items()})

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        """Parse the config file at path: its JSON and the type of each key.

        The values are checked later, once, by validate, on the config that
        runs: the one with the command line's overrides and the recipe's
        defaults applied.
        """
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    # -- validation ---------------------------------------------------------

    @property
    def recipe(self):
        """What the config runs: its kind, or the theorem or op that params pick."""
        if self.kind not in _SELECTORS:
            return self.kind
        key, default = _SELECTORS[self.kind]
        return self.params.get(key, default)

    @property
    def record(self) -> Recipe | None:
        """The RECIPES record of what the config runs; None if there is none."""
        return RECIPES.get(self.kind, {}).get(self.recipe) if isinstance(self.recipe, str) else None

    def with_defaults(self) -> "ExperimentConfig":
        """This config with its recipe's fills in the fields it leaves out."""
        fill = (self.record and self.record.fills) or {}
        return dataclasses.replace(self, **{k: v for k, v in fill.items() if getattr(self, k) is None})

    @property
    def builds_orbit(self) -> bool:
        """Whether the handler generates an orbit from steps, strategy and n."""
        return self.record.fills is not None and not (self.recipe == "boxdim" and self.ifs is not None)

    def validate(self) -> "RunInputs":
        """Parse every field the recipe reads, once, into the RunInputs its handler runs on.

        run_config calls this once, before any output exists, on the config
        its handler runs: overrides and with_defaults already applied.  The
        handler reads what this returns and parses nothing again.  A field
        the handler needs that is missing, a value that does not parse or
        one below its least value raises ConfigError; a size past its guard
        raises GuardError.
        """
        where = "config"
        try:
            if self.kind not in RECIPES:
                raise ConfigError(f"unknown kind {self.kind!r}")
            if self.record is None:
                key = _SELECTORS[self.kind][0]
                raise ConfigError(f"params.{key} = {self.recipe!r} is not one of "
                                  f"{', '.join(RECIPES[self.kind])}")
            selector = (_SELECTORS[self.kind][0],) if self.kind in _SELECTORS else ()
            known_keys(self.params, (*self.record.params, *self.record.reads, *selector),
                       f"{self.recipe} params")
            if self.seed is not None and self.seed < 0:
                raise ConfigError(f"seed must be >= 0, got {self.seed}")
            where = "basis"
            table = self.basis_table()
            where = "steps"
            steps = step_reals = None
            if self.steps is not None and (self.builds_orbit or "steps" in self.record.needs):
                steps = self.step_system(table)
            elif self.steps is not None:  # reals alone: rank reads them when values are absent
                step_reals = parse_expressions("steps", self.steps, table)
            where = "strategy"
            strategy = None if self.strategy is None else parse_strategy(self.strategy)
            ifs = {}
            for where in ("ifs", "ifs_f"):
                spec = getattr(self, where)
                ifs[where] = None if spec is None else parse_ifs(spec)
            where = "affine"
            affine = self.affine_map()
            where = "scales"
            if self.scales is not None and not (
                len(self.scales) == 2 and all(type(k) is int for k in self.scales)
                and self.scales[0] <= self.scales[1]
            ):
                raise ConfigError("scales must be [k_min, k_max], integers with k_min <= k_max")
            if self.scales is not None and self.recipe in ("boxdim", "orbit-box-lower"):
                check_scale_range(*self.scales)  # the handler's covering_profile
                check_estimate_scales(*self.scales)  # and box_dim_estimate
            if self.kind == "orbit" and self.bits % 8:
                raise ConfigError(f"orbit export needs bits to be a multiple of 8, got {self.bits}")
            where = "params"
            rows, params = self.record.params, {}
            for name, (default, least, largest) in rows.items():
                raw = self.params.get(name, default)
                if raw is None and default is None:  # the ifs recipe's sample_depth
                    params[name] = min(params["depth"] + 4, 12)
                    continue
                floating = isinstance(default, float)
                try:
                    value = float(raw) if floating else int(raw)
                except (TypeError, ValueError, OverflowError):
                    value = None
                # int() would read true as 1 and cut 2.9 to 2; float() would read "nan" and "inf"
                if value is None or isinstance(raw, bool) or (isinstance(raw, float) and not floating) \
                        or (floating and not math.isfinite(value)):
                    want = "a finite number" if floating else "an integer"
                    raise ConfigError(f"params.{name} = {raw!r} is not {want}")
                if least is not None and value < least:
                    floors = " and ".join(f"{n} >= {row[1]}" for n, row in rows.items()
                                          if row[1] is not None)
                    raise ConfigError(f"{self.recipe} needs {floors}, got {name}={value}")
                if largest is not None and value > largest:
                    raise GuardError(f"params.{name}={value} exceeds the guard of {largest}")
                params[name] = value
            inputs = RunInputs(self, steps, strategy, **ifs, affine=affine, params=params)
            return self._check_recipe(inputs, table, step_reals)
        except ConfigError:
            raise
        except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
            prefix = {KeyError: "missing key ", ZeroDivisionError: "zero denominator: "}
            raise ConfigError(f"bad {where}: {prefix.get(type(exc), '')}{exc}") from None

    def _check_recipe(self, inputs: "RunInputs", table: BasisTable,
                      step_reals: list[SymbolicReal] | None) -> "RunInputs":
        """The recipe's own inputs, the guards that bound two values together, the
        fields its handler needs, and last a random strategy's seed.  step_reals are
        the reals of steps where the recipe builds no step system.  Returns inputs
        with the reals a recipe reads from params and a trace's default pair added."""
        recipe, steps, params = self.recipe, inputs.steps, inputs.params
        needs = self.record.needs
        if recipe in ("rank", "pigeonhole"):
            name = "values" if recipe == "rank" else "betas"
            exprs = self.params.get(name) or (recipe == "rank" and self.steps)
            if not exprs:
                raise ConfigError(f"{recipe} needs params.{name}")
            if not isinstance(exprs, (list, tuple)):
                raise ConfigError(f"params.{name} must be a list of expressions, got {exprs!r}")
            reals = step_reals if exprs is self.steps else \
                parse_expressions(f"params.{name}", exprs, table)
            params[name] = list(exprs), list(reals)
        if recipe == "rank":
            include_one = params["include_one"] = self.params.get("include_one", False)
            if not isinstance(include_one, bool):
                raise ConfigError(f"params.include_one must be true or false, got {include_one!r}")
        if recipe == "pigeonhole" and self.n is not None:
            check_k_space(params["m"], self.n, len(params["betas"][1]), self.bits)
        if recipe == "orbit-box-lower" and steps is not None:
            tolerance, bound = params["tolerance"], box_lower_bound(steps.r)
            if tolerance >= bound:
                raise ConfigError(f"params.tolerance = {tolerance} must be below the bound "
                                  f"{bound} it loosens")
        if recipe == "separation" and steps is not None and steps.r == 0:
            raise ConfigError("reduced orbit undefined: all steps rational (r = 0)")
        if recipe == "scaled-covering" and (k_max := params["k_max"]) > COVER_BITS:
            raise ConfigError(f"params.k_max = {k_max} exceeds the {COVER_BITS}-bit "
                              "precision of exact covers")
        if self.builds_orbit:
            needs += ("steps", "strategy", "n")
            if self.steps is not None and len(self.steps) > MAX_ELL:
                raise ConfigError(f"{recipe} takes at most {MAX_ELL} steps (one byte a symbol), "
                                  f"got {len(self.steps)}")
            if self.n is not None:
                guard_orbit_size(self.n, self.bits)
                if recipe == "orbit" and steps is not None:  # results.csv's b_j columns
                    guard_b_columns(steps, self.n)
        if recipe == "ifs" and inputs.ifs is not None:
            guard_power(inputs.ifs.ell, params["depth"], MAX_CYLINDERS, "cylinders")
            guard_power(inputs.ifs.ell, params["sample_depth"], MAX_SAMPLE_POINTS, "points")
        if recipe == "boxdim" and inputs.ifs is not None:
            guard_power(inputs.ifs.ell, params["depth"], MAX_SAMPLE_POINTS, "points")
        if recipe in ("embed", "trace-ratio-bounds"):
            if (self.ifs is None) != (self.ifs_f is None):
                raise ConfigError("the embedding trace needs both ifs and ifs_f, or neither")
            if self.ifs is None:
                inputs = dataclasses.replace(inputs, ifs=parse_ifs(_CANTOR_THIRDS),
                                             ifs_f=parse_ifs(_CANTOR_NINTHS))
            # the trace samples F and covers E once at this depth
            guard_power(inputs.ifs.ell, params["depth"], MAX_CYLINDERS, "cylinders of E")
            guard_power(inputs.ifs_f.ell, params["depth"], MAX_SAMPLE_POINTS, "points of F")
        missing = [name for name in needs if getattr(self, name) is None]
        if missing:
            raise ConfigError(f"{recipe} needs {', '.join(missing)}")
        if (self.strategy or {}).get("type") == "random" and self.seed is None:
            raise ConfigError("random strategy requires a seed")
        return inputs

    def affine_map(self) -> tuple[Fraction, Fraction]:
        """(m, b) of the embedding x -> m x + b, read as parse_ifs reads a ratio; 1 and 0
        where affine leaves them out."""
        affine = known_keys(self.affine or {}, ("m", "b"), "affine")
        return Fraction(str(affine.get("m", "1"))), Fraction(str(affine.get("b", "0")))

    # -- materialization ----------------------------------------------------

    def basis_table(self) -> BasisTable:
        if self.basis is None:
            return builtin_table()
        return BasisTable(
            BasisEntry(e["label"], e["value"], bool(e.get("irrational", True)))
            for e in self.basis
        )

    def step_system(self, table: BasisTable) -> StepSystem:
        """The config's steps, read over table, with their integer expansion."""
        return build_step_system(parse_expressions("steps", self.steps, table))


@dataclass(frozen=True)
class RunInputs:
    """What a recipe's handler runs on, each value parsed once by validate.  params
    are the record's, defaulted and bounded, with values or betas as (exprs, reals)
    and include_one where the recipe reads them."""
    cfg: ExperimentConfig              # for n, bits, seed and scales
    steps: StepSystem | None           # for the orbit recipes and independence
    strategy: Strategy | None
    ifs: SimilarIFS | None             # E, or the only IFS
    ifs_f: SimilarIFS | None           # F; a trace given neither gets the default pair
    affine: tuple[Fraction, Fraction]  # (m, b)
    params: dict


# -- step expressions ---------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:/\d+)?)|(?P<label>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[+\-*]))")


def parse_expressions(name: str, exprs, table: BasisTable) -> list[SymbolicReal]:
    """The expressions of the config list name, each read over table."""
    for i, expr in enumerate(exprs):
        if not isinstance(expr, str):
            raise ConfigError(f"{name}[{i}] must be a string expression, got {expr!r}")
    return [parse_step_expression(expr, table) for expr in exprs]


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

def known_keys(entry, keys: tuple[str, ...], what: str) -> dict:
    """entry, an object whose keys all lie in keys; ConfigError naming any other."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{what} must be an object, got {type(entry).__name__}")
    unknown = set(entry) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    return entry


def parse_ifs(specs) -> SimilarIFS:
    """d=1 IFS from [{"ratio": "1/3", "shift": "0", "sign": 1}, ...].

    A ratio or shift is read from its decimal form, so 0.1 is 1/10 and a
    boolean is refused; a sign is 1 or -1, an integer or a string of one.
    """
    maps = []
    for entry in specs:
        known_keys(entry, ("ratio", "shift", "sign"), "IFS map")
        ratio = Fraction(str(entry["ratio"]))
        shift = Fraction(str(entry.get("shift", "0")))
        sign = entry.get("sign", 1)
        if type(sign) not in (int, str) or sign not in (1, -1, "1", "-1"):
            raise ConfigError(f"an IFS map's sign must be 1 or -1, got {sign!r}")
        maps.append(Similitude.line(ratio, shift, int(sign)))
    return SimilarIFS(maps)


def parse_ifs_inline(text: str) -> tuple[dict, ...]:
    """Inline DSL "ratio:shift[:sign]" comma-separated, to config form (parsed by parse_ifs)."""
    out = []
    for part in text.split(","):
        bits = part.strip().split(":")
        if len(bits) not in (2, 3):
            raise UsageError(f"bad IFS map spec {part!r} (want ratio:shift[:sign])")
        entry = {"ratio": bits[0], "shift": bits[1]}
        if len(bits) == 3:
            entry["sign"] = bits[2]
        out.append(entry)
    return tuple(out)
