"""Command-line entry point.

Subcommands: run <config>, verify <target>, and direct orbit / boxdim /
rank / embed invocations whose flags mirror the config keys.  A flag left
out takes the config's default.  Exit codes: 0 success, 2 validation
error, 3 guarded-resource error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from ..errors import ConfigError, UsageError
from .config import RECIPES, ExperimentConfig, parse_ifs_inline
from .runner import EXIT_GUARD, EXIT_OK, EXIT_VALIDATION, run_config


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (required for random strategies)")
    parser.add_argument("--bits", type=int, default=None, help="fixed-point precision (>= 64)")
    parser.add_argument("--out", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="multirot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config (JSON)")
    p_run.add_argument("config", help="path to the config file")
    p_run.add_argument("--out", default=None, help="override the config's output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the config's seed")
    p_run.add_argument("--bits", type=int, default=None, help="override the config's precision")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; execution is sequential")

    p_verify = sub.add_parser("verify", help="run a named verification recipe")
    p_verify.add_argument("target", help=" | ".join(RECIPES["verify-theorem"]))
    p_verify.add_argument("--params", default=None,
                          help="extra recipe parameters as a JSON object")
    p_verify.add_argument("--steps", default=None, help="comma-separated step expressions")
    p_verify.add_argument("--strategy", default=None, help="random | greedy (orbit recipes)")
    p_verify.add_argument("--forbidden", default=None, help="LO,HI forbidden interval for greedy")
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--kmin", type=int, default=None)
    p_verify.add_argument("--kmax", type=int, default=None)
    _add_common(p_verify)

    p_orbit = sub.add_parser("orbit", help="generate an orbit and export it")
    p_orbit.add_argument("--steps", required=True, help="comma-separated step expressions")
    p_orbit.add_argument("--strategy", default="random", help="random | greedy")
    p_orbit.add_argument("--word", default=None, help="explicit or periodic word, e.g. 1212")
    p_orbit.add_argument("--periodic", action="store_true", help="treat --word as periodic")
    p_orbit.add_argument("--forbidden", default=None, help="LO,HI for the greedy strategy")
    p_orbit.add_argument("--n", type=int, required=True)
    _add_common(p_orbit)

    p_box = sub.add_parser("boxdim", help="covering profile and dimension estimate")
    p_box.add_argument("--steps", default=None, help="orbit route: step expressions")
    p_box.add_argument("--strategy", default="random")
    p_box.add_argument("--word", default=None)
    p_box.add_argument("--periodic", action="store_true")
    p_box.add_argument("--forbidden", default=None)
    p_box.add_argument("--n", type=int, default=None)
    p_box.add_argument("--ifs", default=None, help="attractor route: ratio:shift[:sign],...")
    p_box.add_argument("--depth", type=int, default=None)
    p_box.add_argument("--kmin", type=int, required=True)
    p_box.add_argument("--kmax", type=int, required=True)
    _add_common(p_box)

    p_rank = sub.add_parser("rank", help="rational rank of declared-basis reals")
    p_rank.add_argument("--values", required=True, help="comma-separated expressions")
    p_rank.add_argument("--include-one", action="store_true")
    _add_common(p_rank)

    p_embed = sub.add_parser("embed", help="embedding trace for a pair of 1-d IFSs")
    p_embed.add_argument("--e-ifs", default=None, help="ratio:shift[:sign],... for E")
    p_embed.add_argument("--f-ifs", default=None, help="ratio:shift[:sign],... for F")
    p_embed.add_argument("--m", default=None)
    p_embed.add_argument("--b", default=None)
    p_embed.add_argument("--n-max", type=int, default=None)
    p_embed.add_argument("--depth", type=int, default=None)
    _add_common(p_embed)

    return parser


def _strategy_dict(args) -> dict:
    if getattr(args, "word", None):
        return {"type": "periodic" if args.periodic else "word", "word": args.word}
    name = getattr(args, "strategy", None) or "random"
    if name == "random":
        return {"type": "random"}
    if name in ("greedy", "greedy_avoid"):
        spec = {"type": "greedy_avoid"}
        if getattr(args, "forbidden", None):
            lo, _, hi = args.forbidden.partition(",")
            spec["lo"], spec["hi"] = lo.strip(), hi.strip()
        return spec
    raise ConfigError(f"unknown strategy {name!r}")


def _given(**fields) -> dict:
    """The fields a flag set; the others keep the config's defaults."""
    return {key: value for key, value in fields.items() if value is not None}


def _steps(text):
    return tuple(s.strip() for s in text.split(",")) if text else None


def _config_from_args(args) -> ExperimentConfig:
    if args.command == "verify":
        params = {"theorem": args.target}
        if args.params:
            try:
                extra = json.loads(args.params)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"--params is not valid JSON: {exc}") from exc
            if not isinstance(extra, dict):
                raise ConfigError("--params must be a JSON object")
            params.update(extra)
        params.update(_given(trials=args.trials))
        scales = (args.kmin, args.kmax) if args.kmin is not None and args.kmax is not None else None
        strategy = _strategy_dict(args) if (args.steps or args.strategy) else None
        fields = dict(kind="verify-theorem", steps=_steps(args.steps), strategy=strategy,
                      n=args.n, scales=scales, params=params)
    elif args.command == "orbit":
        fields = dict(kind="orbit", steps=_steps(args.steps), strategy=_strategy_dict(args), n=args.n)
    elif args.command == "boxdim":
        fields = dict(kind="boxdim", scales=(args.kmin, args.kmax))
        if args.ifs:
            fields.update(ifs=parse_ifs_inline(args.ifs), params=_given(depth=args.depth))
        elif args.steps and args.n is not None:
            fields.update(steps=_steps(args.steps), strategy=_strategy_dict(args), n=args.n)
        else:
            raise ConfigError("boxdim needs --ifs or (--steps and --n)")
    elif args.command == "rank":
        fields = dict(kind="rank", params={"values": [s.strip() for s in args.values.split(",")],
                                           "include_one": bool(args.include_one)})
    else:  # embed
        fields = dict(kind="embed", affine=_given(m=args.m, b=args.b) or None,
                      params=_given(n_max=args.n_max, depth=args.depth),
                      ifs=parse_ifs_inline(args.e_ifs) if args.e_ifs else None,
                      ifs_f=parse_ifs_inline(args.f_ifs) if args.f_ifs else None)
    return ExperimentConfig(**_given(out_dir=args.out, seed=args.seed, bits=args.bits, **fields))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = ExperimentConfig.load(args.config)
            cfg = dataclasses.replace(cfg, **_given(seed=args.seed, bits=args.bits))
        else:
            cfg = _config_from_args(args)
    except (ConfigError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    result = run_config(cfg, args.out)
    for key in sorted(result.summary):
        print(f"{key} = {result.summary[key]}")
    if result.exit_code != EXIT_OK and "error" in result.summary:
        label = "guard" if result.exit_code == EXIT_GUARD else "error"
        print(f"{label}: {result.summary['error']}", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
