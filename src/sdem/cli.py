"""Command-line entry point: sdem <subcommand> --config FILE [overrides]."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .fields import FieldError
from .harness import STUDIES, ExperimentConfig, run_command


def _switches(study) -> list:
    """The study's options that are false by default; each is a --switch."""
    return [key for key, (_, default) in study.options.items() if default is False]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdem",
        description="Stochastic-flow studies for SDEs with mollified rough coefficients",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, study in sorted(STUDIES.items()):
        p = sub.add_parser(name, help=study.help)
        p.add_argument("--config", help="JSON config document")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--paths", type=int, help="override the path count")
        p.add_argument("--out", help="output directory for reports")
        p.add_argument("--workers", type=int, help="worker threads (default: 1)")
        for key in _switches(study):
            p.add_argument("--" + key.replace("_", "-"), action="store_true",
                           help=f"set the option {key} to true")
    return parser


def _config(args) -> ExperimentConfig:
    """The config that the arguments give; a --config file that cannot be
    read or parsed is a FieldError naming it."""
    overrides = dict(seed=args.seed, paths=args.paths, out=args.out,
                     workers=args.workers)
    if args.config:
        try:
            cfg = ExperimentConfig.from_file(args.config, **overrides)
        except (OSError, json.JSONDecodeError) as exc:
            raise FieldError(f"cannot read --config {args.config}: {exc}") from exc
    else:
        cfg = ExperimentConfig.from_dict({}, **overrides)
    switched = {key: True for key in _switches(STUDIES[args.command]) if getattr(args, key)}
    if switched:
        cfg = replace(cfg, options={**cfg.options, **switched})
    return cfg


def main(argv=None) -> int:
    """Run one study.  Exit code 0: every check passed; 1: a check failed;
    2: bad input, a FieldError, which is printed without a traceback (the
    code argparse gives a bad command line)."""
    args = build_parser().parse_args(argv)
    try:
        cfg = _config(args)
        result = run_command(args.command, cfg)
    except FieldError as exc:
        print(f"sdem: error: {exc}", file=sys.stderr)
        return 2
    print(f"{result.name}: {'PASS' if result.ok else 'FAIL'} "
          f"(config {cfg.fingerprint})")
    if not result.ok:
        for failure in result.failures:
            print(f"  check failed: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
