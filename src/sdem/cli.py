"""Command-line entry point: sdem <subcommand> --config FILE [overrides]."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .harness import COMMANDS, OPTION_KEYS, ExperimentConfig, run_command


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdem",
        description="Stochastic-flow studies for SDEs with mollified rough coefficients",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in sorted(COMMANDS.items()):
        p = sub.add_parser(name, help=(fn.__doc__ or "").strip().splitlines()[0]
                           if fn.__doc__ else None)
        p.add_argument("--config", help="JSON config document")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--paths", type=int, help="override the path count")
        p.add_argument("--out", help="output directory for reports")
        p.add_argument("--workers", type=int,
                       help="worker threads (default: SDEM_WORKERS or 1)")
        if "plot_data" in OPTION_KEYS[name]:
            p.add_argument("--plot-data", action="store_true",
                           help="also emit two-column gnuplot data files")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = dict(seed=args.seed, paths=args.paths, out=args.out,
                     workers=args.workers)
    if args.config:
        cfg = ExperimentConfig.from_file(args.config, **overrides)
    else:
        cfg = ExperimentConfig.from_dict({}, **overrides)
    if getattr(args, "plot_data", False):
        cfg = replace(cfg, options={**cfg.options, "plot_data": True})
    result = run_command(args.command, cfg)
    print(f"{result.name}: {'PASS' if result.ok else 'FAIL'} "
          f"(config {cfg.fingerprint})")
    if not result.ok:
        for failure in result.failures:
            print(f"  check failed: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
