"""Command-line entry point.

    glzi <experiment> [--config FILE] [--set key=value]... [--out DIR]
         [--workers N] [--svg]

Exit codes: 0 success, 2 configuration error, 3 numerical failure, a
crashed worker process or exhausted memory.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import BrokenExecutor

from .errors import ConfigError, GlziError
from .scan import COMMANDS, EXPERIMENTS, load_config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glzi",
        description="Battery-powered geometric Landau-Zener interferometer scans.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS,
                        help="which experiment to run")
    parser.add_argument("--config", metavar="FILE", default=None,
                        help="key=value config file (see README for keys)")
    parser.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                        dest="overrides", help="override one config key")
    parser.add_argument("--out", metavar="DIR", default="glzi-out",
                        help="output directory (default: glzi-out)")
    parser.add_argument("--workers", metavar="N", type=int, default=None,
                        help="worker processes (default: machine parallelism)")
    parser.add_argument("--svg", action="store_true",
                        help="also render simple SVG plots next to the CSVs")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.experiment, config_file=args.config,
                          overrides=args.overrides, out_dir=args.out,
                          workers=args.workers, svg=args.svg)
    except ConfigError as exc:
        print(f"glzi: config error: {exc}", file=sys.stderr)
        return 2
    try:
        written = COMMANDS[args.experiment](cfg)
    except (GlziError, BrokenExecutor, OSError, FloatingPointError) as exc:
        print(f"glzi: {args.experiment} failed: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"glzi: {args.experiment} failed: out of memory ({exc})", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
