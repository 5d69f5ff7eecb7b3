"""Entry point: run one experiment from a config file and emit its CSV."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import EXPERIMENTS, ConfigError, load_config
from .experiments import run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pslab",
        description="Phase-space localization experiments; results land as CSV files.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="which experiment to run")
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config, args.experiment, seed=args.seed)
        path = run(cfg, args.out)
    except ConfigError as exc:
        print(f"pslab: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"pslab: {args.experiment} failed: {exc}", file=sys.stderr)
        return 1
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
