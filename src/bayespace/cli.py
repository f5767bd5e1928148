"""Command-line harness: ``bh <subcommand> [--flag value]...``.

Exit codes: 0 on success, 2 on configuration errors, 3 on numerical
failures (a JSON error report is printed to stdout).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .errors import BayesSpaceError, ConfigError
from .experiments import (ExperimentConfig, run_gvi_demo, run_hermite_iterate,
                          run_hermite_sweep, run_stereo_iterate, run_stereo_project)

_COMMANDS = {
    "stereo-project": run_stereo_project,
    "stereo-iterate": run_stereo_iterate,
    "hermite-sweep": run_hermite_sweep,
    "hermite-iterate": run_hermite_iterate,
    "gvi-demo": run_gvi_demo,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bh",
        description="Bayes-space variational inference experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0].lower())
        p.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory")
        p.add_argument("--seed", type=int, metavar="U64", help="random seed")
        p.add_argument("--nodes", type=int, metavar="N", help="quadrature nodes per dimension")
        p.add_argument("--max-iters", type=int, metavar="N", help="iteration cap")
        p.add_argument("--tol", type=float, metavar="R", help="convergence tolerance on the step norm")
        p.add_argument("--basis", type=int, metavar="M", help="number of basis functions")
        p.add_argument("--z", type=float, metavar="R", help="pin the stereo measurement value")
        p.add_argument("--config", metavar="FILE", help="key=value configuration file")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    for key in ("out_dir", "seed", "nodes", "max_iters", "tol", "basis", "z"):
        if getattr(args, key) is not None:
            setattr(cfg, key, getattr(args, key))
    return cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:  # each run_* validates the config before it writes anything
        summary = _COMMANDS[args.command](_config_from_args(args))
    except ConfigError as err:
        print(f"bh: configuration error: {err}", file=sys.stderr)
        return 2
    except BayesSpaceError as err:
        report = {"error": type(err).__name__, "message": str(err),
                  "experiment": args.command}
        print(json.dumps(report, indent=2, sort_keys=True))
        return 3
    out = summary.get("config", {}).get("out_dir")
    print(f"bh: {args.command} complete, outputs in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
