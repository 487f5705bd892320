"""Command-line entry point.

Logs go to stderr; machine-readable outputs are files under the output
directory. Exit codes: 0 success, 2 config error, 3 data error, 4 training or
gradient divergence, 5 missing stage dependency, 1 anything unexpected.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import __version__
from .errors import (
    ConfigError,
    DataFormatError,
    DivergenceError,
    IntervalError,
    MetricError,
    PlacementError,
    ShapeError,
    StageDependencyError,
)
from .pipeline import STAGES, load_config, run_command

logger = logging.getLogger("tapkit")

# Errors that mean a bad input file or value; they all exit 3.
DATA_ERRORS = (DataFormatError, IntervalError, ShapeError, MetricError, PlacementError)

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tapkit",
        description="Temporal action proposal pipeline on synthetic data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, run in STAGES.items():
        summary = run.__doc__.strip().splitlines()[0]
        sp = sub.add_parser(name, help=summary, description=summary)
        sp.add_argument("--config", default=None, metavar="FILE",
                        help="JSON config file (defaults apply when omitted)")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key (dotted path, JSON value)")
        sp.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (config key output_dir)")
        sp.add_argument("--seed", type=int, default=None,
                        help="global seed (TAPKIT_SEED env overrides)")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set, args.seed, args.out)
        run_command(cfg, args.command)
    except ConfigError as exc:
        logger.error("config error: %s", exc)
        return 2
    except DATA_ERRORS as exc:
        logger.error("data error: %s", exc)
        return 3
    except DivergenceError as exc:
        logger.error("divergence: %s", exc)
        return 4
    except StageDependencyError as exc:
        logger.error("stage dependency: %s", exc)
        return 5
    except Exception:
        logger.exception("unexpected error")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
