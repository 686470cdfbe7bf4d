"""Command line driver.

Every pipeline stage is a subcommand; `pipeline` runs them all in order.
Settings come from a key=value config file (--config), per-key flags that
mirror the config keys (--train.lr 0.02), and the COSEG_SEED environment
variable, in increasing order of precedence.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .errors import ConfigError, StageError
from .pipeline import KEYS, STAGE_NAMES, load_config, merge_config, run_pipeline, run_stage

_STAGE_HELP = {
    "ingest": "reduce proposals per image and crop patch descriptors",
    "train": "fit the twin encoder on train-split descriptors",
    "embed": "embed test-split descriptors with the trained encoder",
    "index": "write the nearest-neighbor index config and the digest of the test embeddings",
    "retrieve": "query the index for each item's similarity group",
    "evaluate": "score proposal boxes against ground-truth boxes or masks and write the report",
    "collage": "render summary collages for the retrieved groups",
    "pipeline": "run every stage in order",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coseg",
        description="Common-object discovery pipeline: proposals to collages.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name in (*STAGE_NAMES, "pipeline"):
        p = sub.add_parser(name, help=_STAGE_HELP[name])
        p.add_argument("--config", metavar="FILE", help="key=value config file")
        for key, spec in KEYS.items():
            default = spec.default or "unset"
            p.add_argument(
                f"--{key}",
                dest=key,
                metavar="VALUE",
                help=f"override config key {key} (default: {default})",
            )
    return parser


def resolve_config(args: argparse.Namespace) -> dict[str, str]:
    """Merge defaults, config file, command-line flags, and COSEG_SEED."""
    if args.config:
        try:
            file_layer = load_config(args.config)
        except ConfigError:  # a bad line, which names path:line itself
            raise
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot read config file {args.config}: {e}") from None
    else:
        file_layer = {}
    cli_layer = {
        key: value
        for key, value in vars(args).items()
        if key in KEYS and value is not None
    }
    env_layer = {"seed": os.environ["COSEG_SEED"]} if "COSEG_SEED" in os.environ else {}
    return merge_config(file_layer, cli_layer, env_layer)


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "pipeline":
            timings = run_pipeline(cfg)
            for name in STAGE_NAMES:
                print(f"{name}: {timings[name]:.3f}s")
            print(f"total: {sum(timings.values()):.3f}s")
        else:
            elapsed = run_stage(args.command, cfg)
            print(f"{args.command}: {elapsed:.3f}s")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
