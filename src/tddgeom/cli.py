"""Command-line entry point.

Exit codes: 0 success, 2 bad configuration, 3 numerical
non-convergence, 4 validation failure.
"""

import argparse
import dataclasses
import sys

from . import acceptance
from . import config as config_mod
from .errors import ConfigError, IntegrationError, TruncationError


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tddgeom",
        description="Dynamic-TDD interference and coverage experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment described by a config file")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="output directory")

    p_recipe = sub.add_parser("recipe", help="run a named built-in experiment")
    p_recipe.add_argument("name", help="recipe name; see --list")
    p_recipe.add_argument("--seed", type=int, default=None, help="override the recipe seed")
    p_recipe.add_argument("--out", default=None, help="output directory")

    quick = ", ".join(f"C{c.number:02d}" for c in acceptance.CRITERIA if c.quick)
    p_val = sub.add_parser("validate", help="run the twelve acceptance criteria")
    p_val.add_argument("--quick", action="store_true", help=f"run only criteria {quick}")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = config_mod.load_config(args.config)
            if args.seed is not None:
                cfg = dataclasses.replace(cfg, seed=config_mod.config_from_dict({"seed": args.seed}).seed)
            path = config_mod.run(cfg, out_dir=args.out)
            print(path)
            return 0
        if args.command == "recipe":
            for path in config_mod.run_recipe(args.name, out_dir=args.out, seed=args.seed):
                print(path)
            return 0
        for line, passed in acceptance.verdicts(quick=args.quick):
            print(line, flush=True)
        return 0 if passed else 4
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TruncationError, IntegrationError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
