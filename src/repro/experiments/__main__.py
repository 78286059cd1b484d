"""Command-line entry point: ``python -m repro.experiments fig5 ...``."""

from __future__ import annotations

import argparse
import sys

from repro.experiments.common import EXPERIMENT_REGISTRY, SMOKE_SCALE, load_experiment
from repro.sim import cache as result_cache
from repro.sim import sweep


def add_execution_args(parser: argparse.ArgumentParser) -> None:
    """``--jobs`` / ``--cache-dir`` / ``--no-cache``, shared with repro.cli."""
    parser.add_argument("--jobs", "-j", type=int, metavar="N",
                        help="worker processes for simulation sweeps "
                             "(default: $REPRO_JOBS or 1 = serial)")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="persistent result cache location "
                             "(default: $REPRO_CACHE_DIR or "
                             "~/.cache/repro-memtis)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent result cache")


def apply_execution_args(args) -> None:
    """Install ``--jobs``/``--cache-dir``/``--no-cache`` as process defaults.

    Every experiment module then picks them up through
    ``run_sweep`` without per-module plumbing.
    """
    if getattr(args, "jobs", None):
        sweep.set_default_jobs(args.jobs)
    if getattr(args, "no_cache", False):
        result_cache.configure(enabled=False)
    elif getattr(args, "cache_dir", None):
        result_cache.configure(cache_dir=args.cache_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (e.g. fig5 table2); 'all' runs everything")
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument("--smoke", action="store_true",
                        help="run at the tiny smoke scale (fast, rough shapes)")
    parser.add_argument("--save-dir", metavar="DIR",
                        help="also write each result as JSON into DIR")
    add_execution_args(parser)
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        for exp_id, module in sorted(EXPERIMENT_REGISTRY.items()):
            print(f"{exp_id:10s} {module}")
        return 0

    apply_execution_args(args)
    ids = list(EXPERIMENT_REGISTRY) if args.experiments == ["all"] else args.experiments
    scale = SMOKE_SCALE if args.smoke else None
    for exp_id in ids:
        module = load_experiment(exp_id)
        result = module.run(scale=scale)
        result.print()
        if args.save_dir:
            import os

            os.makedirs(args.save_dir, exist_ok=True)
            result.save(os.path.join(args.save_dir, f"{exp_id}.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
