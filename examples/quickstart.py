#!/usr/bin/env python3
"""Quickstart: run MEMTIS against the paper's baselines on one workload.

Runs the Silo benchmark (the paper's canonical skewed-subpage workload)
at a 1:8 DRAM:NVM ratio under several tiering systems and prints the
normalised performance, fast-tier hit ratio, and migration traffic --
a single-workload slice of the paper's Fig. 5.

Usage::

    python examples/quickstart.py [--quick] [--workload silo] [--ratio 1:8]
"""

import argparse

from repro import RunSpec, normalized_performance, run_sweep
from repro.analysis.ascii import bar_chart
from repro.analysis.tables import format_table
from repro.sim.machine import DEFAULT_SCALE, ScaleSpec
from repro.sim.sweep import raise_failures

QUICK_SCALE = ScaleSpec(
    bytes_per_paper_gb=1024 * 1024,
    accesses_per_paper_gb=40_000,
    min_bytes=48 * 1024 * 1024,
    min_accesses_per_page=60,
)

POLICIES = ["autonuma", "tiering-0.8", "tpp", "nimble", "hemem", "memtis"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="silo")
    parser.add_argument("--ratio", default="1:8",
                        choices=["1:2", "1:8", "1:16", "2:1"])
    parser.add_argument("--quick", action="store_true",
                        help="smaller footprint/trace for a fast demo")
    args = parser.parse_args()

    scale = QUICK_SCALE if args.quick else DEFAULT_SCALE
    print(f"workload={args.workload}  ratio={args.ratio} (DRAM:NVM)\n")

    specs = {policy: RunSpec(args.workload, policy, ratio=args.ratio,
                             scale=scale)
             for policy in POLICIES}
    # One sweep: the shared all-NVM baseline plus every policy, cached and
    # fanned out over $REPRO_JOBS workers.
    baseline_spec = specs["memtis"].baseline_spec()
    outcomes = run_sweep([baseline_spec, *specs.values()],
                         progress=lambda event: print(f"  {event.message}"))
    raise_failures(outcomes)
    baseline = outcomes[baseline_spec].result

    rows = []
    normalized = {}
    for policy, spec in specs.items():
        result = outcomes[spec].result
        normalized[policy] = normalized_performance(result, baseline)
        rows.append([
            policy,
            normalized[policy],
            f"{result.fast_hit_ratio * 100:.1f}%",
            result.migration.traffic_bytes / 1e6,
            float(result.counters.get("kmigrated/splits", 0)),
        ])

    print()
    print(format_table(
        ["Policy", "Normalised perf", "Fast-tier hits", "Traffic (MB)",
         "Huge-page splits"],
        rows,
        title=f"{args.workload} @ {args.ratio} (all-NVM with THP = 1.0)",
    ))
    print()
    print(bar_chart(list(normalized), list(normalized.values()),
                    title="Normalised performance", reference=1.0))


if __name__ == "__main__":
    main()
