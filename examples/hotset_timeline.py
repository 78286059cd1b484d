#!/usr/bin/env python3
"""Watch MEMTIS classify the hot set in real time (Fig. 9 style).

Runs MEMTIS on a workload and renders the identified hot/warm set sizes
against the DRAM capacity over simulated time, together with the
fast-tier hit ratio -- the live view of the histogram + Algorithm 1
machinery keeping the hot set sized to DRAM.

Usage::

    python examples/hotset_timeline.py [--quick] [--workload xsbench]
"""

import argparse

from repro import RunSpec
from repro.analysis.ascii import timeline_chart
from repro.sim.machine import DEFAULT_SCALE, ScaleSpec

QUICK_SCALE = ScaleSpec(
    bytes_per_paper_gb=1024 * 1024,
    accesses_per_paper_gb=40_000,
    min_bytes=48 * 1024 * 1024,
    min_accesses_per_page=60,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="xsbench")
    parser.add_argument("--ratio", default="1:8")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    scale = QUICK_SCALE if args.quick else DEFAULT_SCALE

    print(f"running memtis on {args.workload} @ {args.ratio} ...\n")
    result = RunSpec(args.workload, "memtis", ratio=args.ratio,
                     scale=scale).run()
    series = result.metrics.series
    times = [t / 1e9 for t in series.now_ns]
    fast_mb = result.machine.fast_bytes / 1e6

    print(timeline_chart(
        times,
        {
            "hot (MB)": [b / 1e6 for b in series.policy["hot_bytes"]],
            "warm (MB)": [b / 1e6 for b in series.policy["warm_bytes"]],
            "dram (MB)": [fast_mb] * len(times),
        },
        title=f"Identified hot/warm sets vs DRAM ({fast_mb:.1f} MB)",
        height=14,
    ))
    print()
    print(timeline_chart(
        times,
        {"ratio": series.hit_ratio()},
        title="Fast-tier hit ratio over time",
        height=8,
    ))
    counters = result.counters
    print(
        f"\nfinal thresholds: T_hot={counters['ksampled/t_hot']:.0f} "
        f"T_warm={counters['ksampled/t_warm']:.0f} "
        f"T_cold={counters['ksampled/t_cold']:.0f}; "
        f"overall hit ratio {result.fast_hit_ratio * 100:.1f}%"
    )


if __name__ == "__main__":
    main()
