#!/usr/bin/env python3
"""Capacity-tier technology study: NVM vs (emulated) CXL memory (§6.4).

Runs MEMTIS and TPP on the same workloads with two capacity tiers:

* Optane-style NVM  (load ~300 ns -- 3.75x DRAM)
* directly-attached CXL (load ~177 ns -- 2.2x DRAM)

and shows how the shrinking latency gap compresses everyone's headroom
while MEMTIS keeps its lead (the paper's Fig. 14 takeaway).

Usage::

    python examples/cxl_vs_nvm.py [--quick] [--ratio 1:8]
"""

import argparse

from repro import RunSpec, normalized_performance, run_sweep
from repro.analysis.tables import format_table
from repro.sim.machine import DEFAULT_SCALE, ScaleSpec
from repro.sim.sweep import raise_failures

QUICK_SCALE = ScaleSpec(
    bytes_per_paper_gb=1024 * 1024,
    accesses_per_paper_gb=40_000,
    min_bytes=48 * 1024 * 1024,
    min_accesses_per_page=60,
)

WORKLOADS = ["xsbench", "silo", "btree"]
KINDS = ["nvm", "cxl"]
POLICIES = ["tpp", "memtis"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--ratio", default="1:8")
    args = parser.parse_args()
    scale = QUICK_SCALE if args.quick else DEFAULT_SCALE

    specs = {
        (workload, kind, policy): RunSpec(workload, policy, ratio=args.ratio,
                                          capacity_kind=kind, scale=scale)
        for workload in WORKLOADS for kind in KINDS for policy in POLICIES
    }
    # Each spec's all-capacity baseline of its own kind; run_sweep runs
    # each distinct baseline once.
    outcomes = run_sweep(
        [spec.baseline_spec() for spec in specs.values()]
        + list(specs.values()),
        progress=lambda event: print(f"  {event.message}"),
    )
    raise_failures(outcomes)

    rows = []
    for workload in WORKLOADS:
        row = [workload]
        for kind in KINDS:
            cell = {}
            for policy in POLICIES:
                spec = specs[(workload, kind, policy)]
                cell[policy] = normalized_performance(
                    outcomes[spec].result,
                    outcomes[spec.baseline_spec()].result,
                )
            row.extend([cell["tpp"], cell["memtis"],
                        f"{(cell['memtis'] / cell['tpp'] - 1) * 100:+.1f}%"])
        rows.append(row)

    print()
    print(format_table(
        ["Workload", "TPP (NVM)", "MEMTIS (NVM)", "gain (NVM)",
         "TPP (CXL)", "MEMTIS (CXL)", "gain (CXL)"],
        rows,
        title=f"NVM vs CXL capacity tier @ {args.ratio} "
              "(normalised to the all-capacity baseline of each kind)",
    ))
    print(
        "\nReading: gains shrink on CXL (smaller latency gap), but the\n"
        "ordering is preserved -- good placement still pays."
    )


if __name__ == "__main__":
    main()
