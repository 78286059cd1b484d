"""Extension: the §8 discussion, measured -- TMTS vs MEMTIS.

The paper argues (§8) that TMTS targets a different regime: it keeps a
secondary-tier residency around 25% with SLO-safe demotion, which works
when the hot set fits DRAM (the 2:1 configuration) but degrades when the
hot working set exceeds the fast tier (1:8/1:16).  This experiment runs
our TMTS-style policy (adaptive cold-age demotion, sample-once
promotion, split-on-demotion) against MEMTIS across those regimes.

Expected shape: competitive at 2:1, increasingly behind MEMTIS as the
fast tier shrinks.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.tables import format_table
from repro.experiments.common import ExperimentResult, run_grid
from repro.sim.machine import DEFAULT_SCALE, ScaleSpec

WORKLOADS = ["xsbench", "silo", "btree", "654.roms"]
RATIOS = ["2:1", "1:2", "1:8"]
POLICIES = ["tmts", "memtis"]


def run(scale: Optional[ScaleSpec] = None, workloads=None, ratios=None,
        **_kwargs) -> ExperimentResult:
    scale = scale or DEFAULT_SCALE
    workloads = workloads or WORKLOADS
    ratios = ratios or RATIOS
    grid = run_grid(workloads, POLICIES, ratios, scale=scale)
    rows = []
    data = {}
    for name in workloads:
        row = [name]
        for ratio in ratios:
            cell = {policy: grid[(name, policy, ratio)]["normalized"]
                    for policy in POLICIES}
            gap = (cell["memtis"] / cell["tmts"] - 1) * 100
            row.extend([cell["tmts"], cell["memtis"], f"{gap:+.1f}%"])
            data[f"{name}|{ratio}"] = dict(cell, gap_pct=gap)
        rows.append(row)
    headers = ["Benchmark"]
    for ratio in ratios:
        headers.extend([f"TMTS {ratio}", f"MEMTIS {ratio}", f"gap {ratio}"])
    text = format_table(
        headers, rows,
        title="TMTS-style policy vs MEMTIS across tiering regimes (§8)",
    )
    return ExperimentResult("tmts", "TMTS comparison (§8)", text, data=data)


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
