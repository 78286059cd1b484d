"""Table 3: HeMem's over-allocation sizes.

HeMem pins small allocations in DRAM regardless of hotness; the paper
measures how much fast-tier memory those allocations consume for each
benchmark.  We run each workload under HeMem and read the policy's
over-allocation counter, reporting it next to the paper's numbers
(scaled to MB of the simulated footprint).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.tables import format_table
from repro.experiments.common import ALL_WORKLOADS, ExperimentResult, run_specs
from repro.sim.machine import DEFAULT_SCALE, ScaleSpec
from repro.sim.runner import RunSpec

#: Paper Table 3 (MB).
PAPER_OVERALLOC_MB = {
    "graph500": 60,
    "pagerank": 500,
    "xsbench": 420,
    "liblinear": 90,
    "silo": 1400,
    "btree": 9800,
    "603.bwaves": 1900,
    "654.roms": 900,
}


def run(scale: Optional[ScaleSpec] = None, workloads=None, **_kwargs) -> ExperimentResult:
    scale = scale or DEFAULT_SCALE
    workloads = workloads or ALL_WORKLOADS
    headers = ["Benchmark", "Paper over-alloc (MB)", "Sim over-alloc (MB)",
               "Sim share of RSS"]
    specs = {name: RunSpec(name, "hemem", ratio="1:2", scale=scale)
             for name in workloads}
    results = run_specs(specs.values())
    rows = []
    data = {}
    for name in workloads:
        result = results[specs[name]]
        over = result.policy_stats.get("overallocated_bytes", 0.0)
        share = over / result.final_rss_bytes if result.final_rss_bytes else 0.0
        rows.append(
            [name, PAPER_OVERALLOC_MB[name], over / 1e6, f"{share * 100:.1f}%"]
        )
        data[name] = {"paper_mb": PAPER_OVERALLOC_MB[name], "sim_bytes": over}
    text = format_table(headers, rows, title="Table 3: HeMem over-allocation")
    return ExperimentResult("table3", "HeMem over-allocation sizes", text, data=data)


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
