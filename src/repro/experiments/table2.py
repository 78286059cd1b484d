"""Table 2: benchmark characteristics (RSS, huge page ratio).

Reports the paper's values alongside the *measured* scaled values: each
workload's all-capacity baseline run (static all-capacity policy, 1:2
machine collapsed to its slowest tier) reports its simulated RSS and
THP ratio.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.tables import format_table
from repro.experiments.common import ALL_WORKLOADS, ExperimentResult, run_specs
from repro.sim.machine import DEFAULT_SCALE, ScaleSpec
from repro.sim.runner import RunSpec
from repro.workloads.registry import WORKLOAD_REGISTRY


def run(scale: Optional[ScaleSpec] = None, workloads=None, **_kwargs) -> ExperimentResult:
    scale = scale or DEFAULT_SCALE
    workloads = workloads or ALL_WORKLOADS
    headers = [
        "Benchmark",
        "Paper RSS (GB)",
        "Paper RHP",
        "Sim RSS (MB)",
        "Sim RHP",
        "Description",
    ]
    specs = {
        name: RunSpec(name, "all-capacity", ratio="1:2", scale=scale,
                      machine_variant="all-capacity")
        for name in workloads
    }
    results = run_specs(specs.values())
    rows = []
    data = {}
    for name in workloads:
        cls = WORKLOAD_REGISTRY[name]
        result = results[specs[name]]
        rows.append(
            [
                name,
                cls.paper_rss_gb,
                f"{cls.paper_rhp * 100:.1f}%",
                result.final_rss_bytes / 1e6,
                f"{result.huge_page_ratio * 100:.1f}%",
                cls.description,
            ]
        )
        data[name] = {
            "paper_rss_gb": cls.paper_rss_gb,
            "paper_rhp": cls.paper_rhp,
            "sim_rss_bytes": result.final_rss_bytes,
            "sim_rhp": result.huge_page_ratio,
        }
    text = format_table(headers, rows, title="Table 2: benchmark characteristics")
    return ExperimentResult("table2", "Benchmark characteristics", text, data=data)


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
