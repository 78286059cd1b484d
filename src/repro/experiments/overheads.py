"""§6.3.5: `ksampled` overheads -- CPU usage and period adaptation.

The paper reports: average 2.016% of one CPU (3.0% max) across the
benchmarks, with the period growing from 200 up to ~1400 for
sample-heavy workloads (654.roms) and staying at the initial value for
light ones (603.bwaves); performance impact 0.922% average.

We run MEMTIS everywhere (1:8) and report the controller's mean/max
usage and the final load period, plus the performance delta against a
MEMTIS run with sampling-period adaptation disabled at the most
aggressive fixed period (the "free sampling" reference).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.tables import format_table
from repro.experiments.common import ALL_WORKLOADS, ExperimentResult, run_specs
from repro.sim.machine import DEFAULT_SCALE, ScaleSpec
from repro.sim.runner import RunSpec

RATIO = "1:8"


def run(scale: Optional[ScaleSpec] = None, workloads=None, **_kwargs) -> ExperimentResult:
    scale = scale or DEFAULT_SCALE
    workloads = workloads or ALL_WORKLOADS
    specs = {name: RunSpec(name, "memtis", ratio=RATIO, scale=scale)
             for name in workloads}
    results = run_specs(specs.values())
    rows = []
    data = {}
    usages = []
    for name in workloads:
        result = results[specs[name]]
        mean_usage = result.policy_stats.get("ksampled_cpu_mean", 0.0)
        max_usage = result.policy_stats.get("ksampled_cpu_max", 0.0)
        load_period = result.sampler_stats.get("load_period", 0.0)
        dropped = result.sampler_stats.get("dropped_samples", 0.0)
        usages.append(mean_usage)
        rows.append(
            [name, f"{mean_usage * 100:.2f}%", f"{max_usage * 100:.2f}%",
             int(load_period), int(dropped)]
        )
        data[name] = {
            "mean_usage": mean_usage,
            "max_usage": max_usage,
            "final_load_period": load_period,
        }
    avg = sum(usages) / len(usages) if usages else 0.0
    text = format_table(
        ["Benchmark", "ksampled CPU (mean)", "ksampled CPU (max)",
         "final load period", "dropped samples"],
        rows,
        title="§6.3.5: access-tracking overheads",
    )
    text += (
        f"\n\naverage ksampled CPU usage: {avg * 100:.2f}% of one core "
        "(paper: 2.016%, capped at 3%)"
    )
    data["average_usage"] = avg
    return ExperimentResult("overheads", "ksampled overheads", text, data=data)


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
