"""Fig. 13: sensitivity to the adaptation and cooling intervals (2:1).

Both intervals are swept from 0.1x to 10x of the default; each point is
normalised to the default-setting performance of the same benchmark.
The paper's finding: robust insensitivity except for the extreme 10x
adaptation interval, where the hot set identified over the long window
overflows small fast tiers.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.tables import format_table
from repro.core.config import MemtisConfig
from repro.experiments.common import ALL_WORKLOADS, ExperimentResult, run_specs
from repro.sim.machine import DEFAULT_SCALE, MachineSpec, ScaleSpec
from repro.sim.runner import RunSpec
from repro.workloads.registry import make_workload

MULTIPLIERS = [0.1, 0.5, 1.0, 2.0, 10.0]
RATIO = "2:1"


def _default_intervals(workload_name: str, scale: ScaleSpec):
    workload = make_workload(workload_name, scale)
    machine = MachineSpec.from_ratio(workload.total_bytes, ratio=RATIO)
    config = MemtisConfig().resolved(
        machine.fast_bytes, machine.fast_bytes + machine.capacity_bytes
    )
    return config.adaptation_interval_samples, config.cooling_interval_samples


def run(scale: Optional[ScaleSpec] = None, workloads=None, multipliers=None,
        **_kwargs) -> ExperimentResult:
    scale = scale or DEFAULT_SCALE
    workloads = workloads or ALL_WORKLOADS
    multipliers = multipliers or MULTIPLIERS

    specs = {}
    for name in workloads:
        adapt_default, cool_default = _default_intervals(name, scale)
        for mult in multipliers:
            for sweep, overrides in (
                ("adaptation", {"adaptation_interval_samples": max(
                    64, int(adapt_default * mult))}),
                ("cooling", {"cooling_interval_samples": max(
                    128, int(cool_default * mult))}),
            ):
                specs[(sweep, name, mult)] = RunSpec(
                    name, "memtis", ratio=RATIO, scale=scale,
                    policy_kwargs=overrides,
                )
    results = run_specs(specs.values())

    sections = []
    data = {}
    for sweep in ("adaptation", "cooling"):
        rows = []
        for name in workloads:
            runtimes = {
                mult: results[specs[(sweep, name, mult)]].runtime_ns
                for mult in multipliers
            }
            default_runtime = runtimes.get(1.0) or list(runtimes.values())[0]
            normalized = {m: default_runtime / rt for m, rt in runtimes.items()}
            rows.append([name] + [normalized[m] for m in multipliers])
            data[f"{sweep}|{name}"] = normalized
        sections.append(
            format_table(
                ["Benchmark"] + [f"{m}x" for m in multipliers],
                rows,
                title=f"Fig. 13: {sweep}-interval sensitivity ({RATIO}, "
                      "normalised to 1x)",
            )
        )
    return ExperimentResult(
        "fig13", "Interval sensitivity", "\n\n".join(sections), data=data,
    )


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
