"""Fig. 10: ablation of the warm set and the huge-page split.

Three MEMTIS variants per benchmark (1:8, NVM):

* vanilla -- no split, no T_warm protection;
* w/ split -- split enabled, still no T_warm;
* w/ split + T_warm -- the full system.

Reported per variant: normalised performance and migration traffic
normalised to vanilla.  The paper's shape: the warm set cuts traffic by
2.7-64.8%, the split adds performance on the skewed workloads
(Silo/Btree), and 603.bwaves is the known exception where the warm set
hurts (short-lived allocations wait for free space).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.tables import format_table
from repro.experiments.common import ALL_WORKLOADS, ExperimentResult, run_specs
from repro.sim.machine import DEFAULT_SCALE, ScaleSpec
from repro.sim.runner import RunSpec, normalized_performance

VARIANTS = {
    "vanilla": {"enable_split": False, "enable_warm_set": False},
    "split": {"enable_split": True, "enable_warm_set": False},
    "split+warm": {"enable_split": True, "enable_warm_set": True},
}
RATIO = "1:8"


def run(scale: Optional[ScaleSpec] = None, workloads=None, **_kwargs) -> ExperimentResult:
    scale = scale or DEFAULT_SCALE
    workloads = workloads or ALL_WORKLOADS
    specs = {
        (name, variant): RunSpec(name, "memtis", ratio=RATIO, scale=scale,
                                 policy_kwargs=overrides)
        for name in workloads for variant, overrides in VARIANTS.items()
    }
    results = run_specs([spec.baseline_spec() for spec in specs.values()]
                        + list(specs.values()))
    rows = []
    data = {}
    for name in workloads:
        cell = {}
        for variant in VARIANTS:
            spec = specs[(name, variant)]
            result = results[spec]
            cell[variant] = {
                "normalized": normalized_performance(
                    result, results[spec.baseline_spec()]),
                "traffic": result.migration.traffic_bytes,
            }
        vanilla_traffic = max(1, cell["vanilla"]["traffic"])
        rows.append(
            [
                name,
                cell["vanilla"]["normalized"],
                cell["split"]["normalized"],
                cell["split+warm"]["normalized"],
                1.0,
                cell["split"]["traffic"] / vanilla_traffic,
                cell["split+warm"]["traffic"] / vanilla_traffic,
            ]
        )
        data[name] = cell
    text = format_table(
        ["Benchmark", "perf vanilla", "perf +split", "perf +split+warm",
         "traffic vanilla", "traffic +split", "traffic +split+warm"],
        rows,
        title=f"Fig. 10: warm-set and split ablation ({RATIO}; traffic norm. to vanilla)",
    )
    return ExperimentResult("fig10", "Warm set / split ablation", text, data=data)


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
