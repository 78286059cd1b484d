"""Fig. 7: the 2:1 configuration (Meta's production target).

Compares MEMTIS and TPP at fast:capacity = 2:1, with the all-DRAM
(with and without THP) runs as references.  The paper's shape: MEMTIS
tracks all-DRAM closely (except the SPEC pair), beating TPP by
6.1%-33.3% where the sampled footprint exceeds DRAM and matching it
where the hot set trivially fits.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.tables import format_table
from repro.experiments.common import ALL_WORKLOADS, ExperimentResult, run_specs
from repro.sim.machine import DEFAULT_SCALE, ScaleSpec
from repro.sim.runner import RunSpec, normalized_performance

POLICIES = ["tpp", "memtis"]
RATIO = "2:1"
#: All-DRAM references: label -> force_base_pages (THP off).
ALL_DRAM = {"all-dram+thp": False, "all-dram-thp": True}


def run(scale: Optional[ScaleSpec] = None, workloads=None, **_kwargs) -> ExperimentResult:
    scale = scale or DEFAULT_SCALE
    workloads = workloads or ALL_WORKLOADS
    specs = {}
    for name in workloads:
        for policy in POLICIES:
            specs[(name, policy)] = RunSpec(name, policy, ratio=RATIO,
                                            scale=scale)
        for label, force_base in ALL_DRAM.items():
            specs[(name, label)] = RunSpec(
                name, "all-fast", ratio=RATIO, scale=scale,
                machine_variant="all-fast", force_base_pages=force_base,
            )
    baselines = {name: specs[(name, POLICIES[0])].baseline_spec()
                 for name in workloads}
    results = run_specs(list(baselines.values()) + list(specs.values()))
    rows = []
    data = {}
    for name in workloads:
        baseline = results[baselines[name]]
        cell = {
            label: normalized_performance(results[specs[(name, label)]],
                                          baseline)
            for label in POLICIES + list(ALL_DRAM)
        }
        gap = (cell["memtis"] / cell["tpp"] - 1) * 100
        dram_ratio = cell["memtis"] / cell["all-dram+thp"]
        rows.append(
            [name, cell["all-dram+thp"], cell["all-dram-thp"], cell["tpp"],
             cell["memtis"], f"{gap:+.1f}%", f"{dram_ratio * 100:.0f}%"]
        )
        data[name] = dict(cell, memtis_vs_tpp_pct=gap)
    text = format_table(
        ["Benchmark", "All-DRAM w/THP", "All-DRAM w/o THP", "TPP", "MEMTIS",
         "MEMTIS vs TPP", "MEMTIS / all-DRAM"],
        rows,
        title="Fig. 7: 2:1 configuration (normalised to all-NVM+THP)",
    )
    return ExperimentResult("fig7", "2:1 configuration vs TPP", text, data=data)


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
