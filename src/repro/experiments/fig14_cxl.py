"""Fig. 14: CXL memory as the capacity tier -- MEMTIS vs TPP.

Same grid as Fig. 5 but the capacity tier is emulated CXL (177 ns load,
§6.4) and the comparison is against TPP, the system designed for
CXL-attached memory.  Expected shape: the smaller latency gap shrinks
everyone's headroom, but MEMTIS still beats TPP across the board
(paper: up to 32.8%-102.9% per benchmark).

``run_three_tier`` extends the figure beyond the paper: DRAM and CXL
and NVM *coexist* as an ordered 3-tier hierarchy (the
``dram-cxl-nvm`` machine preset) instead of swapping which technology
plays the capacity tier.  Demotions out of DRAM land on CXL; when CXL
fills, the migration engine's cross-tier demotion cascade pushes its
coldest pages onward to NVM, and the per-run cascade counters report
how often that happened.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.tables import format_table
from repro.experiments.common import (
    ALL_WORKLOADS,
    ExperimentResult,
    run_grid,
    run_specs,
)
from repro.sim.machine import DEFAULT_SCALE, ScaleSpec
from repro.sim.runner import RunSpec, normalized_performance

POLICIES = ["tpp", "memtis"]
RATIOS = ["1:2", "1:8", "1:16"]

#: Small default grid for the 3-tier variant so it runs in tier-1 time.
THREE_TIER_WORKLOADS = ["silo", "xsbench"]
THREE_TIER_PRESET = "dram-cxl-nvm"


def run(scale: Optional[ScaleSpec] = None, workloads=None, ratios=None,
        **_kwargs) -> ExperimentResult:
    scale = scale or DEFAULT_SCALE
    workloads = workloads or ALL_WORKLOADS
    ratios = ratios or RATIOS
    grid = run_grid(workloads, POLICIES, ratios, scale=scale,
                    capacity_kind="cxl")
    rows = []
    data = {}
    for name in workloads:
        row = [name]
        for ratio in ratios:
            cell = {policy: grid[(name, policy, ratio)]["normalized"]
                    for policy in POLICIES}
            gain = (cell["memtis"] / cell["tpp"] - 1) * 100
            row.extend([cell["tpp"], cell["memtis"], f"{gain:+.1f}%"])
            data[f"{name}|{ratio}"] = dict(cell, gain_pct=gain)
        rows.append(row)
    headers = ["Benchmark"]
    for ratio in ratios:
        headers.extend([f"TPP {ratio}", f"MEMTIS {ratio}", f"gain {ratio}"])
    text = format_table(
        headers, rows,
        title="Fig. 14: emulated CXL capacity tier (normalised to all-CXL+THP)",
    )
    return ExperimentResult("fig14", "CXL capacity tier", text, data=data)


def run_three_tier(scale: Optional[ScaleSpec] = None, workloads=None,
                   ratio: str = "1:8", **_kwargs) -> ExperimentResult:
    """3-tier DRAM/CXL/NVM variant exercising the demotion cascade.

    Normalisation baseline: the same preset machine collapsed to its
    slowest tier (all-NVM with THP), matching the paper's convention.
    """
    scale = scale or DEFAULT_SCALE
    workloads = workloads or THREE_TIER_WORKLOADS
    specs = {
        (name, policy): RunSpec(name, policy, ratio=ratio, scale=scale,
                                machine_preset=THREE_TIER_PRESET)
        for name in workloads for policy in POLICIES
    }
    results = run_specs([spec.baseline_spec() for spec in specs.values()]
                        + list(specs.values()))
    rows = []
    data = {}
    for name in workloads:
        row = [name]
        cell = {}
        for policy in POLICIES:
            spec = specs[(name, policy)]
            result = results[spec]
            cell[policy] = normalized_performance(
                result, results[spec.baseline_spec()])
            if policy == "memtis":
                cell["cascade_pages"] = result.migration.cascade_pages
                cell["cascade_bytes"] = result.migration.cascade_bytes
        gain = (cell["memtis"] / cell["tpp"] - 1) * 100
        row.extend([cell["tpp"], cell["memtis"], f"{gain:+.1f}%",
                    cell["cascade_pages"]])
        data[name] = dict(cell, gain_pct=gain)
        rows.append(row)
    headers = ["Benchmark", f"TPP {ratio}", f"MEMTIS {ratio}",
               f"gain {ratio}", "cascades"]
    text = format_table(
        headers, rows,
        title="Fig. 14 (3-tier): DRAM/CXL/NVM hierarchy "
              "(normalised to all-NVM+THP)",
    )
    return ExperimentResult("fig14-3tier", "3-tier DRAM/CXL/NVM", text,
                            data=data)


def main() -> None:
    run().print()
    run_three_tier().print()


if __name__ == "__main__":
    main()
