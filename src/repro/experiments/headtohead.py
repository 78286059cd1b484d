"""Head-to-head: every registered policy across workloads and machines.

Beyond the paper: Fig. 5 compares MEMTIS against its six contemporaries,
but the registry has since grown a related-work zoo (TierBPF, Nomad,
HybridTier, ARMS -- see PAPERS.md).  This experiment races the *entire*
registry:

1. a fig5-style normalised-performance grid over >= 4 benchmarks on the
   two-tier DRAM/NVM machine at two tiering ratios;
2. the same field on the 3-tier ``dram-cxl-nvm`` preset, where demotion
   cascades and intermediate-tier placement separate designs that
   looked alike on two tiers;
3. a **phase-flip** scenario (the ``phaseflip`` workload): the hot set
   jumps to a disjoint range mid-run, so accumulated-counter policies
   serve the *old* phase from DRAM while adaptive ones (ARMS's drift
   reset) re-converge -- the adaptivity column the paper never had.

Every cell is normalised against the matching all-capacity-with-THP
baseline (the paper's 1.0 convention), so numbers are comparable across
sections.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.ascii import bar_chart
from repro.analysis.tables import format_table
from repro.experiments.common import (ExperimentResult, geomean, run_grid,
                                      run_specs)
from repro.policies.registry import policy_names
from repro.sim.machine import DEFAULT_SCALE, ScaleSpec
from repro.sim.runner import RunSpec

#: >= 4 benchmarks spanning the paper's spectrum: pointer chasing
#: (graph500), skewed OLTP (silo), flat random (xsbench), index reads
#: (btree).
DEFAULT_WORKLOADS = ["graph500", "silo", "xsbench", "btree"]
RATIOS = ["1:2", "1:8"]
THREE_TIER_PRESET = "dram-cxl-nvm"
THREE_TIER_RATIO = "1:8"
#: Phase-flip runs at 1:2 so DRAM holds roughly one hot window: the
#: flip is survivable for an adaptive policy, fatal for a stale one.
PHASEFLIP_RATIO = "1:2"


def _policy_table(grid, workloads, policies, ratio, title):
    """Rows = policies (wide zoo), columns = workloads + geomean."""
    rows = []
    for policy in policies:
        values = [grid[(w, policy, ratio)]["normalized"] for w in workloads]
        rows.append([policy] + values + [geomean(values)])
    rows.sort(key=lambda r: -r[-1])
    return format_table(["Policy"] + list(workloads) + ["geomean"], rows,
                        title=title)


def run(
    scale: Optional[ScaleSpec] = None,
    workloads=None,
    policies=None,
    ratios=None,
    three_tier_workloads=None,
    verbose: bool = False,
    **_kwargs,
) -> ExperimentResult:
    scale = scale or DEFAULT_SCALE
    workloads = workloads or DEFAULT_WORKLOADS
    policies = policies or policy_names()
    ratios = ratios or RATIOS
    three_tier_workloads = three_tier_workloads or workloads[:2]
    progress = (lambda msg: print(f"  running {msg}")) if verbose else None

    sections = []
    data = {"cells": {}}

    # -- 1: two-tier grid --------------------------------------------------
    grid = run_grid(workloads, policies, ratios, scale=scale,
                    progress=progress)
    for ratio in ratios:
        sections.append(_policy_table(
            grid, workloads, policies, ratio,
            title=f"Head-to-head [2-tier DRAM/NVM {ratio}] "
                  "normalised performance (all-NVM+THP = 1.0)",
        ))
        for (w, p, r), cell in grid.items():
            if r == ratio:
                data["cells"][f"2tier|{w}|{p}|{r}"] = cell["normalized"]

    # -- 2: three-tier preset ----------------------------------------------
    specs_3t = [RunSpec(workload, policy, ratio=THREE_TIER_RATIO,
                        scale=scale, machine_preset=THREE_TIER_PRESET)
                for workload in three_tier_workloads for policy in policies]
    results_3t = run_specs([spec.baseline_spec() for spec in specs_3t]
                           + specs_3t)
    rows_3t = []
    for spec in specs_3t:
        result = results_3t[spec]
        normalized = (results_3t[spec.baseline_spec()].runtime_ns
                      / result.runtime_ns)
        rows_3t.append([spec.policy, spec.workload, normalized,
                        result.migration.cascade_pages])
        data["cells"][f"3tier|{spec.workload}|{spec.policy}"] = normalized
    rows_3t.sort(key=lambda r: (r[1], -r[2]))
    sections.append(format_table(
        ["Policy", "Benchmark", "normalised", "cascade pages"], rows_3t,
        title=f"Head-to-head [3-tier {THREE_TIER_PRESET} {THREE_TIER_RATIO}] "
              "(normalised to all-NVM+THP)",
    ))

    # -- 3: phase-flip adaptivity scenario ---------------------------------
    flip_grid = run_grid(["phaseflip"], policies, [PHASEFLIP_RATIO],
                         scale=scale, progress=progress)
    flip_rows = []
    for policy in policies:
        cell = flip_grid[("phaseflip", policy, PHASEFLIP_RATIO)]
        result = cell["result"]
        stats = result.policy_stats
        # MEMTIS keeps its cooling count in the registry, not in stats().
        coolings = stats.get(
            "coolings", float(result.counters.get("ksampled/coolings", 0)))
        adapt = stats.get("phase_resets", coolings)
        flip_rows.append([policy, cell["normalized"], adapt])
        data["cells"][f"phaseflip|{policy}"] = cell["normalized"]
    flip_rows.sort(key=lambda r: -r[1])
    sections.append(format_table(
        ["Policy", "normalised", "resets/coolings"], flip_rows,
        title=f"Phase-flip scenario [{PHASEFLIP_RATIO}]: hot set jumps to a "
              "disjoint range mid-run",
    ))
    arms_stats = flip_grid[("phaseflip", "arms", PHASEFLIP_RATIO)][
        "result"].policy_stats if "arms" in policies else {}

    # -- summary -----------------------------------------------------------
    overall = {
        policy: geomean(
            [grid[(w, policy, r)]["normalized"]
             for w in workloads for r in ratios]
        )
        for policy in policies
    }
    ranked = sorted(overall, key=lambda p: -overall[p])
    summary = bar_chart(
        ranked, [overall[p] for p in ranked],
        title="Head-to-head geomean across the 2-tier grid", reference=1.0,
    )
    headline = (
        f"\n{len(policies)} policies x {len(workloads)} benchmarks; "
        f"2-tier winner: {ranked[0]} ({overall[ranked[0]]:.2f}), "
        f"phase-flip winner: {flip_rows[0][0]} ({flip_rows[0][1]:.2f})"
    )
    if arms_stats:
        headline += (
            f"; ARMS detected {arms_stats.get('phase_resets', 0):.0f} "
            "phase resets"
        )
    headline += "."
    data.update({"overall_geomean": overall,
                 "phaseflip": {r[0]: r[1] for r in flip_rows}})
    text = "\n\n".join(sections) + "\n\n" + summary + headline
    return ExperimentResult(
        "headtohead", "Full-registry policy head-to-head", text, data=data
    )


def main() -> None:
    run(verbose=True).print()


if __name__ == "__main__":
    main()
