"""Extension: ablation study of MEMTIS's design choices.

Beyond the paper's Fig. 10 (warm set / split), this sweeps the remaining
design decisions DESIGN.md calls out:

* ``no-dynamic-period`` -- fixed PEBS periods instead of the 3%-capped
  controller (§4.1.1);
* ``no-compensation``  -- drop the ``H_i = C_i * nr_subpages`` base-page
  hotness compensation (§4.1.2), so base pages compete with huge pages
  on raw counts;
* ``no-seeding``       -- new pages start at hotness 0 instead of the
  current hot threshold (§4.2.1), exposing them to immediate demotion;
* ``no-warm`` / ``no-split`` -- the Fig. 10 switches, for completeness.

Reported: performance normalised to full MEMTIS (1.0 = no effect; below
1.0 = the ablated mechanism was earning its keep on that workload).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.tables import format_table
from repro.experiments.common import ExperimentResult, run_specs
from repro.sim.machine import DEFAULT_SCALE, ScaleSpec
from repro.sim.runner import RunSpec

VARIANTS = {
    "full": {},
    "no-dynamic-period": {"dynamic_period": False},
    "no-compensation": {"compensate_base_hotness": False},
    "no-seeding": {"seed_new_pages": False},
    "no-warm": {"enable_warm_set": False},
    "no-split": {"enable_split": False},
}

#: Workloads chosen to stress each mechanism: bwaves (seeding of fresh
#: allocations), silo (split + compensation), xsbench (warm set),
#: 654.roms (dynamic period -- its sample volume drives the controller).
WORKLOADS = ["xsbench", "silo", "603.bwaves", "654.roms"]
RATIO = "1:8"


def run(scale: Optional[ScaleSpec] = None, workloads=None, variants=None,
        **_kwargs) -> ExperimentResult:
    scale = scale or DEFAULT_SCALE
    workloads = workloads or WORKLOADS
    variants = variants or list(VARIANTS)
    specs = {
        (name, variant): RunSpec(name, "memtis", ratio=RATIO, scale=scale,
                                 policy_kwargs=VARIANTS[variant])
        for name in workloads for variant in variants
    }
    results = run_specs(specs.values())
    rows = []
    data = {}
    for name in workloads:
        runtimes = {variant: results[specs[(name, variant)]].runtime_ns
                    for variant in variants}
        full = runtimes.get("full") or list(runtimes.values())[0]
        normalized = {v: full / rt for v, rt in runtimes.items()}
        rows.append([name] + [normalized[v] for v in variants])
        data[name] = normalized
    text = format_table(
        ["Benchmark"] + list(variants),
        rows,
        title=f"Ablations ({RATIO}; normalised to full MEMTIS = 1.0)",
    )
    return ExperimentResult("ablations", "MEMTIS design-choice ablations",
                            text, data=data)


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
