"""Extension: co-located applications sharing one tier pair.

The paper evaluates one application at a time; warehouse-scale machines
(§8's TMTS context) run many.  This experiment co-locates a
subpage-skewed workload (Silo) with a contiguous-hot one (Liblinear)
over a shared DRAM pool and compares policies: the interesting question
is whether MEMTIS's global histogram still sizes one *combined* hot set
correctly when two applications with different skew shapes compete.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.tables import format_table
from repro.experiments.common import ExperimentResult, run_specs
from repro.sim.machine import DEFAULT_SCALE, ScaleSpec
from repro.sim.runner import RunSpec, normalized_performance

PAIRS = [("silo", "liblinear"), ("xsbench", "btree")]
POLICIES = ["tpp", "hemem", "memtis"]
RATIO = "1:8"


def run(scale: Optional[ScaleSpec] = None, pairs=None, policies=None,
        **_kwargs) -> ExperimentResult:
    scale = scale or DEFAULT_SCALE
    pairs = pairs or PAIRS
    policies = policies or POLICIES
    # ``a+b`` names the co-located MixWorkload of a and b.
    labels = ["+".join(pair) for pair in pairs]
    specs = {
        (label, policy): RunSpec(label, policy, ratio=RATIO, scale=scale)
        for label in labels
        for policy in policies
    }
    results = run_specs([spec.baseline_spec() for spec in specs.values()]
                        + list(specs.values()))
    rows = []
    data = {}
    for label in labels:
        cell = {}
        for policy in policies:
            spec = specs[(label, policy)]
            result = results[spec]
            cell[policy] = {
                "normalized": normalized_performance(
                    result, results[spec.baseline_spec()]),
                "hit": result.fast_hit_ratio,
                "splits": float(result.counters.get("kmigrated/splits", 0)),
            }
        rows.append(
            [label]
            + [cell[p]["normalized"] for p in policies]
            + [f"{cell['memtis']['hit'] * 100:.1f}%",
               cell["memtis"]["splits"]]
        )
        data[label] = cell
    text = format_table(
        ["Co-located pair"] + list(policies)
        + ["memtis hit ratio", "memtis splits"],
        rows,
        title=f"Co-location ({RATIO}, shared tiers; all-NVM baseline = 1.0)",
    )
    return ExperimentResult("colocation", "Co-located applications", text,
                            data=data)


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
