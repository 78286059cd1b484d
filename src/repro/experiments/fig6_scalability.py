"""Fig. 6: scalability -- Graph500 RSS grows, DRAM stays fixed.

The paper grows Graph500 from 128 GB to 690 GB against a fixed 64 GB
fast tier; MEMTIS's margin over the second-best system *widens* with
RSS (8.1%-60.5%) because precise hotness classification matters more as
the fast tier becomes a smaller fraction of the footprint.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.tables import format_table
from repro.experiments.common import ExperimentResult, run_specs
from repro.policies.registry import FIG5_POLICIES
from repro.sim.machine import ScaleSpec
from repro.sim.runner import RunSpec, normalized_performance

PAPER_RSS_GB = [128, 192, 336, 690]
FAST_GB = 64

#: Fig. 6 sweeps up to 690 paper-GB; a dedicated reduced scale keeps the
#: largest point tractable while preserving the RSS:DRAM proportions.
FIG6_SCALE = ScaleSpec(
    bytes_per_paper_gb=512 * 1024,
    accesses_per_paper_gb=18_000,
    min_bytes=48 * 1024 * 1024,
    min_accesses_per_page=40,
)


def run(
    scale: Optional[ScaleSpec] = None,
    rss_points=None,
    policies=None,
    **_kwargs,
) -> ExperimentResult:
    scale = scale or FIG6_SCALE
    rss_points = rss_points or PAPER_RSS_GB
    policies = policies or FIG5_POLICIES
    # Graph500 sized at each RSS point (``graph500@GB``) against one
    # fixed fast tier; the capacity tier is sized to the footprint.
    specs = {
        (rss_gb, policy): RunSpec(f"graph500@{rss_gb}", policy, scale=scale,
                                  fast_bytes=scale.bytes_for(FAST_GB))
        for rss_gb in rss_points
        for policy in policies
    }
    results = run_specs([spec.baseline_spec() for spec in specs.values()]
                        + list(specs.values()))

    rows = []
    data = {}
    for rss_gb in rss_points:
        cell = {}
        for policy_name in policies:
            spec = specs[(rss_gb, policy_name)]
            cell[policy_name] = normalized_performance(
                results[spec], results[spec.baseline_spec()])
        best_other = max(v for p, v in cell.items() if p != "memtis")
        margin = (cell.get("memtis", 0.0) / best_other - 1) * 100
        rows.append([f"{rss_gb}GB"] + [cell[p] for p in policies]
                    + [f"{margin:+.1f}%"])
        data[rss_gb] = dict(cell, margin_pct=margin)

    text = format_table(
        ["RSS"] + list(policies) + ["memtis vs 2nd"],
        rows,
        title=f"Fig. 6: Graph500 scalability (fixed {FAST_GB}GB-equivalent DRAM)",
    )
    return ExperimentResult("fig6", "Scalability with growing RSS", text, data=data)


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
