"""Fig. 2: HeMem's classified hot set over time (PageRank, XSBench).

The paper's point: with static thresholds the identified hot set bears
no relation to the fast tier size -- on PageRank it stays far *below*
the DRAM line (arbitrary cold pages fill the rest), while on XSBench it
transiently *exceeds* DRAM (an arbitrary subset gets placed).

We run HeMem on both workloads and plot its per-epoch ``hot_bytes``
against the fast tier size.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.ascii import timeline_chart
from repro.experiments.common import ExperimentResult, run_specs
from repro.sim.machine import DEFAULT_SCALE, ScaleSpec
from repro.sim.runner import RunSpec

WORKLOADS = ["pagerank", "xsbench"]


def run(scale: Optional[ScaleSpec] = None, workloads=None, ratio: str = "1:2",
        **_kwargs) -> ExperimentResult:
    scale = scale or DEFAULT_SCALE
    workloads = workloads or WORKLOADS
    specs = {name: RunSpec(name, "hemem", ratio=ratio, scale=scale)
             for name in workloads}
    results = run_specs(specs.values())
    charts = []
    data = {}
    for name in workloads:
        result = results[specs[name]]
        series = result.metrics.series
        times = [t / 1e9 for t in series.now_ns]
        hot_mb = [b / 1e6 for b in series.policy.get("hot_bytes", [])]
        fast_mb = result.machine.fast_bytes / 1e6
        chart = timeline_chart(
            times,
            {"hot set (MB)": hot_mb, "dram size (MB)": [fast_mb] * len(times)},
            title=(
                f"Fig. 2 [{name}]: HeMem classified hot set vs DRAM "
                f"({fast_mb:.1f} MB)"
            ),
        )
        above = sum(1 for h in hot_mb if h > fast_mb)
        below = sum(1 for h in hot_mb if h < 0.5 * fast_mb)
        chart += (
            f"\npoints above DRAM: {above}/{len(hot_mb)}; "
            f"points under half of DRAM: {below}/{len(hot_mb)}"
        )
        charts.append(chart)
        data[name] = {
            "times_s": times,
            "hot_mb": hot_mb,
            "fast_mb": fast_mb,
        }
    return ExperimentResult(
        "fig2", "HeMem hot-set classification over time",
        "\n\n".join(charts), data=data,
    )


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
