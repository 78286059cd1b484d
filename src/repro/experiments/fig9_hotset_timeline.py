"""Fig. 9: MEMTIS's identified hot/warm/cold sets over time.

Four benchmarks x two tiering settings (1:2 and 1:8); the claim to
verify is that "the identified hot set size is very close to the fast
tier size" -- MEMTIS sizes its hot set to DRAM through the histogram,
something static-threshold systems cannot do (contrast Fig. 2).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.ascii import timeline_chart
from repro.analysis.tables import format_table
from repro.experiments.common import ExperimentResult, run_specs
from repro.sim.machine import DEFAULT_SCALE, ScaleSpec
from repro.sim.runner import RunSpec

WORKLOADS = ["pagerank", "xsbench", "liblinear", "603.bwaves"]
RATIOS = ["1:2", "1:8"]


def run(scale: Optional[ScaleSpec] = None, workloads=None, ratios=None,
        **_kwargs) -> ExperimentResult:
    scale = scale or DEFAULT_SCALE
    workloads = workloads or WORKLOADS
    ratios = ratios or RATIOS
    specs = {(name, ratio): RunSpec(name, "memtis", ratio=ratio, scale=scale)
             for ratio in ratios for name in workloads}
    results = run_specs(specs.values())
    charts = []
    rows = []
    data = {}
    for ratio in ratios:
        for name in workloads:
            result = results[specs[(name, ratio)]]
            series = result.metrics.series
            times = [t / 1e9 for t in series.now_ns]
            hot = [b / 1e6 for b in series.policy.get("hot_bytes", [])]
            warm = [b / 1e6 for b in series.policy.get("warm_bytes", [])]
            fast_mb = result.machine.fast_bytes / 1e6
            charts.append(
                timeline_chart(
                    times,
                    {"hot (MB)": hot, "warm (MB)": warm,
                     "dram (MB)": [fast_mb] * len(times)},
                    title=f"Fig. 9 [{name} {ratio}] hot/warm vs DRAM {fast_mb:.1f}MB",
                )
            )
            # Steady-state closeness of hot+warm-in-DRAM to the fast tier:
            # the paper's "very close to the fast tier size" claim.
            tail = hot[len(hot) // 2 :] or [0.0]
            mean_hot = sum(tail) / len(tail)
            rows.append([name, ratio, f"{mean_hot:.1f}MB", f"{fast_mb:.1f}MB",
                         f"{mean_hot / fast_mb * 100:.0f}%"])
            data[f"{name}|{ratio}"] = {
                "times_s": times, "hot_mb": hot, "warm_mb": warm,
                "fast_mb": fast_mb, "steady_hot_mb": mean_hot,
            }
    table = format_table(
        ["Benchmark", "Ratio", "Steady hot set", "DRAM", "Hot/DRAM"],
        rows,
        title="Fig. 9: identified hot set vs fast tier size",
    )
    return ExperimentResult(
        "fig9", "MEMTIS hot/warm/cold timeline",
        table + "\n\n" + "\n\n".join(charts), data=data,
    )


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
