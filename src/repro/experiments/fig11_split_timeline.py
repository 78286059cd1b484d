"""Fig. 11: Silo and Btree throughput over time, with/without split.

Runs MEMTIS, MEMTIS-NS (no split) and Tiering-0.8 (the second-best
baseline on these workloads in the paper) at 1:8 and plots windowed
throughput over time.  The paper's shape: MEMTIS dips briefly when the
split starts, then overtakes MEMTIS-NS; for Btree the split also
reclaims bloat (RSS 38.3 -> 27.2 GB at 1:8), which we check through the
simulated RSS drop.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.ascii import timeline_chart
from repro.analysis.tables import format_table
from repro.experiments.common import ExperimentResult, run_specs
from repro.sim.machine import DEFAULT_SCALE, ScaleSpec
from repro.sim.runner import RunSpec

WORKLOADS = ["silo", "btree"]
POLICIES = ["memtis", "memtis-ns", "tiering-0.8"]
RATIO = "1:8"


def run(scale: Optional[ScaleSpec] = None, workloads=None, **_kwargs) -> ExperimentResult:
    scale = scale or DEFAULT_SCALE
    workloads = workloads or WORKLOADS
    specs = {(name, policy): RunSpec(name, policy, ratio=RATIO, scale=scale)
             for name in workloads for policy in POLICIES}
    results = run_specs(specs.values())
    charts = []
    rows = []
    data = {}
    for name in workloads:
        series = {}
        rss = {}
        for policy in POLICIES:
            result = results[specs[(name, policy)]]
            epochs = result.metrics.series
            series[policy] = (
                [t / 1e9 for t in epochs.now_ns],
                epochs.throughput_mops(),
            )
            rss[policy] = {
                "start": epochs.rss_bytes[0] if len(epochs) else 0,
                "end": result.final_rss_bytes,
                "splits": float(result.counters.get("kmigrated/splits", 0)),
                "throughput": result.throughput_maps,
            }
        times = series["memtis"][0]
        charts.append(
            timeline_chart(
                times,
                {p: series[p][1][: len(times)] for p in POLICIES},
                title=f"Fig. 11 [{name} {RATIO}] throughput (M accesses/s) over time",
            )
        )
        gain = (
            rss["memtis"]["throughput"] / rss["memtis-ns"]["throughput"] - 1
        ) * 100
        rss_drop = (
            (rss["memtis"]["start"] - rss["memtis"]["end"])
            / max(1, rss["memtis"]["start"]) * 100
        )
        rows.append(
            [name, f"{gain:+.1f}%", rss["memtis"]["splits"],
             f"{rss['memtis']['start'] / 1e6:.1f}MB",
             f"{rss['memtis']['end'] / 1e6:.1f}MB", f"{rss_drop:.1f}%"]
        )
        data[name] = {"series": {p: series[p][1] for p in POLICIES},
                      "times_s": times, "rss": rss, "split_gain_pct": gain}
    table = format_table(
        ["Benchmark", "split gain (vs NS)", "splits", "RSS start", "RSS end",
         "RSS drop"],
        rows,
        title=f"Fig. 11: impact of the huge-page split ({RATIO})",
    )
    return ExperimentResult(
        "fig11", "Split impact over time",
        table + "\n\n" + "\n\n".join(charts), data=data,
    )


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
