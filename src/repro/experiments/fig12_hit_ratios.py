"""Fig. 12: fast-tier hit ratios -- eHR vs rHR vs rHR-NS (1:8).

* eHR: MEMTIS's estimated hit ratio if only base pages existed (from
  the emulated base-page histogram);
* rHR: the measured fast-tier hit ratio with splitting enabled;
* rHR-NS: the measured hit ratio of MEMTIS-NS (no split).

Paper shape: Silo and Btree show a large eHR vs rHR-NS gap that the
split mostly closes; Graph500/PageRank can have eHR <= rHR (no skew,
nothing to split); 603.bwaves stays low regardless (short-lived data
churn).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.tables import format_table
from repro.experiments.common import ALL_WORKLOADS, ExperimentResult, run_specs
from repro.sim.machine import DEFAULT_SCALE, ScaleSpec
from repro.sim.runner import RunSpec

RATIO = "1:8"


def run(scale: Optional[ScaleSpec] = None, workloads=None, **_kwargs) -> ExperimentResult:
    scale = scale or DEFAULT_SCALE
    workloads = workloads or ALL_WORKLOADS
    specs = {(name, policy): RunSpec(name, policy, ratio=RATIO, scale=scale)
             for name in workloads for policy in ("memtis", "memtis-ns")}
    results = run_specs(specs.values())
    rows = []
    data = {}
    for name in workloads:
        with_split = results[specs[(name, "memtis")]]
        no_split = results[specs[(name, "memtis-ns")]]
        ehr = with_split.counters["ksampled/ehr"]
        splits = float(with_split.counters["kmigrated/splits"])
        rhr = with_split.fast_hit_ratio
        rhr_ns = no_split.fast_hit_ratio
        rows.append(
            [name, f"{ehr * 100:.1f}%", f"{rhr * 100:.1f}%",
             f"{rhr_ns * 100:.1f}%", f"{(rhr - rhr_ns) * 100:+.1f}pp",
             splits]
        )
        data[name] = {"ehr": ehr, "rhr": rhr, "rhr_ns": rhr_ns,
                      "splits": splits}
    text = format_table(
        ["Benchmark", "eHR", "rHR", "rHR-NS", "split gain", "splits"],
        rows,
        title=f"Fig. 12: fast tier hit ratios ({RATIO})",
    )
    return ExperimentResult("fig12", "Hit ratio decomposition", text, data=data)


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
