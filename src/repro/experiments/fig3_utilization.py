"""Fig. 3: hotness vs huge-page utilisation (Liblinear, Silo).

For every huge page we measure its total access count ("hotness") and
its utilisation (number of 4 KiB subpages accessed, 0..512) from the
ground-truth trace, reproducing the paper's PEBS-derived scatter.

Expected shape: Liblinear's hot huge pages have *high* utilisation
(positive correlation -- splitting cannot help), while Silo's hot huge
pages touch only a small fraction of their subpages (no positive
correlation -- splitting pays off).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.tables import format_table
from repro.experiments.common import ExperimentResult
from repro.mem.pages import SUBPAGES_PER_HUGE
from repro.policies.static import AllCapacityPolicy
from repro.sim.engine import Simulation
from repro.sim.machine import DEFAULT_SCALE, MachineSpec, ScaleSpec
from repro.workloads.registry import make_workload

WORKLOADS = ["liblinear", "silo"]


class _SampledCounts(AllCapacityPolicy):
    """All-capacity placement that also counts every ``period``-th
    access per page."""

    def __init__(self, period: int):
        super().__init__()
        self.period = period

    def bind(self, ctx) -> None:
        super().bind(ctx)
        self.counts = np.zeros(ctx.space.num_vpns, dtype=np.int64)

    def on_batch(self, obs) -> float:
        np.add.at(self.counts, obs.batch.vpn[::self.period], 1)
        return super().on_batch(obs)


def _scatter_ascii(util: np.ndarray, hot: np.ndarray, title: str,
                   width: int = 64, height: int = 16) -> str:
    grid = [[" "] * width for _ in range(height)]
    log_hot = np.log10(np.maximum(hot, 1))
    hmax = log_hot.max() or 1.0
    for u, lh in zip(util, log_hot):
        x = int(u / SUBPAGES_PER_HUGE * (width - 1))
        y = height - 1 - int(lh / hmax * (height - 1))
        grid[y][x] = "*"
    lines = [title]
    lines.extend("".join(row) for row in grid)
    lines.append("(x: utilisation 0..512 subpages, y: log10 access count)")
    return "\n".join(lines)


def measure_utilization(workload_name: str, scale: Optional[ScaleSpec] = None,
                        sample_period: int = 200):
    """Per-huge-page (hotness, utilisation) from a PEBS-like sample.

    Like the paper (§2.3), utilisation is computed from *sampled*
    accesses (every ``sample_period``-th, matching the PEBS load
    period): a subpage counts as utilised when at least one sample hit
    it, so rarely-touched subpages correctly read as unused.
    """
    scale = scale or DEFAULT_SCALE
    workload = make_workload(workload_name, scale)
    machine = MachineSpec.from_ratio(workload.total_bytes, ratio="1:2").collapse_to_slowest()
    policy = _SampledCounts(sample_period)
    # Built by hand, not as a RunSpec: the scatter reads the address
    # space's huge-page map after the run, which a SimResult does not
    # carry.
    sim = Simulation(workload, policy, machine)
    sim.run()
    hpns = sim.space.mapped_huge_hpns()
    counts = policy.counts
    per_hp = counts[: len(counts) // SUBPAGES_PER_HUGE * SUBPAGES_PER_HUGE]
    per_hp = per_hp.reshape(-1, SUBPAGES_PER_HUGE)
    hot = per_hp[hpns].sum(axis=1)
    util = (per_hp[hpns] > 0).sum(axis=1)
    accessed = hot > 0
    return hot[accessed], util[accessed]


def run(scale: Optional[ScaleSpec] = None, workloads=None, **_kwargs) -> ExperimentResult:
    workloads = workloads or WORKLOADS
    charts = []
    rows = []
    data = {}
    for name in workloads:
        hot, util = measure_utilization(name, scale)
        corr = 0.0
        if len(hot) > 2 and hot.std() and util.std():
            corr = float(np.corrcoef(np.log10(np.maximum(hot, 1)), util)[0, 1])
        # Utilisation of the hottest decile: the pages tiering would place.
        order = np.argsort(-hot)
        top = order[: max(1, len(order) // 10)]
        top_util = float(util[top].mean()) / SUBPAGES_PER_HUGE
        rows.append([name, len(hot), f"{corr:.3f}", f"{top_util * 100:.1f}%"])
        charts.append(
            _scatter_ascii(util, hot, f"Fig. 3 [{name}]: hotness vs utilisation")
        )
        data[name] = {
            "hotness": hot.tolist(),
            "utilization": util.tolist(),
            "correlation": corr,
            "hot_decile_utilization": top_util,
        }
    table = format_table(
        ["Benchmark", "Huge pages", "corr(log hot, util)", "Hot-decile utilisation"],
        rows,
        title="Fig. 3: subpage access skew in huge pages",
    )
    return ExperimentResult(
        "fig3", "Huge page utilisation analysis",
        table + "\n\n" + "\n\n".join(charts), data=data,
    )


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
