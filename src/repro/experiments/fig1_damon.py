"""Fig. 1: DAMON accuracy / overhead trade-off on 654.roms.

Runs the DAMON region monitor over the roms workload in the paper's
three configurations (``s-m-X`` = sampling interval, min regions, max
regions) and reports, per configuration:

* the CPU overhead of monitoring (paper: 2.15%, 3.18%, 72.85%);
* an accuracy score: Spearman-style rank correlation between the
  per-region access intensities DAMON reports and the ground-truth page
  access counts the simulator knows;
* an ASCII heat map (address x time), the analogue of the paper's plots.

The expected shape: the coarse config (a) and the slow config (b) are
cheap but inaccurate in space/time respectively; the accurate config
(c) costs an order of magnitude more CPU.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.ascii import heatmap
from repro.analysis.tables import format_table
from repro.experiments.common import ExperimentResult
from repro.policies.damon import FIG1_CONFIGS, DamonMonitor
from repro.sim.engine import Simulation
from repro.sim.machine import DEFAULT_SCALE, MachineSpec, ScaleSpec
from repro.workloads.registry import make_workload


class _CountingDamon(DamonMonitor):
    """DAMON that also counts every access per page: the ground truth."""

    def bind(self, ctx) -> None:
        super().bind(ctx)
        self.true_counts = np.zeros(ctx.space.num_vpns, dtype=np.int64)

    def on_batch(self, obs) -> float:
        np.add.at(self.true_counts, obs.batch.vpn, 1)
        return super().on_batch(obs)


def _accuracy(monitor: DamonMonitor, true_counts: np.ndarray) -> float:
    """Correlation between DAMON's region intensities and ground truth."""
    per_page = np.zeros_like(true_counts, dtype=np.float64)
    weight = np.zeros_like(true_counts, dtype=np.float64)
    for _now, regions in monitor.snapshots:
        for start, end, accesses in regions:
            end = min(end, len(per_page))
            if end > start:
                per_page[start:end] += accesses
                weight[start:end] += 1
    mask = weight > 0
    if mask.sum() < 2:
        return 0.0
    est = per_page[mask] / weight[mask]
    truth = true_counts[mask].astype(np.float64)
    if est.std() == 0 or truth.std() == 0:
        return 0.0
    return float(np.corrcoef(est, truth)[0, 1])


def run(scale: Optional[ScaleSpec] = None, configs=None, **_kwargs) -> ExperimentResult:
    scale = scale or DEFAULT_SCALE
    configs = configs or list(FIG1_CONFIGS)
    rows = []
    maps = {}
    data = {}
    for label in configs:
        config = FIG1_CONFIGS[label]
        # Small batches: monitor ticks are quantised to batch boundaries,
        # and the fast configs sample every few hundred microseconds.
        workload = make_workload("654.roms", scale, batch_size=2048)
        machine = MachineSpec.from_ratio(workload.total_bytes, ratio="1:2")
        monitor = _CountingDamon(config)
        # Built by hand, not as a RunSpec: the accuracy score reads the
        # monitor's snapshots after the run, which a SimResult does not
        # carry.
        Simulation(workload, monitor, machine).run()
        overhead = monitor.cpu_overhead()
        accuracy = _accuracy(monitor, monitor.true_counts)
        rows.append([label, f"{overhead * 100:.2f}%", f"{accuracy:.3f}",
                     len(monitor.regions)])
        maps[label] = heatmap(monitor.heatmap(), title=f"Fig. 1 heat map [{label}]")
        data[label] = {"cpu_overhead": overhead, "accuracy": accuracy}
    table = format_table(
        ["Config (s-m-X)", "CPU overhead", "Accuracy (corr.)", "Regions"],
        rows,
        title="Fig. 1: DAMON accuracy vs overhead (654.roms)",
    )
    text = table + "\n\n" + "\n\n".join(maps[l] for l in configs)
    return ExperimentResult("fig1", "DAMON monitoring trade-off", text, data=data)


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
