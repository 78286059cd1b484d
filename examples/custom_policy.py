#!/usr/bin/env python3
"""Write your own tiering policy against the simulator API.

Implements a ~30-line "frequency-threshold" policy from scratch -- PEBS
sampling, a fixed hot bar, background promotion -- and races it against
MEMTIS and the no-tiering baseline.  The policy writes only its
classifier and ranking; the moves go through the migration helpers every
registered policy shares (``fast_heads``, ``demote_in_order``,
``promote_with_room`` and ``AddressSpace.mapping_heads``).  Use this as
the template for experimenting with your own placement ideas.

Usage::

    python examples/custom_policy.py [--quick]
"""

import argparse

import numpy as np

from repro import RunSpec, normalized_performance
from repro.analysis.tables import format_table
from repro.mem.tiers import FASTEST_TIER
from repro.pebs.sampler import SamplerConfig
from repro.policies.base import BatchObservation, TieringPolicy, Traits
from repro.sim.engine import Simulation
from repro.sim.machine import DEFAULT_SCALE, MachineSpec, ScaleSpec
from repro.workloads.registry import make_workload

QUICK_SCALE = ScaleSpec(
    bytes_per_paper_gb=1024 * 1024,
    accesses_per_paper_gb=40_000,
    min_bytes=48 * 1024 * 1024,
    min_accesses_per_page=60,
)


class FrequencyThresholdPolicy(TieringPolicy):
    """Promote any page sampled ``hot_after`` times; demote the coldest.

    Tiers are plain indices: pages move between ``FASTEST_TIER`` and the
    tier below it (``demote_in_order`` targets it).  Deliberately simple: a
    static threshold, exactly the design the paper argues against --
    compare its hit ratio with MEMTIS's.
    """

    name = "freq-threshold"
    uses_pebs = True
    traits = Traits(
        mechanism="HW-based sampling",
        subpage_tracking=False,
        promotion_metric="frequency",
        demotion_metric="frequency",
        threshold_criteria="static access count",
        critical_path_migration="none",
        page_size_handling="none",
    )

    def __init__(self, hot_after: int = 6, period_ns: float = 2e6):
        super().__init__()
        self.hot_after = hot_after
        self.period_ns = period_ns
        self._count = None
        self._pending = set()
        self._next_tick = 0.0

    def sampler_config(self):
        return SamplerConfig(load_period=200, store_period=100_000)

    def bind(self, ctx):
        super().bind(ctx)
        self._count = np.zeros(ctx.space.num_vpns, dtype=np.int32)

    def on_batch(self, obs: BatchObservation) -> float:
        if obs.samples is None or not len(obs.samples):
            return 0.0
        space = self.ctx.space
        heads = space.mapping_heads(obs.samples.vpn)
        np.add.at(self._count, heads, 1)
        hot = heads[self._count[heads] >= self.hot_after]
        for vpn in np.unique(hot).tolist():
            if space.page_tier[vpn] > FASTEST_TIER:
                self._pending.add(int(vpn))
        return 0.0  # background-only, like MEMTIS

    def on_tick(self, now_ns: float) -> None:
        if now_ns < self._next_tick:
            return
        self._next_tick = now_ns + self.period_ns
        for vpn in sorted(self._pending):
            if self.ctx.space.page_tier[vpn] <= FASTEST_TIER:
                continue
            if not self.promote_with_room(vpn, self._demote_coldest):
                break
        self._pending.clear()

    def _demote_coldest(self, nbytes_needed: int) -> None:
        heads = self.fast_heads()
        cold = heads[self._count[heads] < self.hot_after]
        order = np.argsort(self._count[cold], kind="stable")
        self.demote_in_order(cold[order], nbytes_needed)

    def on_unmap(self, base_vpn, num_vpns):
        if self._count is not None:
            self._count[base_vpn : base_vpn + num_vpns] = 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--workload", default="xsbench")
    args = parser.parse_args()
    scale = QUICK_SCALE if args.quick else DEFAULT_SCALE

    # Registered policies run as RunSpecs (cached); a policy object outside
    # the registry drives a Simulation on the same machine directly.
    memtis = RunSpec(args.workload, "memtis", ratio="1:8", scale=scale)
    baseline = memtis.baseline_spec().run()
    workload = make_workload(args.workload, scale)
    machine = MachineSpec.from_ratio(workload.total_bytes, ratio="1:8")
    rows = []
    for label, run in [
        ("freq-threshold (custom)",
         lambda: Simulation(workload, FrequencyThresholdPolicy(),
                            machine).run()),
        ("memtis", memtis.run),
    ]:
        print(f"running {label} ...")
        result = run()
        rows.append([label, normalized_performance(result, baseline),
                     f"{result.fast_hit_ratio * 100:.1f}%",
                     result.migration.traffic_bytes / 1e6])

    print()
    print(format_table(
        ["Policy", "Normalised perf", "Hit ratio", "Traffic (MB)"],
        rows,
        title=f"Custom policy vs MEMTIS on {args.workload} @ 1:8",
    ))


if __name__ == "__main__":
    main()
