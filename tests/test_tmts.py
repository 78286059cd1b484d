"""TMTS-style policy (§8 discussion)."""

import numpy as np
import pytest

from repro.mem.pages import SUBPAGES_PER_HUGE
from repro.mem.tiers import FASTEST_TIER
from repro.pebs.events import AccessBatch
from repro.pebs.sampler import SampleBatch
from repro.policies.base import BatchObservation
from repro.policies.tmts import TMTSPolicy

from conftest import TEST_SCALE, make_context


def bind(policy, **kw):
    ctx = make_context(**kw)
    policy.bind(ctx)
    return ctx


def obs_with_samples(vpns):
    vpns = np.asarray(vpns, dtype=np.int64)
    samples = SampleBatch(vpns, np.zeros(len(vpns), dtype=bool))
    return BatchObservation(
        batch=AccessBatch.loads(vpns), unique_vpns=np.unique(vpns),
        counts=np.ones(len(np.unique(vpns))), samples=samples,
        now_ns=0.0, batch_wall_ns=1e6,
    )


MB = 1024 * 1024


class TestPromotion:
    def test_single_sample_promotes(self):
        policy = TMTSPolicy(migrate_period_ns=1e6, scan_period_ns=1e6)
        ctx = bind(policy)
        region = ctx.space.alloc_region(
            2 * MB, preferred=1)
        policy.on_batch(obs_with_samples([region.base_vpn + 5]))
        policy.on_tick(2e6)
        assert ctx.space.page_tier[region.base_vpn] == FASTEST_TIER
        assert policy.promotions == 1

    def test_no_critical_path_cost(self):
        policy = TMTSPolicy(migrate_period_ns=1e6)
        ctx = bind(policy)
        region = ctx.space.alloc_region(
            2 * MB, preferred=1)
        assert policy.on_batch(obs_with_samples([region.base_vpn])) == 0.0
        policy.on_tick(2e6)
        assert ctx.migrator.stats.critical_path_ns == 0.0


class TestDemotion:
    def test_idle_pages_demoted_with_split(self):
        policy = TMTSPolicy(scan_period_ns=1e6, migrate_period_ns=1e6)
        ctx = bind(policy, fast_mb=4)
        region = ctx.space.alloc_region(
            4 * MB, preferred=FASTEST_TIER)
        ctx.space.record_touch(
            np.arange(region.base_vpn, region.base_vpn + 20)
        )
        # Several idle scans push ages past the demotion threshold.
        for t in range(1, 8):
            policy.on_tick(t * 1.5e6)
        assert policy.demotions > 0
        # Demoted huge pages were split (split-on-demotion, §8).  The
        # idle (never-touched) huge page was the victim: it left DRAM,
        # its never-written subpages were freed outright, while the
        # touched huge page kept its DRAM residence.
        assert policy.splits_on_demotion > 0
        idle_head = region.base_vpn + SUBPAGES_PER_HUGE
        assert ctx.space.page_tier[idle_head] != FASTEST_TIER
        assert not ctx.space.page_huge[idle_head]
        assert ctx.space.page_tier[region.base_vpn] == FASTEST_TIER
        ctx.space.check_consistency()

    def test_adaptive_age_threshold_moves(self):
        policy = TMTSPolicy(scan_period_ns=1e6, target_strr=0.5)
        ctx = bind(policy)
        region = ctx.space.alloc_region(8 * MB)
        # Half the pages referenced every scan, half never.
        active = np.arange(region.base_vpn, region.base_vpn + region.num_vpns // 2)
        for t in range(1, 6):
            ctx.space.record_touch(active)
            policy.on_tick(t * 1.5e6)
        # Half the footprint is idle: a 50% STRR target should pick a
        # small age threshold (the idle half is old enough).
        assert 1 <= policy.demotion_age_threshold <= 5

    def test_stats_keys(self):
        policy = TMTSPolicy()
        bind(policy)
        for key in ("promotions", "demotions", "splits_on_demotion",
                    "demotion_age_threshold"):
            assert key in policy.stats()


class TestEndToEnd:
    def test_competitive_at_2to1_weaker_at_1to8(self):
        """The §8 regime claim, in miniature."""
        from repro.sim.runner import RunSpec

        gaps = {}
        for ratio in ("2:1", "1:8"):
            spec = RunSpec("xsbench", "memtis", ratio=ratio, scale=TEST_SCALE)
            base = spec.baseline_spec().run()
            tmts = spec.replace(policy="tmts").run()
            memtis = spec.run()
            gaps[ratio] = (base.runtime_ns / memtis.runtime_ns) / (
                base.runtime_ns / tmts.runtime_ns
            )
        # MEMTIS's advantage grows as the fast tier shrinks.
        assert gaps["1:8"] >= gaps["2:1"] * 0.9
