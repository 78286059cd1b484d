"""Fine-grained baseline behaviours not covered elsewhere."""

import numpy as np
import pytest

from repro.mem.pages import SUBPAGES_PER_HUGE
from repro.mem.tiers import FASTEST_TIER
from repro.policies.autonuma import AutoNUMAPolicy
from repro.policies.base import scaled_headroom
from repro.policies.hemem import HeMemPolicy
from repro.policies.nimble import NimblePolicy
from repro.policies.registry import make_policy
from repro.policies.tiering08 import Tiering08Policy

from conftest import make_context

MB = 1024 * 1024


class TestScaledHeadroom:
    def test_paper_fraction_dominates_at_scale(self):
        # 2% of 1 GiB is far above the floor.
        assert scaled_headroom(1024 * MB, 0.02) == int(1024 * MB * 0.02)

    def test_floor_dominates_on_small_dram(self):
        assert scaled_headroom(16 * MB, 0.02) == 2 * MB

    def test_floor_capped_on_tiny_dram(self):
        assert scaled_headroom(4 * MB, 0.02) == int(4 * MB * 0.15)


class TestAutoNUMARateLimit:
    def test_rate_limit_blocks_excess_migration(self):
        policy = AutoNUMAPolicy(scan_period_ns=1e6, scan_fraction=1.0,
                                rate_limit_bytes_per_s=1.0)
        ctx = make_context()
        policy.bind(ctx)
        region = ctx.space.alloc_region(
            4 * MB, preferred=1)
        policy.on_tick(2e6)
        heads = np.array([region.base_vpn,
                          region.base_vpn + SUBPAGES_PER_HUGE])
        policy.on_hint_faults(heads)
        assert policy.promoted_on_fault == 0  # throttled
        assert ctx.migrator.stats.promoted_bytes == 0


class TestTiering08Reclaim:
    def test_reclaim_skips_referenced_pages(self):
        policy = Tiering08Policy(scan_period_ns=1e6, scan_fraction=1.0,
                                 free_watermark=0.9)
        ctx = make_context(fast_mb=4)
        policy.bind(ctx)
        region = ctx.space.alloc_region(
            4 * MB, preferred=FASTEST_TIER)
        ctx.space.ref_bit[region.base_vpn : region.end_vpn] = True
        policy.on_tick(2e6)
        # Everything on the active list: reclaim stalls entirely.
        assert ctx.migrator.stats.demoted_bytes == 0


class TestNimbleBudget:
    def test_exchange_budget_caps_churn(self):
        policy = NimblePolicy(scan_period_ns=1e6,
                              exchange_budget_fraction=0.25)
        ctx = make_context(fast_mb=8)
        policy.bind(ctx)
        region = ctx.space.alloc_region(
            16 * MB, preferred=1)
        ctx.space.record_touch(
            np.arange(region.base_vpn, region.end_vpn)
        )
        policy.on_tick(2e6)
        # Budget = 25% of 8MB = 2MB = one huge page per interval.
        assert ctx.migrator.stats.promoted_bytes <= 2 * MB


class TestHeMemDetails:
    def test_static_sampler_config(self):
        policy = HeMemPolicy()
        config = policy.sampler_config()
        assert config.load_period == 200
        assert config.store_period == 100_000

    def test_hemem_plus_equivalent_settings(self):
        """HeMem with more DRAM (the Fig. 8 HeMem+ setup) binds cleanly."""
        policy = HeMemPolicy()
        ctx = make_context(fast_mb=24)
        policy.bind(ctx)
        assert policy._small_alloc_max > 0


class TestMemtisVariants:
    def test_variant_flags(self):
        ns = make_policy("memtis-ns")
        assert ns.config.enable_split is False
        assert ns.config.enable_warm_set is True
        vanilla = make_policy("memtis-vanilla")
        assert vanilla.config.enable_split is False
        assert vanilla.config.enable_warm_set is False

    def test_variant_kwargs_compose(self):
        policy = make_policy("memtis-ns", alpha=0.8)
        assert policy.config.alpha == 0.8
        assert policy.config.enable_split is False
