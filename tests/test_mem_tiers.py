"""Tier specifications and capacity accounting."""

import numpy as np
import pytest

from repro.mem.tiers import (
    CAPACITY_SPECS,
    FASTEST_TIER,
    MemoryTier,
    OutOfMemoryError,
    TieredMemory,
    TierSpec,
    cxl_spec,
    dram_spec,
    nvm_spec,
)

MB = 1024 * 1024


def make_pair(fast_mb=64, cap_mb=256, kind="nvm"):
    return TieredMemory.build(
        dram_spec(fast_mb * MB), CAPACITY_SPECS[kind](cap_mb * MB)
    )


class TestTierSpec:
    def test_dram_faster_than_nvm_and_cxl(self):
        dram = dram_spec(MB)
        nvm = nvm_spec(MB)
        cxl = cxl_spec(MB)
        assert dram.load_latency_ns < cxl.load_latency_ns < nvm.load_latency_ns

    def test_paper_latencies(self):
        # §6.1: NVM load ~300ns; §6.4: CXL load 177ns.
        assert nvm_spec(MB).load_latency_ns == 300.0
        assert cxl_spec(MB).load_latency_ns == 177.0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TierSpec("x", 0, 1.0, 1.0)

    def test_rejects_nonpositive_latency(self):
        with pytest.raises(ValueError):
            TierSpec("x", MB, 0.0, 1.0)


class TestMemoryTier:
    def test_alloc_free_roundtrip(self):
        tier = MemoryTier(FASTEST_TIER, dram_spec(10 * MB))
        tier.alloc(4 * MB)
        assert tier.used_bytes == 4 * MB
        assert tier.free_bytes == 6 * MB
        tier.free(4 * MB)
        assert tier.used_bytes == 0

    def test_alloc_beyond_capacity_raises(self):
        tier = MemoryTier(FASTEST_TIER, dram_spec(MB))
        with pytest.raises(OutOfMemoryError):
            tier.alloc(2 * MB)

    def test_exact_fill_allowed(self):
        tier = MemoryTier(FASTEST_TIER, dram_spec(MB))
        tier.alloc(MB)
        assert tier.free_bytes == 0
        assert not tier.can_alloc(1)

    def test_double_free_detected(self):
        tier = MemoryTier(FASTEST_TIER, dram_spec(MB))
        tier.alloc(MB // 2)
        with pytest.raises(ValueError):
            tier.free(MB)

    def test_negative_sizes_rejected(self):
        tier = MemoryTier(FASTEST_TIER, dram_spec(MB))
        with pytest.raises(ValueError):
            tier.alloc(-1)
        with pytest.raises(ValueError):
            tier.free(-1)

    def test_utilization(self):
        tier = MemoryTier(FASTEST_TIER, dram_spec(10 * MB))
        tier.alloc(5 * MB)
        assert tier.utilization == pytest.approx(0.5)


class TestTieredMemory:
    def test_kind_mismatch_rejected(self):
        # A tier's index must equal its position in the stack.
        fast = MemoryTier(1, dram_spec(MB))
        cap = MemoryTier(1, nvm_spec(MB))
        with pytest.raises(ValueError):
            TieredMemory([fast, cap])

    def test_latency_tables_indexable_by_kind(self):
        tiers = make_pair()
        loads = tiers.load_latency_table()
        assert loads[FASTEST_TIER] == 80.0
        assert loads[1] == 300.0
        stores = tiers.store_latency_table()
        assert stores[1] > stores[FASTEST_TIER]

    def test_latency_gap(self):
        tiers = make_pair(kind="nvm")
        assert tiers.latency_gap == pytest.approx(220.0)
        assert make_pair(kind="cxl").latency_gap == pytest.approx(97.0)

    def test_tier_lookup_and_iter(self):
        tiers = make_pair()
        assert tiers.tier(FASTEST_TIER) is tiers.fast
        assert tiers.tier(1) is tiers.slowest
        assert list(tiers) == [tiers.fast, tiers.slowest]

    def test_total_used(self):
        tiers = make_pair()
        tiers.fast.alloc(MB)
        tiers.slowest.alloc(2 * MB)
        assert tiers.total_used() == 3 * MB

    def test_other_kind(self):
        # On two tiers, neighbour addressing flips between them.
        tiers = make_pair()
        assert tiers.demote_target(FASTEST_TIER) == 1
        assert tiers.promote_target(1) == FASTEST_TIER
        assert tiers.promote_target(FASTEST_TIER) is None
        assert tiers.demote_target(1) is None
