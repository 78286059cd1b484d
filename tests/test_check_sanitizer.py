"""The invariant sanitizer: level selection, each check's trigger, and
strict-clean acceptance runs in both kernel modes."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import kernels
from repro.check import (
    CheckLevel,
    InvariantViolation,
    Sanitizer,
    check_level_from_env,
    parse_check_level,
)
from repro.core.config import MemtisConfig
from repro.core.migrator import KMigrated
from repro.core.sampler import KSampled
from repro.mem.tiers import FASTEST_TIER
from repro.sim.runner import RunSpec

from conftest import TEST_SCALE, make_context

MB = 1024 * 1024


def build_memtis(ctx):
    config = MemtisConfig().resolved(
        ctx.tiers.fast.capacity_bytes,
        ctx.tiers.fast.capacity_bytes + ctx.tiers.slowest.capacity_bytes,
    )
    ks = KSampled(config, ctx)
    km = KMigrated(config, ctx, ks)
    return ks, km


def make_sanitizer(ctx, ks=None, km=None, level="strict"):
    policy = SimpleNamespace(ksampled=ks, kmigrated=km)
    return Sanitizer(level, space=ctx.space, tiers=ctx.tiers,
                     tlb=ctx.tlb, policy=policy)


def alloc(ctx, ks, mb, tier, thp=True):
    region = ctx.space.alloc_region(
        mb * MB, thp=thp, preferred=tier)
    if ks is not None:
        ks.on_region_alloc(region)
    return region


def findings_of(san):
    with pytest.raises(InvariantViolation) as exc:
        san.run_checks()
    return {f.check for f in exc.value.findings}


class TestLevelSelection:
    def test_parse_levels(self):
        assert parse_check_level(None) is CheckLevel.OFF
        assert parse_check_level("off") is CheckLevel.OFF
        assert parse_check_level("end") is CheckLevel.END
        assert parse_check_level("epoch") is CheckLevel.EPOCH
        assert parse_check_level("1") is CheckLevel.EPOCH
        assert parse_check_level("strict") is CheckLevel.STRICT
        assert parse_check_level(CheckLevel.END) is CheckLevel.END

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_check_level("sometimes")

    def test_env_mapping(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        assert check_level_from_env() is CheckLevel.OFF
        for value, level in [("0", CheckLevel.OFF), ("1", CheckLevel.EPOCH),
                             ("on", CheckLevel.EPOCH), ("end", CheckLevel.END),
                             ("strict", CheckLevel.STRICT),
                             ("2", CheckLevel.STRICT)]:
            monkeypatch.setenv("REPRO_CHECK", value)
            assert check_level_from_env() is level

    def test_sites_respect_level(self, monkeypatch):
        ctx = make_context()
        calls = []
        san = make_sanitizer(ctx, level="epoch")
        monkeypatch.setattr(
            san, "run_checks", lambda site, now_ns: calls.append(site))
        san.after_batch(1.0)   # strict-only site
        san.after_epoch(2.0)
        san.at_end(3.0)
        assert calls == ["epoch", "end"]

    def test_off_never_checks(self, monkeypatch):
        ctx = make_context()
        san = make_sanitizer(ctx, level="off")
        monkeypatch.setattr(
            san, "run_checks",
            lambda *a, **k: pytest.fail("checked at level off"))
        san.after_batch(1.0)
        san.after_epoch(2.0)
        san.at_end(3.0)

    def test_runspec_validates_check(self):
        with pytest.raises(ValueError):
            RunSpec("silo", "memtis", check="sometimes")

    def test_check_excluded_from_cache_key(self):
        plain = RunSpec("silo", "memtis")
        checked = plain.replace(check="strict")
        assert plain.cache_key() == checked.cache_key()
        assert checked.check_requested and not plain.check_requested


class TestInvariantTriggers:
    """Each check class fires on a deliberately corrupted structure."""

    def test_clean_state_passes(self):
        ctx = make_context()
        ks, km = build_memtis(ctx)
        alloc(ctx, ks, 4, FASTEST_TIER)
        alloc(ctx, ks, 2, 1, thp=False)
        make_sanitizer(ctx, ks, km).run_checks()

    def test_tier_accounting(self):
        ctx = make_context()
        alloc(ctx, None, 2, FASTEST_TIER)
        ctx.tiers.fast.used_bytes += 4096  # phantom bytes
        assert "tier-accounting" in findings_of(make_sanitizer(ctx))

    def test_mapping_shape_partial_huge(self):
        ctx = make_context()
        region = alloc(ctx, None, 2, FASTEST_TIER)
        ctx.space.page_huge[region.base_vpn + 3] = False  # torn flag run
        assert "mapping-shape" in findings_of(make_sanitizer(ctx))

    def test_page_table_mirror(self):
        ctx = make_context()
        region = alloc(ctx, None, 2, FASTEST_TIER, thp=False)
        # page_tier moves one page to capacity with no byte transfer:
        # both tiers' byte totals now disagree with it.
        ctx.space.page_tier[region.base_vpn] = 1
        with pytest.raises(InvariantViolation) as exc:
            make_sanitizer(ctx).run_checks()
        tampered = [f for f in exc.value.findings
                    if f.check == "tier-accounting"]
        assert len(tampered) == 2
        with pytest.raises(AssertionError, match="tier-accounting"):
            ctx.space.check_consistency()

    def test_histogram_mass_weight_tamper(self):
        ctx = make_context()
        ks, km = build_memtis(ctx)
        region = alloc(ctx, ks, 2, FASTEST_TIER)
        ks.main_weight[region.base_vpn] = 7  # not a legal weight shape
        assert "histogram-mass" in findings_of(make_sanitizer(ctx, ks, km))

    def test_histogram_mass_bin_drift(self):
        ctx = make_context()
        ks, km = build_memtis(ctx)
        alloc(ctx, ks, 2, FASTEST_TIER)
        ks.hist.bins[0] += 5  # mass not backed by any page
        assert "histogram-mass" in findings_of(make_sanitizer(ctx, ks, km))

    def test_promotion_queue_non_representative(self):
        ctx = make_context()
        ks, km = build_memtis(ctx)
        region = alloc(ctx, ks, 2, 1)
        interior = region.base_vpn + 17  # not the huge head
        ks.main_bin[interior] = 5
        ks.promotion_queue.add(interior)
        san = make_sanitizer(
            ctx, ks, km,
        )
        with pytest.raises(InvariantViolation) as exc:
            san.run_checks()
        checks = {f.check for f in exc.value.findings}
        assert "promotion-queue" in checks

    def test_promotion_queue_tolerates_stale_entries(self):
        # Lazy pruning is by design: unmapped or already-promoted
        # entries are legal.
        ctx = make_context()
        ks, km = build_memtis(ctx)
        region = alloc(ctx, ks, 2, FASTEST_TIER)
        ks.promotion_queue.add(region.base_vpn)        # already on fast
        ks.promotion_queue.add(ctx.space.num_vpns - 1)  # never mapped
        make_sanitizer(ctx, ks, km).run_checks()

    def test_split_bookkeeping_queue_not_tracked(self):
        ctx = make_context()
        ks, km = build_memtis(ctx)
        region = alloc(ctx, ks, 2, FASTEST_TIER)
        km.split_queue.append(region.base_vpn >> 9)  # not in split_hpns
        assert "split-bookkeeping" in findings_of(
            make_sanitizer(ctx, ks, km))

    def test_split_bookkeeping_survived_free(self):
        ctx = make_context()
        ks, km = build_memtis(ctx)
        region = alloc(ctx, ks, 2, FASTEST_TIER)
        km.split_hpns.add(region.base_vpn >> 9)
        ctx.space.free_region(region)  # km.on_unmap not wired here
        assert "split-bookkeeping" in findings_of(
            make_sanitizer(ctx, ks, km))

    def test_tlb_coherence_stale_entry(self):
        ctx = make_context()
        region = alloc(ctx, None, 2, FASTEST_TIER, thp=False)
        vpns = np.array([region.base_vpn], dtype=np.int64)
        ctx.tlb.access_substream(vpns, np.zeros(1, dtype=bool))
        # Unmap without a shootdown: the entry is now stale.
        ctx.space.free_region(region)
        assert "tlb-coherence" in findings_of(make_sanitizer(ctx))

    def test_free_path_shootdown_keeps_tlb_coherent(self):
        # The engine's free path invalidates the freed range, so the
        # same sequence through Simulation-level helpers stays clean.
        ctx = make_context()
        region = alloc(ctx, None, 2, FASTEST_TIER, thp=False)
        vpns = np.array([region.base_vpn], dtype=np.int64)
        ctx.tlb.access_substream(vpns, np.zeros(1, dtype=bool))
        ctx.space.free_region(region)
        ctx.tlb.shootdown_range(region.base_vpn, region.num_vpns)
        make_sanitizer(ctx).run_checks()

    def test_violation_carries_context(self):
        ctx = make_context()
        alloc(ctx, None, 2, FASTEST_TIER)
        ctx.tiers.fast.used_bytes += 4096
        san = make_sanitizer(ctx)
        with pytest.raises(InvariantViolation) as exc:
            san.run_checks(site="epoch", now_ns=123.0)
        err = exc.value
        assert err.site == "epoch" and err.now_ns == 123.0
        assert err.findings and err.to_dict()["findings"]
        assert "tier-accounting" in str(err)


@pytest.mark.parametrize("mode", [kernels.VECTORIZED, kernels.SCALAR])
class TestStrictAcceptance:
    """`--check=strict` on default memtis completes violation-free."""

    def test_strict_memtis_run_clean(self, mode):
        with kernels.forced(mode):
            spec = RunSpec("silo", "memtis", scale=TEST_SCALE,
                           max_accesses=120_000, check="strict")
            result = spec.run(cache=None)
        assert result.metrics.total_accesses > 0
        passes = result.observability["counters"].get("check/passes", 0)
        assert passes > 0

    def test_strict_via_env(self, mode, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "strict")
        with kernels.forced(mode):
            spec = RunSpec("silo", "memtis", scale=TEST_SCALE,
                           max_accesses=60_000)
            sim = spec.build()
            assert sim.sanitizer.level is CheckLevel.STRICT
            sim.run(max_accesses=spec.max_accesses)
