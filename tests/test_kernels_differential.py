"""Differential tests: vectorized kernels vs the scalar reference path.

Every hot-path kernel (ksampled sample folding, array-backed TLB, batch
mapping ops, guided Zipf lookup) must produce *bit-identical* state to
the original per-element loop it replaced.  These tests drive seeded
randomized event streams -- mixed huge/base samples with frees, splits,
collapses and demand maps interleaved -- through both implementations
and compare every piece of derived state.  Whole runs on each path are
the conformance matrix's ``scalar`` and ``vectorized`` axes.
"""

import numpy as np
import pytest

from repro import kernels
from repro.core.config import MemtisConfig
from repro.core.sampler import KSampled
from repro.kernels import sample_fold, tlb_lru
from repro.kernels.sample_fold import FOLD_CROSSOVER
from repro.kernels.tlb_lru import LRU_BATCH_CROSSOVER
from repro.mem.pages import SUBPAGES_PER_HUGE
from repro.mem.tiers import FASTEST_TIER
from repro.mem.tlb import TLB, TLBConfig
from repro.pebs.events import AccessBatch
from repro.pebs.sampler import PEBSSampler, SampleBatch, SamplerConfig
from repro.sim.engine import PERMUTE_CROSSOVER
from repro.snapshot.walk import capture, fields, restore
from repro.workloads.distributions import ZipfSampler

from conftest import TEST_SCALE, make_context

MB = 1024 * 1024


# -- ksampled sample folding ---------------------------------------------------


def _snapshot(ks: KSampled) -> dict:
    """Every piece of ksampled state the fold kernel touches."""
    return {
        "sub_count": ks.meta.sub_count.copy(),
        "huge_count": ks.meta.huge_count.copy(),
        "main_bin": ks.main_bin.copy(),
        "main_weight": ks.main_weight.copy(),
        "base_bin": ks.base_bin.copy(),
        "hist": ks.hist.bins.copy(),
        "base_hist": ks.base_hist.bins.copy(),
        "thresholds": ks.thresholds,
        "base_thresholds": ks.base_thresholds,
        "base_cut": (ks.base_cut_hotness, ks.base_cut_fraction),
        "tie_credit": ks._tie_credit,
        "queue": sorted(ks.promotion_queue),
        "counters": (
            ks.total_samples,
            ks._rhr_hits,
            ks._ehr_hits,
            ks._since_adaptation,
            ks._since_cooling,
            ks._since_estimation,
            ks._window_samples,
        ),
        "last": (ks.last_ehr, ks.last_rhr),
    }


def _drive_sampler(mode: str, seed: int, rounds: int) -> dict:
    """Replay one seeded randomized ksampled history under ``mode``."""
    with kernels.forced(mode):
        ctx = make_context(fast_mb=8, cap_mb=64)
        config = MemtisConfig().resolved(
            ctx.tiers.fast.capacity_bytes,
            ctx.tiers.fast.capacity_bytes + ctx.tiers.slowest.capacity_bytes,
        )
        ks = KSampled(config, ctx)
        rng = np.random.default_rng(seed)

        # 12 MB of regions over an 8 MB fast tier: the tail spills to the
        # capacity tier, so rHR misses and promotions are exercised.
        regions = []
        for i in range(6):
            region = ctx.space.alloc_region(2 * MB, thp=(i % 2 == 0))
            ks.on_region_alloc(region)
            regions.append(region)

        for rnd in range(rounds):
            region = regions[int(rng.integers(len(regions)))]
            size = int(rng.integers(0, 400))
            vpns = rng.integers(region.base_vpn, region.end_vpn, size)
            stores = rng.random(size) < 0.3
            ks.process_samples(SampleBatch(vpns.astype(np.int64), stores))

            if rnd % 5 == 4:
                # Short-lived allocation churn: free one region, replace it.
                victim = regions.pop(int(rng.integers(len(regions))))
                ctx.space.free_region(victim)
                ks.on_unmap(victim.base_vpn, victim.num_vpns)
                fresh = ctx.space.alloc_region(
                    2 * MB, thp=bool(rng.integers(2))
                )
                ks.on_region_alloc(fresh)
                regions.append(fresh)

            if rnd % 8 == 5:
                # Demote a random batch so capacity-tier sampling and the
                # promotion queue see real traffic.
                fast = np.flatnonzero(ctx.space.page_tier == FASTEST_TIER)
                if len(fast):
                    pick = rng.choice(
                        fast, size=min(64, len(fast)), replace=False
                    )
                    ctx.migrator.migrate_many(np.sort(pick), 1)

            if rnd % 6 == 3:
                hpns = ctx.space.mapped_huge_hpns()
                if len(hpns):
                    hpn = int(hpns[int(rng.integers(len(hpns)))])
                    head = hpn << 9
                    tier = ctx.space.tier_of_vpn(head)
                    kept = rng.random(SUBPAGES_PER_HUGE) < 0.75
                    kept[0] = True
                    ctx.migrator.split_huge(
                        hpn, [tier if k else None for k in kept]
                    )
                    ks.on_split(hpn, kept)
                    freed = head + np.flatnonzero(~kept)
                    if len(freed):
                        ctx.space.demand_map_many(freed, FASTEST_TIER)
                        ks.on_demand_map(freed)
                    if rng.integers(2):
                        ctx.migrator.collapse_huge(hpn, 1)
                        ks.on_collapse(hpn)

            if rnd % 7 == 6:
                ks.adapt()
            if rnd % 11 == 10:
                ks.cool()

        ks.finish_estimation_window()
        return _snapshot(ks)


def _assert_snapshots_equal(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for key in a:
        va, vb = a[key], b[key]
        if isinstance(va, np.ndarray):
            np.testing.assert_array_equal(va, vb, err_msg=key)
        else:
            assert va == vb, f"{key}: {va!r} != {vb!r}"


class TestSampleFoldDifferential:
    @pytest.mark.parametrize("seed", [11, 1234, 987_654])
    def test_randomized_stream_bit_identical(self, seed):
        scalar = _drive_sampler(kernels.SCALAR, seed, rounds=24)
        vector = _drive_sampler(kernels.VECTORIZED, seed, rounds=24)
        # The stream must actually exercise the interesting paths.
        assert scalar["counters"][0] > 0
        assert scalar["queue"]
        _assert_snapshots_equal(scalar, vector)

    def test_validate_mode_runs_both_paths(self):
        # validate mode asserts scalar/vectorized equality inside every
        # process_samples call; surviving a full driven history is the test.
        _drive_sampler(kernels.VALIDATE, seed=77, rounds=12)

    def test_default_mode_mixes_paths_bit_identically(self):
        """Batches of 0-400 samples straddle the crossover, so the
        default mode folds some on each path."""
        _assert_snapshots_equal(_drive_sampler(kernels.SCALAR, 5, 24),
                                _drive_sampler(kernels.AUTO, 5, 24))

    def test_empty_batch_is_noop(self):
        for mode in (kernels.SCALAR, kernels.VECTORIZED):
            with kernels.forced(mode):
                ctx = make_context()
                config = MemtisConfig().resolved(16 * MB, 112 * MB)
                ks = KSampled(config, ctx)
                before = _snapshot(ks)
                ks.process_samples(SampleBatch.empty())
                _assert_snapshots_equal(before, _snapshot(ks))


# -- TLB -----------------------------------------------------------------------


def _drive_tlb(mode: str, seed: int, entries_4k: int = 64) -> tuple:
    # entries_4k=64 (16 sets) gives substreams of up to ~190 lookups per
    # set; entries_4k=4096 (1024 sets) spreads them thin.
    with kernels.forced(mode):
        tlb = TLB(TLBConfig(entries_4k=entries_4k, entries_2m=16, ways=4,
                            sample_stride=1))
        rng = np.random.default_rng(seed)
        for rnd in range(12):
            n = int(rng.integers(0, 3000))
            vpns = rng.integers(0, 4000, n).astype(np.int64)
            # Duplicate runs exercise the run-collapse fast path.
            reps = rng.integers(1, 4, n)
            vpns = np.repeat(vpns, reps)[: max(n, 1) if n else 0]
            huge = rng.random(len(vpns)) < 0.4
            tlb.access_substream(vpns, huge)
            if rnd % 3 == 2:
                for vpn in rng.integers(0, 4000, 5):
                    tlb.shootdown_base(int(vpn))
                for hpn in rng.integers(0, 8, 2):
                    tlb.shootdown_huge(int(hpn))
            if rnd == 7:
                tlb.flush()
        return tlb.stats, capture({"tlb": tlb})


class TestTLBDifferential:
    @pytest.mark.parametrize("entries_4k", [64, 4096])
    @pytest.mark.parametrize("seed", [3, 42, 31_337])
    def test_randomized_stream_bit_identical(self, seed, entries_4k):
        s_stats, s_state = _drive_tlb(kernels.SCALAR, seed, entries_4k)
        _v_stats, v_state = _drive_tlb(kernels.VECTORIZED, seed, entries_4k)
        assert s_stats.lookups > 0 and s_stats.misses_4k > 0
        assert s_state == v_state

    def test_validate_mode_runs_both_impls(self):
        _drive_tlb(kernels.VALIDATE, seed=9)


# -- size dispatch at each crossover -------------------------------------------

#: Default mode plus both pinned paths: all three must agree.
_DISPATCH_MODES = (kernels.AUTO, kernels.SCALAR, kernels.VECTORIZED)


def _spy(monkeypatch, module, name):
    """Record the arguments of every call to ``module.name`` (dispatch
    looks the name up per call)."""
    calls = []
    real = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def _spy_static(monkeypatch, cls, name):
    """:func:`_spy` for a static method (the spy must stay unbound)."""
    calls = []
    real = getattr(cls, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cls, name, staticmethod(spy))
    return calls


def _fold_once(mode: str, n: int) -> dict:
    """Warm a ksampled, demote part of it, then fold one n-sample batch
    under ``mode``."""
    with kernels.forced(mode):
        ctx = make_context(fast_mb=8, cap_mb=64)
        config = MemtisConfig().resolved(
            ctx.tiers.fast.capacity_bytes,
            ctx.tiers.fast.capacity_bytes + ctx.tiers.slowest.capacity_bytes,
        )
        ks = KSampled(config, ctx)
        rng = np.random.default_rng(n)
        regions = [ctx.space.alloc_region(2 * MB, thp=thp)
                   for thp in (True, False)]
        for region in regions:
            ks.on_region_alloc(region)
        lo, hi = regions[0].base_vpn, regions[-1].end_vpn
        warm = rng.integers(lo, hi, 300).astype(np.int64)
        ks.process_samples(SampleBatch(warm, np.zeros(300, dtype=bool)))
        # Hot pages off the fast tier are what the fold promotes.
        ctx.migrator.migrate_many(np.unique(warm[:150]), 1)
        # A skewed batch: repeats climb bins, so promotions happen.
        batch = rng.choice(warm[:40], n).astype(np.int64)
        ks.process_samples(SampleBatch(batch, np.zeros(n, dtype=bool)))
        return _snapshot(ks)


class TestSizeDispatch:
    @pytest.mark.parametrize("n", [FOLD_CROSSOVER - 1, FOLD_CROSSOVER,
                                   FOLD_CROSSOVER + 1])
    def test_fold_at_crossover(self, n, monkeypatch):
        snaps = {mode: _fold_once(mode, n) for mode in _DISPATCH_MODES}
        assert snaps[kernels.SCALAR]["queue"], "batch promoted nothing"
        for mode in (kernels.AUTO, kernels.VECTORIZED):
            _assert_snapshots_equal(snaps[kernels.SCALAR], snaps[mode])
        # The default folds the last batch on the path its size picks.
        scalar = _spy(monkeypatch, sample_fold, "fold_samples_scalar")
        vector = _spy(monkeypatch, sample_fold, "fold_samples_vectorized")
        _fold_once(kernels.AUTO, n)
        sizes = ([len(args[1]) for args in scalar],
                 [len(args[1]) for args in vector])
        # The 300-sample warm-up folds vectorized; the batch by its size.
        assert sizes == (([n], [300]) if n < FOLD_CROSSOVER
                         else ([], [300, n]))

    @pytest.mark.parametrize("huge", [False, True], ids=["64-set", "8-set"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_tlb_at_crossover(self, huge, offset, monkeypatch):
        """The default geometry's 4K array (64 sets) and 2M array (8
        sets), each fed one substream of crossover-1, crossover and
        crossover+1 lookups after a warm-up."""
        config = TLBConfig()
        entries = config.entries_2m if huge else config.entries_4k
        n = LRU_BATCH_CROSSOVER * (entries // config.ways) + offset
        rng = np.random.default_rng(n)
        # Bursty: runs of one page exercise the batch path's collapse.
        vpns = np.repeat(rng.integers(0, 1 << 16, n), 3)[:n].astype(np.int64)
        warm = rng.integers(0, 1 << 16, 64).astype(np.int64)
        is_huge = np.full(n, huge)

        def drive(mode):
            with kernels.forced(mode):
                tlb = TLB(config)
                tlb.access_substream(warm, np.full(64, huge))
                tlb.access_substream(vpns, is_huge)
                return tlb

        tlbs = {mode: drive(mode) for mode in _DISPATCH_MODES}
        stats = tlbs[kernels.SCALAR].stats
        assert (stats.hits_2m if huge else stats.hits_4k) > 0
        states = {mode: capture({"tlb": tlb}) for mode, tlb in tlbs.items()}
        for mode in (kernels.AUTO, kernels.VECTORIZED):
            assert states[mode] == states[kernels.SCALAR]
        batch = _spy(monkeypatch, tlb_lru, "lru_batch")
        drive(kernels.AUTO)
        assert len(batch) == (0 if offset < 0 else 1)

    def test_default_checkpoint_loads_under_each_forced_mode(self):
        """A TLB checkpoint written in default mode restores the same
        state under every pinned mode, and runs on identically."""
        rng = np.random.default_rng(21)
        streams = [(rng.integers(0, 5000, n).astype(np.int64),
                    rng.random(n) < 0.4) for n in (30, 6000, 700, 9000)]
        with kernels.forced(kernels.AUTO):
            tlb = TLB(TLBConfig())
            for vpns, huge in streams[:2]:
                tlb.access_substream(vpns, huge)
            saved = capture({"tlb": tlb})
        after = {}
        for mode in (kernels.AUTO, kernels.SCALAR, kernels.VECTORIZED,
                     kernels.VALIDATE):
            with kernels.forced(mode):
                fresh = TLB(TLBConfig())
                restore({"tlb": fresh}, saved)
                assert capture({"tlb": fresh}) == saved
                for vpns, huge in streams[2:]:
                    fresh.access_substream(vpns, huge)
                after[mode] = capture({"tlb": fresh})
        assert all(state == after[kernels.SCALAR] for state in after.values())


# -- batch mapping ops ---------------------------------------------------------


def _split_space_with_holes(seed=0):
    """A context with 100 free fast pages and 300 unmapped vpns.

    Demand-mapping the 300 holes with the fast tier preferred then
    exercises both the preferred-tier and the spill path.
    """
    ctx = make_context(fast_mb=16, cap_mb=96)
    ctx.space.alloc_region(14 * MB, thp=False)   # 3584 of 4096 fast pages
    rng = np.random.default_rng(seed)

    def split(region, num_freed):
        hpn = region.base_vpn >> 9
        kept = np.ones(SUBPAGES_PER_HUGE, dtype=bool)
        kept[rng.choice(SUBPAGES_PER_HUGE, num_freed, replace=False)] = False
        tier = ctx.space.tier_of_vpn(region.base_vpn)
        ctx.space.split_huge(hpn, [tier if k else None for k in kept])
        return (hpn << 9) + np.flatnonzero(~kept)

    region_fast = ctx.space.alloc_region(2 * MB, thp=True)  # fills fast
    region_cap = ctx.space.alloc_region(2 * MB, thp=True)   # spills over
    split(region_fast, 100)           # leaves exactly 100 free fast pages
    freed = split(region_cap, 300)    # the vpns the test demand-maps
    return ctx, freed


class TestBatchMappingDifferential:
    def test_demand_map_many_matches_sequential(self):
        ctx_a, freed_a = _split_space_with_holes()
        ctx_b, freed_b = _split_space_with_holes()
        np.testing.assert_array_equal(freed_a, freed_b)
        # The preferred tier can only hold part of the batch: the spill
        # path must match the per-page loop too.
        fast_free = ctx_a.tiers.fast.free_bytes // 4096
        assert 0 < fast_free < len(freed_a)

        for vpn in freed_a:
            ctx_a.space.demand_map(int(vpn), FASTEST_TIER)
        ctx_b.space.demand_map_many(freed_b, FASTEST_TIER)

        np.testing.assert_array_equal(
            ctx_a.space.page_tier, ctx_b.space.page_tier
        )
        np.testing.assert_array_equal(
            ctx_a.space.page_huge, ctx_b.space.page_huge
        )
        assert ctx_a.tiers.fast.free_bytes == ctx_b.tiers.fast.free_bytes
        assert (ctx_a.tiers.slowest.free_bytes
                == ctx_b.tiers.slowest.free_bytes)
        ctx_b.space.check_consistency()

    def test_demand_map_many_rejects_mapped_vpn(self):
        ctx, freed = _split_space_with_holes()
        mapped_vpn = int(np.flatnonzero(ctx.space.page_tier >= 0)[0])
        with pytest.raises(ValueError, match="already mapped"):
            ctx.space.demand_map_many(
                np.array([mapped_vpn]), FASTEST_TIER
            )

    def test_migrate_many_matches_sequential(self):
        def build():
            ctx = make_context(fast_mb=16, cap_mb=96)
            ctx.space.alloc_region(4 * MB, thp=True)
            ctx.space.alloc_region(4 * MB, thp=False)
            rng = np.random.default_rng(8)
            mapped = np.flatnonzero(ctx.space.page_tier >= 0)
            picks = np.sort(rng.choice(mapped, 200, replace=False))
            return ctx, picks

        ctx_a, picks_a = build()
        ctx_b, picks_b = build()
        total_a = sum(
            ctx_a.migrator.migrate_page(int(v), 1)
            for v in picks_a
        )
        total_b = ctx_b.migrator.migrate_many(picks_b, 1)

        np.testing.assert_array_equal(
            ctx_a.space.page_tier, ctx_b.space.page_tier
        )
        sa, sb = ctx_a.migrator.stats, ctx_b.migrator.stats
        assert (sa.promoted_pages, sa.demoted_pages) == (
            sb.promoted_pages, sb.demoted_pages
        )
        assert (sa.promoted_bytes, sa.demoted_bytes) == (
            sb.promoted_bytes, sb.demoted_bytes
        )
        assert total_b == pytest.approx(total_a)
        assert sb.background_ns == pytest.approx(sa.background_ns)
        assert (ctx_a.tlb.stats.shootdowns == ctx_b.tlb.stats.shootdowns)
        ctx_b.space.check_consistency()


# -- guided Zipf lookup --------------------------------------------------------


class _FixedRng:
    """Stands in for a Generator; returns a preset uniform array."""

    def __init__(self, u):
        self._u = np.asarray(u, dtype=np.float64)

    def random(self, size):
        assert size == len(self._u)
        return self._u


class TestZipfGuidedLookup:
    @pytest.mark.parametrize("n,alpha", [
        (5, 0.99),       # smaller than one block
        (64, 1.2),       # exactly one block
        (1_000, 0.99),   # non-multiple of the block width
        (65_536, 0.6),   # many blocks
    ])
    def test_bit_identical_to_searchsorted(self, n, alpha):
        sampler = ZipfSampler(n, alpha)
        u = np.random.default_rng(n).random(20_000)
        got = sampler.sample(_FixedRng(u), len(u))
        expected = np.searchsorted(sampler._cdf, u, side="left")
        np.testing.assert_array_equal(got, expected)
        assert got.max() < n

    def test_boundary_uniforms(self):
        sampler = ZipfSampler(1_000, 0.99)
        edges = np.arange(1, 20, dtype=np.float64) / sampler._K
        u = np.concatenate([
            [0.0, np.nextafter(1.0, 0.0)],
            sampler._cdf[:5],                     # exact CDF values (ties)
            np.nextafter(sampler._cdf[:5], 0.0),  # just below them
            edges,                                # exact bucket boundaries
            np.nextafter(edges, 0.0),
            np.nextafter(edges, 2.0),
        ])
        got = sampler.sample(_FixedRng(u), len(u))
        expected = np.searchsorted(sampler._cdf, u, side="left")
        np.testing.assert_array_equal(got, expected)


# -- TLB substream routing -----------------------------------------------------


def _tlb_substreams(seed: int, sizes):
    """Substreams of all-huge, all-base and mixed lookups, with repeats
    so both arrays hit."""
    rng = np.random.default_rng(seed)
    for i, n in enumerate(sizes):
        vpns = rng.integers(0, 6000, n).astype(np.int64)
        vpns[1::3] = vpns[:-1:3]
        share = (1.0, 0.0, 0.5)[i % 3]
        yield vpns, rng.random(n) < share


def _shoot(tlb_or_sets, rng):
    """The same shootdowns on a TLB or on a (base, huge) pair of lists."""
    vpns = rng.integers(0, 6000, 4).tolist()
    hpns = rng.integers(0, 12, 2).tolist()
    if isinstance(tlb_or_sets, TLB):
        for vpn in vpns:
            tlb_or_sets.shootdown_base(vpn)
        for hpn in hpns:
            tlb_or_sets.shootdown_huge(hpn)
        return
    for sets, tags in zip(tlb_or_sets, (vpns, hpns)):
        for tag in tags:
            row = sets[tag % len(sets)]
            if tag in row:
                row.remove(tag)


class TestTLBSubstreamRouting:
    """A one-size substream goes to its array whole, a mixed one is
    split; both against the per-array reference loop, on each side of
    both arrays' batch crossovers."""

    SIZES = (1, 7, 64, 511, 512, 513, 4095, 4096, 4097, 9000)

    @pytest.mark.parametrize("mode", _DISPATCH_MODES + (kernels.VALIDATE,))
    @pytest.mark.parametrize("seed", [0, 5])
    def test_equals_per_array_lru_loop(self, mode, seed):
        config = TLBConfig()
        base = [[] for _ in range(config.entries_4k // config.ways)]
        huge = [[] for _ in range(config.entries_2m // config.ways)]
        ref = {"hits_4k": 0, "misses_4k": 0, "hits_2m": 0, "misses_2m": 0}
        rng_ref, rng_tlb = (np.random.default_rng(seed) for _ in range(2))
        with kernels.forced(mode):
            tlb = TLB(config)
            for vpns, is_huge in _tlb_substreams(seed, self.SIZES * 3):
                h, m = tlb_lru.lru_loop(base, config.ways, vpns[~is_huge])
                ref["hits_4k"] += h
                ref["misses_4k"] += m
                h, m = tlb_lru.lru_loop(huge, config.ways,
                                        vpns[is_huge] >> 9)
                ref["hits_2m"] += h
                ref["misses_2m"] += m
                tlb.access_substream(vpns, is_huge)
                _shoot((base, huge), rng_ref)
                _shoot(tlb, rng_tlb)
        stats = vars(tlb.stats)
        assert ref["hits_4k"] > 0 and ref["hits_2m"] > 0
        assert {key: stats[key] for key in ref} == ref
        assert tlb._tlb_4k.sets == base
        assert tlb._tlb_2m.sets == huge

    @pytest.mark.parametrize("share,arrays", [(0.0, [64]), (1.0, [8]),
                                              (0.5, [64, 8])])
    def test_one_size_substream_makes_one_call(self, share, arrays,
                                               monkeypatch):
        from repro.mem import tlb as tlb_module

        calls = _spy(monkeypatch, tlb_module, "lru_access")
        rng = np.random.default_rng(2)
        vpns = rng.integers(0, 6000, 64).astype(np.int64)
        TLB(TLBConfig()).access_substream(vpns, rng.random(64) < share)
        assert [len(args[0]) for args in calls] == arrays


# -- PEBS every-Nth selection ------------------------------------------------


class _ArangeSampler:
    """The every-Nth selection restated with ``np.arange`` index lists
    and a gather per kind, then concatenate and sort."""

    def __init__(self, load_period, store_period, capacity):
        self.periods = [load_period, store_period]
        self.phases = [0, 0]
        self.capacity = capacity
        self.dropped = 0

    def set_periods(self, load_period, store_period):
        self.periods = [load_period, store_period]
        self.phases = [p % q for p, q in zip(self.phases, self.periods)]

    def sample(self, vpn, is_store):
        picked = []
        for kind, mask in enumerate((~is_store, is_store)):
            positions = np.flatnonzero(mask)
            first = self.periods[kind] - 1 - self.phases[kind]
            picked.append(positions[np.arange(first, len(positions),
                                              self.periods[kind])])
            self.phases[kind] = ((self.phases[kind] + len(positions))
                                 % self.periods[kind])
        positions = np.sort(np.concatenate(picked))
        if len(positions) > self.capacity:
            self.dropped += len(positions) - self.capacity
            positions = positions[-self.capacity:]
        return vpn[positions], is_store[positions]


class TestSamplerSlices:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_arange_reference(self, seed):
        rng = np.random.default_rng(seed)
        load_period = int(rng.integers(1, 40))
        store_period = int(rng.integers(1, 40))
        capacity = int(rng.integers(1, 12))  # small: overflow happens
        sampler = PEBSSampler(SamplerConfig(load_period, store_period,
                                            capacity))
        ref = _ArangeSampler(load_period, store_period, capacity)
        seen = 0
        for rnd in range(60):
            n = int(rng.choice([0, 1, 5, 63, 200, 700]))
            store_share = float(rng.choice([0.0, 0.1, 0.5, 1.0]))
            vpn = rng.integers(0, 1 << 20, n).astype(np.int64)
            is_store = rng.random(n) < store_share
            got = sampler.sample(AccessBatch(vpn, is_store))
            want_vpn, want_store = ref.sample(vpn, is_store)
            np.testing.assert_array_equal(got.vpn, want_vpn)
            np.testing.assert_array_equal(got.is_store, want_store)
            seen += len(got)
            if rnd == 30:
                periods = (int(rng.integers(1, 40)), int(rng.integers(1, 40)))
                sampler.set_periods(*periods)
                ref.set_periods(*periods)
            state = fields(sampler)
            assert [state["_load_phase"], state["_store_phase"]] == ref.phases
        assert seen > 0
        assert sampler.dropped_samples == ref.dropped > 0


# -- fast-tier count from memory_ns -------------------------------------------


class TestFastCountFromMemoryNs:
    @pytest.mark.parametrize("num_tiers", [1, 2, 3])
    def test_equals_count_nonzero(self, num_tiers):
        from repro.mem.tiers import TieredMemory, cxl_spec, dram_spec, nvm_spec
        from repro.sim.cost import CostModel

        specs = (dram_spec, cxl_spec, nvm_spec)[:num_tiers]
        tiers = TieredMemory.build(*[spec(64 * MB) for spec in specs])
        cost = CostModel().bind(tiers)
        rng = np.random.default_rng(num_tiers)
        for n in (0, 1, 17, 1024, 5000):
            tier = rng.integers(0, num_tiers, n).astype(np.int8)
            stores = rng.random(n) < 0.3
            cost.memory_ns(tier, stores)
            assert cost.fast_accesses == np.count_nonzero(
                tier == FASTEST_TIER)

    def test_engine_fast_hits_equal_a_recount(self, monkeypatch):
        """Every batch's recorded fast hits equal a recount of the tiers
        ``memory_ns`` saw."""
        from repro.sim.cost import BoundCostModel
        from repro.sim.metrics import MetricsCollector
        from repro.sim.runner import RunSpec

        recounts, recorded, accesses = [], [], []
        real_memory_ns = BoundCostModel.memory_ns
        real_record = MetricsCollector.record_batch

        def memory_ns(self, tier_per_access, is_store):
            recounts.append(int(np.count_nonzero(
                tier_per_access == FASTEST_TIER)))
            accesses.append(len(tier_per_access))
            return real_memory_ns(self, tier_per_access, is_store)

        def record_batch(self, **kw):
            recorded.append(kw["fast_hits"])
            return real_record(self, **kw)

        monkeypatch.setattr(BoundCostModel, "memory_ns", memory_ns)
        monkeypatch.setattr(MetricsCollector, "record_batch", record_batch)
        spec = RunSpec("phaseflip", "tpp", scale=TEST_SCALE, seed=4,
                       machine_preset="dram-cxl-nvm", max_accesses=120_000)
        spec.build().run(max_accesses=spec.max_accesses)
        assert len(recorded) > 1 and recorded == recounts
        assert 0 < sum(recorded) < sum(accesses)


# -- interleave paths ----------------------------------------------------------


def _interleave_sim():
    from repro.policies.static import AllFastPolicy
    from repro.sim.engine import Simulation
    from repro.sim.machine import MachineSpec
    from repro.workloads.base import Workload

    class _Empty(Workload):
        name = "empty"

        def events(self, rng):
            return iter(())

    return Simulation(_Empty(MB, 1), AllFastPolicy(),
                      MachineSpec(fast_bytes=8 * MB,
                                  capacity_bytes=64 * MB), seed=9)


class TestInterleavePaths:
    """The permutation gather and the packed in-place shuffle make the
    same swaps: equal arrays and equal RNG state, on both sides of
    ``PERMUTE_CROSSOVER``."""

    @pytest.mark.parametrize("n", [2, 3, 1024, PERMUTE_CROSSOVER - 1,
                                   PERMUTE_CROSSOVER, PERMUTE_CROSSOVER + 1])
    def test_paths_agree(self, n):
        from repro.pebs.events import AccessBatch as Batch

        rng = np.random.default_rng(n)
        vpn = rng.integers(0, 1 << 30, n).astype(np.int64)
        is_store = rng.random(n) < 0.3
        out = {}
        for mode in (kernels.SCALAR, kernels.VECTORIZED, kernels.AUTO,
                     kernels.VALIDATE):
            sim = _interleave_sim()
            sim.rng.random(3)  # any state, the same for every path
            with kernels.forced(mode):
                batch = sim._interleave(Batch(vpn.copy(), is_store.copy()),
                                        True, True, sim.rng)
            out[mode] = (batch.vpn, batch.is_store,
                         sim.rng.bit_generator.state)
        ref_vpn, ref_store, ref_state = out[kernels.SCALAR]
        assert not np.array_equal(ref_vpn, vpn)
        assert sorted(ref_vpn.tolist()) == sorted(vpn.tolist())
        for got_vpn, got_store, got_state in out.values():
            np.testing.assert_array_equal(got_vpn, ref_vpn)
            np.testing.assert_array_equal(got_store, ref_store)
            assert got_state == ref_state

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_default_permutes_below_the_crossover(self, offset, monkeypatch):
        from repro.pebs.events import AccessBatch as Batch
        from repro.sim.engine import Simulation

        n = PERMUTE_CROSSOVER + offset
        calls = _spy_static(monkeypatch, Simulation, "_permute")
        with kernels.forced(kernels.AUTO):
            Simulation._interleave(
                Batch(np.arange(n), np.zeros(n, dtype=bool)), True, False,
                np.random.default_rng(0))
        assert len(calls) == (1 if offset < 0 else 0)


# -- mode resolution per run ---------------------------------------------------


def _batches_run(num_batches: int = 200):
    """A memtis run of ``num_batches`` interleaved 1k-access batches on
    a THP region (so both TLB arrays, the sampler and the fold work)."""
    from repro.policies.registry import make_policy
    from repro.sim.engine import Simulation
    from repro.sim.machine import MachineSpec
    from repro.workloads.base import AccessEvent, AllocEvent, Workload

    class _Batches(Workload):
        name = "batches"
        needs_bounds_check = False

        def events(self, rng):
            yield AllocEvent("a", 16 * MB, thp=True)
            yield AllocEvent("b", 4 * MB, thp=False)
            for _ in range(num_batches):
                parts = [(key, AccessBatch(
                    rng.integers(0, size // 4096, 512).astype(np.int64),
                    rng.random(512) < 0.2)) for key, size in
                    (("a", 16 * MB), ("b", 4 * MB))]
                yield AccessEvent(parts, interleave=True)

    workload = _Batches(20 * MB, num_batches * 1024)
    return Simulation(workload, make_policy("memtis"),
                      MachineSpec(fast_bytes=4 * MB,
                                  capacity_bytes=64 * MB), seed=3)


class TestModeResolvedOncePerRun:
    def test_one_lookup_per_run(self, monkeypatch):
        lookups = []
        real = kernels.active_mode

        def counted():
            lookups.append(1)
            return real()

        monkeypatch.setattr(kernels, "active_mode", counted)
        sim = _batches_run()
        sim.run()
        assert sim._batches_processed == 200
        assert sim.sampler.total_samples > 0
        assert len(lookups) == 1

    @pytest.mark.parametrize("mode", [kernels.SCALAR, kernels.VECTORIZED])
    def test_forced_block_pins_every_call(self, mode, monkeypatch):
        from repro.sim.engine import Simulation

        monkeypatch.setenv("REPRO_SCALAR_KERNELS",
                           "1" if mode == kernels.VECTORIZED else "vectorized")
        spies = {
            kernels.SCALAR: [
                _spy(monkeypatch, sample_fold, "fold_samples_scalar"),
                _spy_static(monkeypatch, Simulation, "_permute"),
            ],
            kernels.VECTORIZED: [
                _spy(monkeypatch, sample_fold, "fold_samples_vectorized"),
                _spy(monkeypatch, tlb_lru, "lru_batch"),
            ],
        }
        with kernels.forced(mode):
            _batches_run().run()
        other = (kernels.VECTORIZED if mode == kernels.SCALAR
                 else kernels.SCALAR)
        assert all(calls for calls in spies[mode])
        assert not any(calls for calls in spies[other])

    def test_auto_env_value_selects_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "auto")
        assert kernels.active_mode() == kernels.AUTO
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", " AUTO ")
        assert kernels.active_mode() == kernels.AUTO
