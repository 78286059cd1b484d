"""Micro-benchmarks of the hot primitives (regression tracking).

These time the pieces that dominate simulation wall-clock: histogram
updates, PEBS sample extraction, TLB simulation, the vectorised batch
cost path, `ksampled` sample processing, the Zipf and mixture draws
every synthetic workload generator is built from, and the stages that
carry a replayed trace into the engine (trace slicing, batch fusion,
the interleave shuffle and the tier counts).
"""

import numpy as np
import pytest

from repro.core.config import MemtisConfig
from repro.core.histogram import AccessHistogram, bin_of_array
from repro.core.sampler import KSampled
from repro.mem.tlb import TLB, TLBConfig
from repro.pebs.events import AccessBatch
from repro.pebs.sampler import PEBSSampler, SamplerConfig, SampleBatch
from repro.policies.static import AllFastPolicy
from repro.sim.engine import Simulation
from repro.sim.machine import MachineSpec
from repro.workloads.distributions import ZipfSampler, mixture_pick
from repro.workloads.phaseflip import PhaseFlipWorkload
from repro.workloads.base import AllocEvent
from repro.workloads.registry import make_workload
from repro.workloads.silo import SiloWorkload
from repro.workloads.trace import TraceWorkload, record_trace

import sys
import os
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from conftest import run_once  # noqa: E402
from record_bench import MACRO_BATCH, SEED, TRACE_EVENT_ACCESSES, TRACE_SCALE  # noqa: E402

from repro import kernels  # noqa: E402
from repro.policies.registry import make_policy  # noqa: E402
from repro.sim.machine import ScaleSpec  # noqa: E402

MB = 1024 * 1024

pytestmark = pytest.mark.bench

KERNEL_MODES = [kernels.SCALAR, kernels.VECTORIZED]


class TestHistogramOps:
    def test_bin_of_array_1m(self, benchmark):
        hotness = np.random.default_rng(0).integers(1, 1 << 20, 1_000_000)
        result = benchmark(bin_of_array, hotness)
        assert result.max() <= 15

    def test_rebuild_1m_pages(self, benchmark):
        rng = np.random.default_rng(0)
        bins = rng.integers(0, 16, 1_000_000)
        weights = np.ones(1_000_000, dtype=np.int64)
        hist = AccessHistogram()
        benchmark(hist.rebuild, bins, weights)
        assert hist.total_pages == 1_000_000


class TestSamplerOps:
    def test_sample_extraction_1m_events(self, benchmark):
        sampler = PEBSSampler(SamplerConfig(load_period=200))
        batch = AccessBatch.loads(
            np.random.default_rng(0).integers(0, 100_000, 1_000_000)
        )
        samples = benchmark(sampler.sample, batch)
        assert len(samples) > 0


class TestWorkloadGeneration:
    """One 32k-access generator batch of draws, at perfbench's sizes:
    phaseflip's hot window at DEFAULT_SCALE and the replayed silo
    trace's store."""

    @pytest.mark.parametrize("n,alpha", [
        (8_192, PhaseFlipWorkload.ZIPF_ALPHA),
        (14_461, SiloWorkload.ZIPF_ALPHA),
    ], ids=["phaseflip", "silo"])
    def test_zipf_sample_32k(self, benchmark, n, alpha):
        sampler = ZipfSampler(n, alpha)
        ranks = benchmark(sampler.sample, np.random.default_rng(0), 32_768)
        assert len(ranks) == 32_768 and ranks.max() < n

    def test_mixture_pick_32k(self, benchmark):
        picks = benchmark(mixture_pick, np.random.default_rng(0), 32_768,
                          [0.60, 0.30, 0.10])
        assert len(picks) == 32_768 and picks.max() <= 2


class TestTLBOps:
    def test_substream_64k(self, benchmark):
        tlb = TLB(TLBConfig(sample_stride=1))
        vpns = np.random.default_rng(0).integers(0, 50_000, 65_536)
        is_huge = np.zeros(len(vpns), dtype=bool)
        benchmark.pedantic(tlb.access_substream, args=(vpns, is_huge),
                           rounds=1, iterations=1)
        assert tlb.stats.lookups == 65_536


class TestKsampledHotPath:
    def test_process_10k_samples(self, benchmark):
        from conftest import BENCH_SCALE  # noqa: F401
        from repro.mem.address_space import AddressSpace
        from repro.mem.migration import MigrationEngine
        from repro.mem.tiers import TieredMemory, dram_spec, nvm_spec
        from repro.policies.base import PolicyContext

        tiers = TieredMemory.build(dram_spec(16 * MB), nvm_spec(96 * MB))
        space = AddressSpace(tiers)
        ctx = PolicyContext(
            space=space, tiers=tiers,
            migrator=MigrationEngine(space), tlb=TLB(),
            machine=MachineSpec(fast_bytes=16 * MB, capacity_bytes=96 * MB),
            rng=np.random.default_rng(0),
        )
        config = MemtisConfig().resolved(16 * MB, 112 * MB)
        ks = KSampled(config, ctx)
        region = space.alloc_region(64 * MB)
        ks.on_region_alloc(region)
        vpns = np.random.default_rng(1).integers(
            region.base_vpn, region.end_vpn, 10_000
        )
        samples = SampleBatch(vpns, np.zeros(len(vpns), dtype=bool))
        run_once(benchmark, ks.process_samples, samples)
        assert ks.total_samples == 10_000


@pytest.fixture(scope="module")
def silo_trace(tmp_path_factory):
    """The seed-7 silo trace ``perfbench/``'s replay workloads record."""
    path = str(tmp_path_factory.mktemp("trace") / "trace.npz")
    record_trace(make_workload("silo", ScaleSpec(**TRACE_SCALE)), path,
                 seed=SEED)
    return path


@pytest.fixture(scope="module")
def silo_batch(silo_trace):
    """A 1:8 memtis simulation of the trace plus the parts of its first
    256-event engine batch, as ``_resolve_parts`` hands them to fusion."""
    workload = TraceWorkload(silo_trace, event_accesses=TRACE_EVENT_ACCESSES)
    sim = Simulation(workload, make_policy("memtis"),
                     MachineSpec.from_ratio(workload.total_bytes, "1:8"),
                     seed=SEED, macro_batch=MACRO_BATCH)
    regions, rels = [], []
    for event in workload.events(np.random.default_rng(SEED)):
        if isinstance(event, AllocEvent):
            sim._handle_alloc(event)
            continue
        part_regions, part_rels = sim._resolve_parts(event)
        regions += part_regions
        rels += part_rels
        if len(rels) >= 256:
            break
    return sim, regions[:256], rels[:256]


class TestReplayStages:
    """Each stage a replayed access passes on its way into the engine,
    at ``perfbench/``'s ``replay_macro`` sizes."""

    def test_trace_events_pass(self, benchmark, silo_trace):
        """One pass of the replay loop over the whole trace (1k events)."""
        workload = TraceWorkload(silo_trace,
                                 event_accesses=TRACE_EVENT_ACCESSES)

        def replay():
            return sum(1 for _ in workload.events(None))

        events = run_once(benchmark, replay)
        assert events == workload.num_replay_events

    def test_fuse_256_parts(self, benchmark, silo_batch):
        _sim, regions, rels = silo_batch
        batch = benchmark(Simulation._fuse_staged, regions, rels)
        assert len(batch) == sum(len(rel) for rel in rels)

    def test_interleave_262k(self, benchmark, silo_batch):
        sim, regions, rels = silo_batch
        fused = Simulation._fuse_staged(regions, rels)
        vpn = np.resize(fused.vpn, MACRO_BATCH)
        is_store = np.resize(fused.is_store, MACRO_BATCH)

        def fresh():
            # Fusion hands the interleave a buffer it may write.
            return (AccessBatch(vpn.copy(), is_store), True, True,
                    sim.rng), {}

        batch = benchmark.pedantic(sim._interleave, setup=fresh, rounds=30)
        assert np.array_equal(np.sort(batch.vpn), np.sort(vpn))

    @pytest.mark.parametrize("n", [1_024, MACRO_BATCH])
    def test_memory_ns(self, benchmark, silo_batch, n):
        sim = silo_batch[0]
        rng = np.random.default_rng(0)
        tiers = (rng.random(n) < 0.3).astype(np.int8)
        stores = rng.random(n) < 0.2
        assert benchmark(sim.bound_cost.memory_ns, tiers, stores) > 0


def _make_ksampled_fixture(region_mb=32):
    """A fresh context + KSampled + mapped region (kernel benches)."""
    from repro.mem.address_space import AddressSpace
    from repro.mem.migration import MigrationEngine
    from repro.mem.tiers import TieredMemory, dram_spec, nvm_spec
    from repro.policies.base import PolicyContext

    tiers = TieredMemory.build(dram_spec(64 * MB), nvm_spec(96 * MB))
    space = AddressSpace(tiers)
    ctx = PolicyContext(
        space=space, tiers=tiers,
        migrator=MigrationEngine(space), tlb=TLB(),
        machine=MachineSpec(fast_bytes=64 * MB, capacity_bytes=96 * MB),
        rng=np.random.default_rng(0),
    )
    config = MemtisConfig().resolved(64 * MB, 160 * MB)
    ks = KSampled(config, ctx)
    region = space.alloc_region(region_mb * MB)
    ks.on_region_alloc(region)
    return ctx, ks, region


class TestKernelComparison:
    """Scalar reference vs vectorized kernel on identical work items.

    Run ``pytest benchmarks/test_micro_bench.py -k KernelComparison``
    and compare the ``[scalar]`` vs ``[vectorized]`` rows per kernel.
    """

    @pytest.mark.parametrize("mode", KERNEL_MODES)
    def test_sample_fold_100k(self, benchmark, mode):
        with kernels.forced(mode):
            ctx, ks, region = _make_ksampled_fixture()
            vpns = np.random.default_rng(1).integers(
                region.base_vpn, region.end_vpn, 100_000
            )
            samples = SampleBatch(vpns, np.zeros(len(vpns), dtype=bool))
            run_once(benchmark, ks.process_samples, samples)
        assert ks.total_samples == 100_000

    @pytest.mark.parametrize("mode", KERNEL_MODES)
    def test_tlb_substream_64k(self, benchmark, mode):
        with kernels.forced(mode):
            tlb = TLB(TLBConfig(sample_stride=1))
            rng = np.random.default_rng(0)
            vpns = rng.integers(0, 50_000, 65_536)
            is_huge = rng.random(len(vpns)) < 0.3
            run_once(benchmark, tlb.access_substream, vpns, is_huge)
        assert tlb.stats.lookups == 65_536

    @pytest.mark.parametrize("batched", [False, True],
                             ids=["sequential", "batched"])
    def test_demand_map_4k_pages(self, benchmark, batched):
        """Batch demand-map API vs the per-page loop it replaced."""
        from repro.mem.pages import SUBPAGES_PER_HUGE
        from repro.mem.tiers import FASTEST_TIER

        ctx, ks, region = _make_ksampled_fixture()
        space = ctx.space
        rng = np.random.default_rng(2)
        holes = []
        for hpn in space.mapped_huge_hpns():
            kept = rng.random(SUBPAGES_PER_HUGE) < 0.5
            tier = space.tier_of_vpn(hpn << 9)
            space.split_huge(hpn, [tier if k else None for k in kept])
            holes.append((hpn << 9) + np.flatnonzero(~kept))
        vpns = np.concatenate(holes)
        assert len(vpns) > 4_000

        def sequential():
            for vpn in vpns:
                space.demand_map(int(vpn), FASTEST_TIER)

        def batch():
            space.demand_map_many(vpns, FASTEST_TIER)

        run_once(benchmark, batch if batched else sequential)
        assert bool(np.all(space.page_tier[vpns] >= 0))


class TestEndToEndThroughput:
    def test_engine_1m_accesses(self, benchmark):
        """Raw simulator throughput: accesses simulated per second."""
        def run():
            sim = Simulation(
                SiloWorkload(total_bytes=48 * MB, total_accesses=1_000_000),
                AllFastPolicy(),
                MachineSpec(fast_bytes=64 * MB, capacity_bytes=64 * MB),
            )
            return sim.run()

        result = run_once(benchmark, run)
        assert result.metrics.total_accesses >= 1_000_000
        # The engine attributes wall time to phases; the breakdown must
        # be populated so regressions can be localised per kernel.
        assert set(result.phase_ns) == {"gen_ns", "sample_ns", "tlb_ns",
                                         "policy_ns"}
        assert sum(result.phase_ns.values()) > 0

    @pytest.mark.parametrize("mode", KERNEL_MODES)
    def test_memtis_400k_accesses(self, benchmark, mode):
        """End-to-end memtis run under each kernel mode (speedup ratio)."""
        from repro.sim.runner import RunSpec
        from conftest import BENCH_SCALE

        def run():
            with kernels.forced(mode):
                spec = RunSpec("silo", "memtis", ratio="1:8",
                               scale=BENCH_SCALE, seed=7,
                               max_accesses=400_000)
                return spec.build().run(max_accesses=spec.max_accesses)

        result = run_once(benchmark, run)
        assert result.metrics.total_accesses >= 400_000
