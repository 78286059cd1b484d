"""Trace-driven simulation engine.

The engine wires one workload, one policy and one machine together and
runs the event stream:

1. allocation events map regions (policy chooses the preferred tier,
   address space applies node fallback);
2. access batches are charged vectorised memory/compute cost, an exact
   strided-TLB translation cost, and hint-fault cost where the policy
   protected pages;
3. the policy observes its mechanism's view (samples / faults / ref
   bits) and may migrate -- critical-path migrations extend the runtime,
   background ones do not;
4. the virtual clock advances and background daemons tick.

The engine enforces the paper's asymmetry: *the application pays for
what happens on its critical path and nothing else.*
"""

from __future__ import annotations

import copy
import dataclasses
import operator
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro import kernels
from repro.check.invariants import Sanitizer, resolve_check_level
from repro.mem.address_space import AddressSpace, Region
from repro.mem.migration import MigrationEngine, MigrationStats
from repro.mem.tiers import TieredMemory
from repro.mem.tlb import TLB, TLBStats
from repro.obs import DEBUG, Observability
from repro.pebs.events import AccessBatch
from repro.pebs.sampler import PEBSSampler, SamplerConfig
from repro.policies.base import BatchObservation, PolicyContext, TieringPolicy
from repro.sim.cost import BoundCostModel, CostModel
from repro.sim.machine import MachineSpec
from repro.sim.macro import EventCoalescer
from repro.sim.metrics import MetricsCollector
from repro.snapshot.walk import capture, restore
from repro.workloads.base import AccessEvent, AllocEvent, FreeEvent, Workload
from repro.workloads.prefetch import close_stream, open_stream

#: In accesses: a shorter interleaved batch is gathered through
#: ``rng.permutation``; a longer one is shuffled in place, packed.
#: Measured by ``benchmarks/kernel_crossover.py`` on the silo replay:
#: inside the engine the permutation is ~7% faster at 1k accesses, even
#: at 4k, and 6-14% slower at 16k-64k (alone: even at 1k, 5-8% slower
#: from 4k, 33% at 256k).  From 4k on the packed shuffle is never
#: slower, and it needs no 8-byte-per-access permutation.
PERMUTE_CROSSOVER = 4096


def stream_rng(seed: int) -> np.random.Generator:
    """The generator a simulation seeded ``seed`` draws its workload's
    event stream from (the engine itself draws from ``seed``, its
    policy from ``seed + 1``).  Whoever records a stream for that
    simulation to replay draws it from here too."""
    return np.random.default_rng(seed + 2)


#: What a checkpoint holds: each component's name in the checkpoint and
#: its attribute path on the engine.  The engine names the components;
#: the snapshot walk (``repro.snapshot.walk``) decides how each is saved.
CHECKPOINT = {
    # engine position and RNG streams
    "now_ns": "now_ns", "batches_processed": "_batches_processed",
    "epoch_index": "_epoch_index", "epoch_start_ns": "_epoch_start_ns",
    "events_consumed": "_events_consumed", "regions": "_regions",
    "rng": "rng", "ctx_rng": "ctx.rng",
    # components
    "tiers": "tiers", "space": "space", "tlb": "tlb",
    "migration": "migrator", "metrics": "metrics", "sampler": "sampler",
    "policy": "policy", "counters": "obs.counters", "faults": "faults",
}


@dataclass
class SimResult:
    """Everything a run produced."""

    workload_name: str
    policy_name: str
    machine: MachineSpec
    #: Run totals and the per-epoch series (``metrics.series``).
    metrics: MetricsCollector
    migration: MigrationStats
    tlb: TLBStats
    final_rss_bytes: int
    final_touched_bytes: int
    huge_page_ratio: float
    #: The policy's end-of-run ``stats()``: values it keeps outside the
    #: counter registry.
    policy_stats: Dict[str, float]
    #: PEBS sampler totals and final periods (empty without a sampler).
    sampler_stats: Dict[str, float]
    wall_seconds: float
    #: Wall-time breakdown of the run's hot phases (see `Simulation`):
    #: ``gen_ns`` (time the engine waited for its next workload event:
    #: generating it, reading it from a trace, or -- when the stream is
    #: generated ahead on a helper thread -- waiting for the helper),
    #: ``prep_ns`` (fusing and interleaving each batch),
    #: ``sample_ns`` (PEBS extraction), ``tlb_ns`` (TLB simulation),
    #: ``policy_ns`` (policy observation + background daemons).
    phase_ns: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: True when this result was served from the persistent result
    #: cache; ``wall_seconds`` is 0.0 then (nothing was simulated).
    from_cache: bool = False
    #: Serialised :meth:`repro.obs.Observability.snapshot`: the counter
    #: registry's end-of-run values plus a tracer summary.  Simulation
    #: behaviour is independent of tracing, so everything outside the
    #: tracer summary is bit-identical between traced and untraced runs.
    observability: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def runtime_ns(self) -> float:
        return self.metrics.runtime_ns

    @property
    def fast_hit_ratio(self) -> float:
        return self.metrics.fast_hit_ratio

    @property
    def counters(self) -> Dict[str, Any]:
        """End-of-run counter registry values, by instrument name."""
        return self.observability.get("counters", {})

    @property
    def throughput_maps(self) -> float:
        """Simulated throughput in mega-accesses per second."""
        if self.runtime_ns <= 0:
            return 0.0
        return self.metrics.total_accesses / self.runtime_ns * 1e3

    def summary(self) -> Dict[str, float]:
        return {
            "runtime_ms": self.runtime_ns / 1e6,
            "fast_hit_ratio": self.fast_hit_ratio,
            "traffic_mb": self.migration.traffic_bytes / 1e6,
            "rss_mb": self.final_rss_bytes / 1e6,
            "tlb_miss_ratio": self.tlb.miss_ratio,
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict of the full result (numpy scalars converted).

        The per-epoch series comes out columnar under
        ``metrics.series``; cumulative stats come out as plain dicts
        with their derived properties included.
        """
        metrics = self.metrics
        return json_safe({
            "workload_name": self.workload_name,
            "policy_name": self.policy_name,
            "machine": self.machine.to_dict(),
            "runtime_ns": self.runtime_ns,
            "fast_hit_ratio": self.fast_hit_ratio,
            "throughput_maps": self.throughput_maps,
            "metrics": {
                "total_accesses": metrics.total_accesses,
                "total_fast_hits": metrics.total_fast_hits,
                "mem_ns": metrics.mem_ns,
                "compute_ns": metrics.compute_ns,
                "walk_ns": metrics.walk_ns,
                "fault_ns": metrics.fault_ns,
                "critical_policy_ns": metrics.critical_policy_ns,
                "contention_extra_ns": metrics.contention_extra_ns,
                "num_hint_faults": metrics.num_hint_faults,
                "series": metrics.series.to_dict(),
            },
            "migration": _migration_dict(self.migration),
            "tlb": dict(
                dataclasses.asdict(self.tlb),
                miss_ratio=self.tlb.miss_ratio,
            ),
            "final_rss_bytes": self.final_rss_bytes,
            "final_touched_bytes": self.final_touched_bytes,
            "huge_page_ratio": self.huge_page_ratio,
            "policy_stats": self.policy_stats,
            "sampler_stats": self.sampler_stats,
            "wall_seconds": self.wall_seconds,
            "phase_ns": self.phase_ns,
            "from_cache": self.from_cache,
            "observability": self.observability,
        })


def json_safe(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-serialisable plain types.

    Handles numpy scalars/arrays, dataclasses (via :meth:`SimResult.to_dict`
    where available), mappings and sequences; anything else falls back to
    ``str``.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, SimResult):
        return obj.to_dict()
    if isinstance(obj, dict):
        return {str(k): json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [json_safe(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return json_safe(dataclasses.asdict(obj))
    return str(obj)


def _migration_dict(stats: MigrationStats) -> dict:
    """Export migration stats; cascade fields appear only when active.

    Demotion cascades exist only on machines with 3+ tiers, so two-tier
    results keep their historical key set (and pinned digests).
    """
    d = dict(dataclasses.asdict(stats), traffic_bytes=stats.traffic_bytes)
    if stats.cascade_pages == 0 and stats.cascade_bytes == 0:
        del d["cascade_pages"]
        del d["cascade_bytes"]
    return d


class Simulation:
    """One workload x policy x machine run."""

    def __init__(
        self,
        workload: Workload,
        policy: TieringPolicy,
        machine: MachineSpec,
        cost_model: Optional[CostModel] = None,
        seed: int = 42,
        force_base_pages: bool = False,
        obs: Optional[Observability] = None,
        check=None,
        faults=None,
        macro_batch: int = 0,
    ):
        self.workload = workload
        self.policy = policy
        self.machine = machine
        self.cost_model = cost_model or CostModel()
        self.seed = seed
        #: When True, THP is disabled: every region maps base pages only
        #: (the "All-DRAM w/o THP" reference in Fig. 7).
        self.force_base_pages = force_base_pages
        self._batches_processed = 0
        #: Macro-batch coalescing target in accesses (``repro.sim.macro``):
        #: 0 runs one workload event per engine batch (coalescer target
        #: 1); N > 0 fuses consecutive access events into ~N-access
        #: macro-batches, changing the observation cadence (and
        #: therefore the spec identity).
        if macro_batch < 0:
            raise ValueError(f"macro_batch must be >= 0, got {macro_batch}")
        self.macro_batch = int(macro_batch)
        #: Wall-time (ns) spent in each hot phase, for BENCH breakdowns.
        self._phase_ns = {"gen_ns": 0.0, "prep_ns": 0.0, "sample_ns": 0.0,
                          "tlb_ns": 0.0, "policy_ns": 0.0}
        #: Shared observability: tracer (disabled unless the caller
        #: enables it) + counter registry for every bound component.
        self.obs = obs if obs is not None else Observability()
        self._epoch_start_ns = 0.0
        self._epoch_index = 0
        #: Workload events fully applied so far.  On resume, this many
        #: events of the regenerated stream are skipped unprocessed --
        #: their effects live in the restored state.
        self._events_consumed = 0
        #: Epoch checkpointing (wired by ``RunSpec.execute`` or tests):
        #: when ``snapshot_every > 0`` and a sink is set, the engine
        #: calls ``snapshot_sink(epoch_index, state_dict())`` every
        #: ``snapshot_every``-th epoch close.
        self.snapshot_every: int = 0
        self.snapshot_sink = None
        #: Epoch index of the most recent checkpoint written via
        #: ``snapshot_sink`` (``None`` until one is taken); surfaced in
        #: sweep progress.
        self._last_checkpoint_epoch: Optional[int] = None
        #: Optional per-epoch observer ``hook(sim)`` fired after each
        #: epoch closes (checkpoint already taken).  Purely
        #: observational -- used by the sweep worker's progress report;
        #: must not mutate simulation state.
        self.epoch_hook = None
        #: Progress bookkeeping for live status: the access budget of
        #: the current ``run()`` call, and how many accesses the
        #: restored checkpoint already carried (``load_state`` sets it)
        #: so rates can be computed over post-resume work only.
        self._access_budget: Optional[float] = None
        self._resumed = False
        self._resume_accesses = 0

        self.tiers: TieredMemory = machine.build_tiers()
        self.space = AddressSpace(self.tiers)
        self.tlb = TLB()
        self.migrator = MigrationEngine(
            self.space, tlb=self.tlb, params=self.cost_model.migration,
            tracer=self.obs.tracer,
        )
        self.bound_cost: BoundCostModel = self.cost_model.bind(self.tiers)
        self.metrics = MetricsCollector()
        self.now_ns = 0.0
        self.rng = np.random.default_rng(seed)
        self._regions: Dict[str, Region] = {}

        sampler = None
        if policy.uses_pebs:
            sampler = PEBSSampler(policy.sampler_config() or SamplerConfig(),
                                  tracer=self.obs.tracer)
        self.sampler = sampler

        self.ctx = PolicyContext(
            space=self.space,
            tiers=self.tiers,
            migrator=self.migrator,
            tlb=self.tlb,
            machine=machine,
            rng=np.random.default_rng(seed + 1),
            sampler=sampler,
            hint_fault_ns=self.cost_model.hint_fault_ns,
            obs=self.obs,
        )
        policy.bind(self.ctx)

        #: Invariant sanitizer (``repro.check``): an explicit ``check``
        #: level wins, otherwise ``REPRO_CHECK`` decides -- resolving
        #: here means the env var covers every Simulation anywhere
        #: (tests, sweeps, ad-hoc scripts) without plumbing.
        self.sanitizer = Sanitizer(
            resolve_check_level(check),
            space=self.space,
            tiers=self.tiers,
            tlb=self.tlb,
            policy=policy,
            tracer=self.obs.tracer,
            counters=self.obs.counters,
        )
        #: Optional fault injector (``repro.check.faults``).
        self.faults = faults
        if faults is not None:
            faults.bind(tiers=self.tiers, sampler=sampler,
                        tracer=self.obs.tracer)

    # -- event handling ------------------------------------------------------

    def _handle_alloc(self, event: AllocEvent) -> None:
        if event.key in self._regions:
            raise ValueError(f"region key {event.key!r} already allocated")
        # The policy states its preference once per region; the address
        # space falls back node by node when that tier fills.
        region = self.space.alloc_region(
            event.nbytes,
            name=event.key,
            thp=event.thp and not self.force_base_pages,
            preferred=self.policy.choose_alloc_tier(event.nbytes),
        )
        self._regions[event.key] = region
        self.policy.on_region_alloc(region)

    def _handle_free(self, event: FreeEvent) -> None:
        region = self._regions.pop(event.key, None)
        if region is None:
            raise KeyError(f"free of unknown region {event.key!r}")
        self.space.free_region(region)
        # munmap semantics: no translation for the freed range may
        # survive, or a stale entry would hit on a recycled mapping.
        self.tlb.shootdown_range(region.base_vpn, region.num_vpns)

    def _resolve_parts(self, event: AccessEvent):
        """Per-segment (region, relative batch) pairs, bounds-guarded.

        The ``vpn.max()`` scan is a guard against buggy out-of-tree
        workloads; generators that declare their offsets in-range
        (``Workload.needs_bounds_check = False`` -- every built-in
        synthetic workload, and traces validated at record time) skip
        it: on the hot path it is a full pass over every batch.
        """
        check = self.workload.needs_bounds_check
        regions, rels = [], []
        for key, rel_batch in event.segments:
            region = self._regions.get(key)
            if region is None:
                raise KeyError(f"access to unknown region {key!r}")
            if check and len(rel_batch) \
                    and int(rel_batch.vpn.max()) >= region.num_vpns:
                raise IndexError(
                    f"workload access beyond region {key!r} "
                    f"({int(rel_batch.vpn.max())} >= {region.num_vpns})"
                )
            regions.append(region)
            rels.append(rel_batch)
        return regions, rels

    @staticmethod
    def _fuse_reference(regions, rels) -> AccessBatch:
        """Per-segment rebase + concat: the executable fusion spec."""
        return AccessBatch.concat(
            [rel.rebased(region.base_vpn)
             for region, rel in zip(regions, rels)]
        )

    @staticmethod
    def _fuse_staged(regions, rels) -> AccessBatch:
        """Whole-array fusion: one concat, then an in-place add per part
        whose region has a non-zero base.

        Parts in a region based at vpn 0 (most of a trace replay) cost
        nothing beyond the concat the reference also does.  Bit-identical
        to :meth:`_fuse_reference` (integer ops); enforced per batch in
        validate mode and by ``tests/test_macro_batch.py``.
        """
        if len(rels) == 1:
            return rels[0].rebased(regions[0].base_vpn)
        if not rels:
            return AccessBatch.concat([])
        parts = [rel.vpn for rel in rels]
        vpn = np.concatenate(parts)
        end = 0
        for region, part in zip(regions, parts):
            end += len(part)
            if region.base_vpn:  # fresh concat buffer: safe in place
                vpn[end - len(part):end] += region.base_vpn
        is_store = np.concatenate([rel.is_store for rel in rels])
        return AccessBatch(vpn, is_store)

    @staticmethod
    def _permute(batch: AccessBatch, rng: np.random.Generator) -> AccessBatch:
        """Interleave's scalar path: gather through ``rng.permutation``."""
        order = rng.permutation(len(batch))
        return AccessBatch(batch.vpn.take(order), batch.is_store.take(order))

    @staticmethod
    def _interleave(batch: AccessBatch, interleave: bool, owned: bool,
                    rng: np.random.Generator) -> AccessBatch:
        """Shuffle one fused batch's accesses with ``rng`` (vpn and store
        flag move together), on the path the kernel mode picks for its
        size.

        Below :data:`PERMUTE_CROSSOVER` accesses the batch is gathered
        through ``rng.permutation(n)`` (:meth:`_permute`).  At or above
        it the packed (vpn, is_store) words are shuffled in place, which
        makes the same swaps (``permutation`` shuffles ``arange(n)``):
        same order, same RNG state, and no 8-byte-per-access
        permutation.  ``validate`` runs both, the reference on a deep
        copy of ``rng``, and compares arrays and RNG state.  ``owned``
        says fusion allocated ``batch.vpn``: the shuffle then packs and
        unpacks in that array.  Otherwise it is a workload's array (a
        read-only trace view or a generator's array) and is
        copied once first.  ``is_store`` is never written: the unpacked
        flags go to a fresh array.
        """
        n = len(batch)
        if not interleave or n < 2:
            return batch
        path = kernels.path_for(n, PERMUTE_CROSSOVER)
        if path == kernels.SCALAR:
            return Simulation._permute(batch, rng)
        if path == kernels.VALIDATE:
            ref_rng = copy.deepcopy(rng)
            ref = Simulation._permute(batch, ref_rng)  # before the pack
        packed = np.left_shift(batch.vpn, 1, out=batch.vpn if owned else None)
        packed |= batch.is_store
        rng.shuffle(packed)
        # Unpack straight into bools: ``(packed & 1)`` would be a fresh
        # 8-byte-per-access temporary.
        is_store = np.empty(n, dtype=bool)
        np.bitwise_and(packed, 1, out=is_store, casting="unsafe")
        packed >>= 1
        if path == kernels.VALIDATE and not (
                np.array_equal(packed, ref.vpn)
                and np.array_equal(is_store, ref.is_store)
                and ref_rng.bit_generator.state == rng.bit_generator.state):
            raise AssertionError(
                "packed shuffle diverged from the permutation"
            )
        return AccessBatch(packed, is_store)

    def _prepare_batch(self, event: AccessEvent) -> AccessBatch:
        """Fuse one engine batch under the active kernel mode, then
        interleave it with the engine RNG.  Fusion is staged by default
        and when vectorized, the reference when scalar, both when
        validating.  It has no size crossover (a crossover of 0 sends
        ``auto`` to the staged path): a one-part batch is rebased alone
        on either path."""
        regions, rels = self._resolve_parts(event)
        path = kernels.path_for(len(rels), 0)
        if path == kernels.SCALAR:
            batch = self._fuse_reference(regions, rels)
        else:
            batch = self._fuse_staged(regions, rels)
            if path == kernels.VALIDATE:
                ref = self._fuse_reference(regions, rels)
                if not (np.array_equal(batch.vpn, ref.vpn)
                        and np.array_equal(batch.is_store, ref.is_store)):
                    raise AssertionError(
                        "staged fusion diverged from the reference fusion"
                    )
        # Both fusions return a part's own arrays only for a single part
        # at base 0; every other batch is a buffer fusion allocated.
        owned = len(rels) != 1 or batch.vpn is not rels[0].vpn
        return self._interleave(batch, event.interleave, owned, self.rng)

    def _process_batch(self, batch: AccessBatch) -> None:
        n = len(batch)
        if n == 0:
            return
        space = self.space
        if self.faults is not None:
            # Freeze this batch's fault pulses up front so every
            # admission query within the batch sees one answer.
            self.faults.begin_batch()
        space.record_touch(batch.vpn)
        tracer = self.obs.tracer
        if tracer.enabled:
            # Components stamp events off the tracer's virtual clock.
            tracer.now_ns = self.now_ns

        # Demand faults: first touch of pages freed by a huge-page split
        # maps a fresh zero base page (minor-fault cost, charged below).
        tier_per_access = space.page_tier[batch.vpn]
        demand_fault_ns = 0.0
        # One reduction, no mask: ``(tiers < 0).any()`` costs a compare
        # plus numpy's Python-level ``any`` wrapper on every batch.
        if tier_per_access.min() < 0:
            miss_pos = tier_per_access < 0
            missing = np.unique(batch.vpn[miss_pos])
            preferred = self.policy.choose_alloc_tier(len(missing) * 4096)
            space.demand_map_many(missing, preferred)
            self.policy.on_demand_map(missing)
            demand_fault_ns = self.bound_cost.fault_ns(len(missing))
            # Patch only the positions that missed: every other entry of
            # the gather is still valid, so re-reading the whole batch
            # from ``page_tier`` was pure overhead.
            tier_per_access[miss_pos] = space.page_tier[batch.vpn[miss_pos]]
            if tracer.enabled_for("engine", DEBUG):
                tracer.emit("engine", "demand_map", DEBUG,
                            pages=len(missing), fault_ns=demand_fault_ns)
        bound_cost = self.bound_cost
        mem_ns = bound_cost.memory_ns(tier_per_access, batch.is_store)
        compute_ns = bound_cost.compute_ns(n)
        fast_hits = bound_cost.fast_accesses

        # Translation cost: exact TLB on the strided substream.
        stride = self.tlb.config.sample_stride
        sub = batch.vpn[::stride]
        t0 = time.perf_counter_ns()
        walk_levels = self.tlb.access_substream(sub, space.page_huge[sub])
        self._phase_ns["tlb_ns"] += time.perf_counter_ns() - t0
        walk_ns = self.bound_cost.walk_ns(walk_levels, stride)

        # Hint faults on protected pages: entry cost + handler migrations.
        fault_ns = demand_fault_ns
        critical_ns = 0.0
        num_faults = 0
        mask = self.policy.protection_mask
        if mask is not None:
            hit = mask[batch.vpn]
            if hit.any():
                touched = batch.vpn[hit]
                # One fault per *mapping*: a protected huge page faults
                # once for all 512 subpage vpns.
                faulted = np.unique(space.mapping_heads(touched))
                num_faults = len(faulted)
                fault_ns += self.bound_cost.fault_ns(num_faults)
                critical_ns += self.policy.on_hint_faults(faulted)
                if tracer.enabled_for("engine", DEBUG):
                    tracer.emit("engine", "hint_fault", DEBUG,
                                faults=num_faults, critical_ns=critical_ns)

        # Policy observation.  Unique-vpn aggregation is lazy: policies
        # that need it call ``obs.unique()``; computing it eagerly for
        # every batch was pure fixed cost for sample-based policies.
        t0 = time.perf_counter_ns()
        samples = self.sampler.sample(batch) if self.sampler is not None else None
        self._phase_ns["sample_ns"] += time.perf_counter_ns() - t0
        batch_wall_ns = mem_ns + compute_ns + walk_ns + fault_ns + critical_ns
        obs = BatchObservation(
            batch=batch,
            samples=samples,
            now_ns=self.now_ns,
            batch_wall_ns=batch_wall_ns,
        )
        t0 = time.perf_counter_ns()
        critical_ns += self.policy.on_batch(obs)
        self._phase_ns["policy_ns"] += time.perf_counter_ns() - t0

        # Contention from always-on service threads (e.g. HeMem's sampler).
        total_ns = mem_ns + compute_ns + walk_ns + fault_ns + critical_ns
        contention_extra = total_ns * (self.policy.cpu_contention_factor() - 1.0)

        self.metrics.record_batch(
            accesses=n,
            fast_hits=fast_hits,
            mem_ns=mem_ns,
            compute_ns=compute_ns,
            walk_ns=walk_ns,
            fault_ns=fault_ns,
            critical_policy_ns=critical_ns,
            contention_extra_ns=contention_extra,
            hint_faults=num_faults,
        )
        self.now_ns += total_ns + contention_extra
        if tracer.enabled:
            tracer.now_ns = self.now_ns

        t0 = time.perf_counter_ns()
        if self.faults is None or not self.faults.suppress_tick():
            self.policy.on_tick(self.now_ns)
        self._phase_ns["policy_ns"] += time.perf_counter_ns() - t0
        self._batches_processed += 1
        self.sanitizer.after_batch(self.now_ns)
        # One compare per batch: the row's inputs (an RSS sum over the
        # tiers, the policy's stats) are gathered only at an epoch close.
        if self.metrics.maybe_snapshot(self.now_ns):
            self._close_epoch()

    def _close_epoch(self) -> None:
        """Record the epoch's series row, then close the epoch."""
        self.metrics.record_row(
            self.now_ns,
            rss_bytes=self.space.rss_bytes,
            fast_used_bytes=self.tiers.fast.used_bytes,
            policy_stats=self.policy.stats(),
            registry=self.obs.counters,
        )
        tracer = self.obs.tracer
        if tracer.enabled_for("epoch"):
            tracer.emit(
                "epoch", "epoch", ts_ns=self._epoch_start_ns,
                index=self._epoch_index,
                dur_ns=self.now_ns - self._epoch_start_ns,
            )
        self._epoch_index += 1
        self._epoch_start_ns = self.now_ns
        self.sanitizer.after_epoch(self.now_ns)
        # Checkpoint *before* the kill hook: a fault-killed run always
        # has a checkpoint at the kill epoch to resume from.
        if (self.snapshot_every > 0 and self.snapshot_sink is not None
                and self._epoch_index % self.snapshot_every == 0):
            self.snapshot_sink(self._epoch_index, self.state_dict())
            self._last_checkpoint_epoch = self._epoch_index
        if self.epoch_hook is not None:
            self.epoch_hook(self)
        if self.faults is not None:
            self.faults.on_epoch(self._epoch_index)

    # -- checkpoint support --------------------------------------------------

    def _checkpointed(self, names) -> Dict[str, Any]:
        """The named checkpoint components of this engine."""
        return {name: operator.attrgetter(CHECKPOINT[name])(self)
                for name in names}

    def state_dict(self) -> Dict[str, Any]:
        """Complete serialisable simulator state at the current instant.

        Everything needed for ``run(k) -> save -> load -> run(N-k)`` to
        be bit-identical to ``run(N)``: the :data:`CHECKPOINT`
        components, saved by the one checkpoint walk
        (:func:`repro.snapshot.walk.capture`).  Live wiring is rebuilt
        by constructing a fresh ``Simulation`` from the same spec before
        :meth:`load_state`.  Tracer event buffers and ``phase_ns`` are
        not saved: a resumed run's phases and its ``wall_seconds`` both
        cover the run that produced them.
        """
        return capture(self._checkpointed(CHECKPOINT))

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output onto a freshly built sim, in
        place; ``ValueError`` before any write when it does not fit
        (:func:`repro.snapshot.walk.restore`).  A fault injector belongs
        to one run, not its spec: its position carries over only when
        both the checkpointed run and this one have one."""
        names = list(CHECKPOINT)
        if self.faults is None or state.get("faults") is None:
            names.remove("faults")
            state = {k: v for k, v in state.items() if k != "faults"}
        for name, value in restore(self._checkpointed(names), state).items():
            owner, _, attr = CHECKPOINT[name].rpartition(".")
            setattr(operator.attrgetter(owner)(self) if owner else self,
                    attr, value)
        self._resumed = True
        self._resume_accesses = self.metrics.total_accesses
        self._last_checkpoint_epoch = self._epoch_index

    # -- driver ------------------------------------------------------------------

    def _run_macro(self, events, skip: int, budget: float) -> None:
        """The engine loop: whole-array stages once per coalesced batch.

        ``macro_batch = 0`` coalesces at target 1 -- one workload event
        per batch.  Each access item is fused and interleaved here, on
        the engine's thread (``prep_ns``), once the batch before it is
        simulated and dropped.  The coalescer pulls ahead of processing
        by at most the pending group; ``_events_consumed`` counts only
        events folded into *processed* items, so checkpoints taken
        inside ``_process_batch`` describe a position the coalescer can
        deterministically restart from (fusion boundaries depend only
        on the stream from the restart point).  The same count goes to
        a workload's ``release_events`` (a trace replay) after each
        processed batch: the events behind it are done with, so their
        pages can go, while the items still in flight stay mapped.
        """
        phase = self._phase_ns
        while skip > 0:
            # Resume on a non-seekable workload: regenerate and drop the
            # consumed prefix (seekable workloads fast-forwarded already).
            t0 = time.perf_counter_ns()
            event = next(events, None)
            phase["gen_ns"] += time.perf_counter_ns() - t0
            if event is None:
                return
            skip -= 1
        coalescer = EventCoalescer(
            events, target=self.macro_batch or 1, phase_ns=phase
        )
        release = getattr(self.workload, "release_events", None)
        for item in coalescer:
            event = item.event
            if isinstance(event, AccessEvent):
                t0 = time.perf_counter_ns()
                event = self._prepare_batch(event)
                phase["prep_ns"] += time.perf_counter_ns() - t0
            self._events_consumed += item.events_fused
            if isinstance(event, AllocEvent):
                self._handle_alloc(event)
            elif isinstance(event, FreeEvent):
                self._handle_free(event)
            else:
                self._process_batch(event)
                # Unbound before the next batch is fused, so two batches
                # are never alive at once.
                del event
                if release is not None:
                    release(self._events_consumed)
                if self.metrics.total_accesses >= budget:
                    break

    def run(self, max_accesses: Optional[int] = None) -> SimResult:
        """Drive the workload to completion (or an access budget).

        Resume: seekable workloads (recorded traces) fast-forward their
        cursor by the consumed event count without regenerating; other
        event streams are regenerated deterministically from the seed
        and the first ``_events_consumed`` events -- whose effects are
        already in the restored state -- are skipped without processing
        (consuming no engine RNG).  Either way the run continues
        bit-identically from the checkpointed epoch.

        A generated stream runs ahead of the engine on a helper thread
        (:func:`repro.workloads.prefetch.open_stream`), which is joined
        before this returns or raises.
        """
        budget = max_accesses if max_accesses is not None else float("inf")
        self._access_budget = budget
        wall_start = time.perf_counter()
        skip = self._events_consumed
        # A resumed run whose checkpoint already reached the access
        # budget must not process further events (the original run broke
        # out of the loop at that point).  Fresh runs always enter.
        if skip == 0 or self.metrics.total_accesses < budget:
            if skip > 0 and hasattr(self.workload, "seek_events"):
                self.workload.seek_events(skip)
                skip = 0
            events = open_stream(self.workload, stream_rng(self.seed))
            try:
                # One mode lookup per run, not one per kernel call: the
                # kernels read this pin (an enclosing forced block wins,
                # since it is what active_mode returns).
                with kernels.forced(kernels.active_mode()):
                    self._run_macro(events, skip, budget)
            finally:
                close_stream(events)
        # Close the tail window so the series always covers the full
        # run, even when the last interval is shorter than the period.
        if self.metrics.tail_due(self.now_ns):
            self._close_epoch()
        self.sanitizer.at_end(self.now_ns)
        wall_seconds = time.perf_counter() - wall_start

        sampler_stats: Dict[str, float] = {}
        if self.sampler is not None:
            sampler_stats = {
                "total_samples": float(self.sampler.total_samples),
                "total_events": float(self.sampler.total_events),
                "dropped_samples": float(self.sampler.dropped_samples),
                "load_period": float(self.sampler.load_period),
                "store_period": float(self.sampler.store_period),
            }

        return SimResult(
            workload_name=self.workload.name,
            policy_name=self.policy.name,
            machine=self.machine,
            metrics=self.metrics,
            migration=self.migrator.stats,
            tlb=self.tlb.stats,
            final_rss_bytes=self.space.rss_bytes,
            final_touched_bytes=self.space.touched_bytes,
            huge_page_ratio=self.space.huge_page_ratio(),
            policy_stats=self.policy.stats(),
            sampler_stats=sampler_stats,
            wall_seconds=wall_seconds,
            phase_ns=dict(self._phase_ns),
            observability=self.obs.snapshot(),
        )
