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

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro import kernels
from repro.check.invariants import Sanitizer, resolve_check_level
from repro.mem.address_space import AddressSpace, Region
from repro.mem.migration import MigrationEngine, MigrationStats
from repro.mem.tiers import FASTEST_TIER, TieredMemory
from repro.mem.tlb import TLB, TLBStats
from repro.obs import DEBUG, Observability
from repro.pebs.events import AccessBatch
from repro.pebs.sampler import PEBSSampler, SamplerConfig
from repro.policies.base import BatchObservation, PolicyContext, TieringPolicy
from repro.sim.cost import BoundCostModel, CostModel
from repro.sim.machine import MachineSpec
from repro.sim.macro import EventCoalescer
from repro.sim.metrics import MetricsCollector
from repro.workloads.base import AccessEvent, AllocEvent, FreeEvent, Workload


@dataclass
class SimResult:
    """Everything a run produced."""

    workload_name: str
    policy_name: str
    machine: MachineSpec
    metrics: MetricsCollector
    migration: MigrationStats
    tlb: TLBStats
    final_rss_bytes: int
    final_touched_bytes: int
    huge_page_ratio: float
    policy_stats: Dict[str, float]
    sampler_stats: Dict[str, float]
    wall_seconds: float
    #: Wall-time breakdown of the run's hot phases (see `Simulation`):
    #: ``gen_ns`` (workload event generation / trace replay),
    #: ``sample_ns`` (PEBS extraction), ``tlb_ns`` (TLB simulation),
    #: ``policy_ns`` (policy observation + background daemons).
    phase_ns: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: True when this result was served from the persistent result
    #: cache; ``wall_seconds`` is 0.0 then (nothing was simulated).
    from_cache: bool = False
    #: Serialised :meth:`repro.obs.Observability.snapshot`: the counter
    #: registry contents plus a tracer summary.  Simulation behaviour is
    #: independent of tracing, so everything outside this section is
    #: bit-identical between traced and untraced runs.
    observability: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def runtime_ns(self) -> float:
        return self.metrics.runtime_ns

    @property
    def fast_hit_ratio(self) -> float:
        return self.metrics.fast_hit_ratio

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

        Timeline points keep their per-window fields plus the derived
        ratios the figures plot; cumulative stats come out as plain
        dicts with their derived properties included.
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
                "timeline": [
                    dict(
                        dataclasses.asdict(point),
                        throughput_mops=point.throughput_mops,
                        hit_ratio=point.hit_ratio,
                    )
                    for point in metrics.timeline
                ],
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
        timeline_interval_ns: float = 20e6,
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
        self._phase_ns = {"gen_ns": 0.0, "sample_ns": 0.0, "tlb_ns": 0.0,
                         "policy_ns": 0.0}
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
        self.metrics = MetricsCollector(timeline_interval_ns=timeline_interval_ns)
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
        # space still applies per-chunk node fallback when a tier fills.
        preferred = self.policy.choose_alloc_tier(event.nbytes)
        region = self.space.alloc_region(
            event.nbytes,
            name=event.key,
            thp=event.thp and not self.force_base_pages,
            tier_chooser=lambda _chunk_bytes: preferred,
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
        """Grouped whole-array fusion: one concat + one base-vector add.

        Bit-identical to :meth:`_fuse_reference` (integer ops, same
        order); enforced per batch in validate mode and end to end by
        ``tests/test_macro_batch.py``.
        """
        if len(rels) == 1:
            return rels[0].rebased(regions[0].base_vpn)
        if not rels:
            return AccessBatch.concat([])
        vpn = np.concatenate([rel.vpn for rel in rels])
        bases = np.repeat(
            np.array([region.base_vpn for region in regions], dtype=np.int64),
            [len(rel) for rel in rels],
        )
        np.add(vpn, bases, out=vpn)  # fresh concat buffer: safe in place
        is_store = np.concatenate([rel.is_store for rel in rels])
        return AccessBatch(vpn, is_store)

    def _interleave(self, batch: AccessBatch, interleave: bool) -> AccessBatch:
        if interleave and len(batch) > 1:
            # Shuffling the packed (vpn, is_store) words in place makes
            # the same swaps as ``rng.permutation(n)`` (a shuffle of
            # ``arange(n)``): same order, same RNG state, but one pass
            # instead of a permutation plus two random gathers.
            packed = batch.vpn << 1
            packed |= batch.is_store
            self.rng.shuffle(packed)
            is_store = (packed & 1).astype(bool)
            packed >>= 1
            batch = AccessBatch(packed, is_store)
        return batch

    def _rebase_macro(self, event: AccessEvent) -> AccessBatch:
        """Fuse one engine batch under the active kernel mode: staged
        by default and when vectorized, the reference when scalar, both
        when validating.  Fusion has no size crossover: a one-part batch
        is rebased alone on either path."""
        regions, rels = self._resolve_parts(event)
        mode = kernels.active_mode()
        if mode == kernels.SCALAR:
            batch = self._fuse_reference(regions, rels)
        else:
            batch = self._fuse_staged(regions, rels)
            if mode == kernels.VALIDATE:
                ref = self._fuse_reference(regions, rels)
                if not (np.array_equal(batch.vpn, ref.vpn)
                        and np.array_equal(batch.is_store, ref.is_store)):
                    raise AssertionError(
                        "staged fusion diverged from the reference fusion"
                    )
        return self._interleave(batch, event.interleave)

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
        miss_pos = tier_per_access < 0
        if np.any(miss_pos):
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
        mem_ns = self.bound_cost.memory_ns(tier_per_access, batch.is_store)
        compute_ns = self.bound_cost.compute_ns(n)
        fast_hits = int(np.count_nonzero(tier_per_access == FASTEST_TIER))

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
        if self.metrics.maybe_snapshot(
            self.now_ns,
            rss_bytes=space.rss_bytes,
            fast_used_bytes=self.tiers.fast.used_bytes,
            policy_stats_fn=self.policy.stats,
        ):
            self._close_epoch()

    def _close_epoch(self) -> None:
        """Emit the span for the timeline window that just closed."""
        tracer = self.obs.tracer
        if tracer.enabled_for("epoch"):
            tracer.emit(
                "epoch", "epoch", ts_ns=self._epoch_start_ns,
                index=self._epoch_index,
                dur_ns=self.now_ns - self._epoch_start_ns,
            )
        # Per-epoch telemetry row (before the index bumps, so the row
        # carries the index of the epoch that just closed -- and before
        # the checkpoint below, so a checkpoint at this epoch contains
        # this epoch's row).  Publishing engine gauges here is safe for
        # bit-identity: the end-of-run publish overwrites them with
        # values identical in both telemetry modes.
        ts = self.obs.timeseries
        if ts is not None and ts.due(self._epoch_index):
            self.metrics.publish(self.obs.counters)
            ts.record(self._epoch_index, self.now_ns, self.obs.counters)
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
            on_epoch = getattr(self.faults, "on_epoch", None)
            if on_epoch is not None:
                on_epoch(self._epoch_index)

    # -- checkpoint support --------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Complete serialisable simulator state at the current instant.

        Everything needed for ``run(k) -> save -> load -> run(N-k)`` to
        be bit-identical to ``run(N)``: engine position and RNG streams,
        tier accounting, the address space, the TLB (in its
        mode-portable canonical form), migration and run metrics, the
        sampler, the policy (daemons included), the shared counter
        registry and the fault injector.  Live wiring -- unmap
        listeners, fault gates/hooks, the tracer -- is never serialised;
        it is re-established by constructing a fresh ``Simulation`` from
        the same spec before calling :meth:`load_state`.  Tracer event
        buffers are not checkpointed (tracing is observational and does
        not influence simulation behaviour).
        """
        return {
            "now_ns": self.now_ns,
            "batches_processed": self._batches_processed,
            "epoch_index": self._epoch_index,
            "epoch_start_ns": self._epoch_start_ns,
            "phase_ns": dict(self._phase_ns),
            "events_consumed": self._events_consumed,
            "rng": self.rng.bit_generator.state,
            "ctx_rng": self.ctx.rng.bit_generator.state,
            "regions": {
                key: region.region_id for key, region in self._regions.items()
            },
            "tiers": self.tiers.state_dict(),
            "space": self.space.state_dict(),
            "tlb": self.tlb.state_dict(),
            "migration": self.migrator.state_dict(),
            "metrics": self.metrics.state_dict(),
            "sampler": (
                None if self.sampler is None else self.sampler.state_dict()
            ),
            "policy": self.policy.state_dict(),
            "counters": self.obs.counters.state_dict(),
            "faults": (
                None if self.faults is None
                or not hasattr(self.faults, "state_dict")
                else self.faults.state_dict()
            ),
            # Conditional: checkpoints keep their historical key set
            # when no telemetry recorder is attached.
            **({"timeseries": self.obs.timeseries.state_dict()}
               if self.obs.timeseries is not None else {}),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output onto a freshly built sim.

        Order matters: tiers before the address space (the space's page
        table rebuild relies on byte accounting being restored
        elsewhere), and the space before the engine's region map (which
        re-points at the space's restored :class:`Region` objects so
        free paths observe one shared ``live`` flag).
        """
        self.now_ns = state["now_ns"]
        self._batches_processed = state["batches_processed"]
        self._epoch_index = state["epoch_index"]
        self._epoch_start_ns = state["epoch_start_ns"]
        self._phase_ns = dict(state["phase_ns"])
        self._events_consumed = state["events_consumed"]
        self.rng.bit_generator.state = state["rng"]
        self.ctx.rng.bit_generator.state = state["ctx_rng"]
        self.tiers.load_state(state["tiers"])
        self.space.load_state(state["space"])
        self._regions = {
            key: self.space.region_by_id(region_id)
            for key, region_id in state["regions"].items()
        }
        self.tlb.load_state(state["tlb"])
        self.migrator.load_state(state["migration"])
        self.metrics.load_state(state["metrics"])
        if self.sampler is not None and state["sampler"] is not None:
            self.sampler.load_state(state["sampler"])
        self.policy.load_state(state["policy"])
        self.obs.counters.load_state(state["counters"])
        if (self.faults is not None and state.get("faults") is not None
                and hasattr(self.faults, "load_state")):
            self.faults.load_state(state["faults"])
        if (self.obs.timeseries is not None
                and state.get("timeseries") is not None):
            self.obs.timeseries.load_state(state["timeseries"])
        self._resumed = True
        self._resume_accesses = self.metrics.total_accesses
        self._last_checkpoint_epoch = self._epoch_index

    # -- driver ------------------------------------------------------------------

    def _run_macro(self, events, skip: int, budget: float) -> None:
        """The engine loop: whole-array stages once per coalesced batch.

        ``macro_batch = 0`` coalesces at target 1 -- one workload event
        per batch.  The coalescer pulls ahead of processing by at most
        the pending group; ``_events_consumed`` counts only events
        folded into *processed* items, so checkpoints taken inside
        ``_process_batch`` describe a position the coalescer can
        deterministically restart from (fusion boundaries depend only
        on the stream from the restart point).
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
        for item in coalescer:
            self._events_consumed += item.events_fused
            event = item.event
            if isinstance(event, AllocEvent):
                self._handle_alloc(event)
            elif isinstance(event, FreeEvent):
                self._handle_free(event)
            else:
                self._process_batch(self._rebase_macro(event))
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
            events = self.workload.events(np.random.default_rng(self.seed + 2))
            self._run_macro(events, skip, budget)
        # Close the tail window so timelines always cover the full run,
        # even when the last interval is shorter than the period.
        if self.metrics.finalize(
            self.now_ns,
            rss_bytes=self.space.rss_bytes,
            fast_used_bytes=self.tiers.fast.used_bytes,
            policy_stats_fn=self.policy.stats,
        ):
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
            pebs = self.obs.counters.scope("pebs")
            for key, value in sampler_stats.items():
                pebs.gauge(key).set(value)
        self.metrics.publish(self.obs.counters)

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
