"""Policy interface: what a tiering system can see and do.

A policy never reads the raw access trace.  It observes:

* **PEBS samples** (``uses_pebs = True``): the engine runs a
  :class:`repro.pebs.sampler.PEBSSampler` and attaches the sampled
  records to each observation;
* **hint faults**: the policy marks pages in ``protection_mask``; when
  the application touches a protected page, the engine charges the
  fault cost into the runtime and calls :meth:`on_hint_faults` -- the
  handler may migrate on the spot (returning critical-path ns), which
  is precisely the fault-path promotion the paper criticises (§2.2);
* **reference bits**: ``ctx.space.ref_bit`` is set by the engine for
  touched pages; scanning policies read-and-clear it during
  :meth:`on_tick` and pay a modelled scan cost.

All mutation goes through ``ctx.migrator`` so traffic and latency are
accounted uniformly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.mem.address_space import AddressSpace
from repro.mem.migration import MigrationEngine
from repro.mem.pages import SUBPAGES_PER_HUGE
from repro.mem.tiers import FASTEST_TIER, TieredMemory
from repro.mem.tlb import TLB
from repro.obs import NULL_TRACER, Observability
from repro.pebs.events import AccessBatch
from repro.pebs.sampler import PEBSSampler, SampleBatch


def scaled_headroom(capacity_bytes: int, fraction: float) -> int:
    """Free-space target with a scale floor.

    At paper scale a 2% headroom on a multi-GB fast tier is tens of huge
    pages; at simulation scale 2% of a small DRAM can round to less than
    one huge page, deadlocking promotion and starving short-lived
    allocations.  The floor keeps the headroom at least a couple of huge
    pages (capped at 15% of DRAM for tiny configurations).
    """
    floor = min(2 * 1024 * 1024, int(capacity_bytes * 0.15))
    return max(int(capacity_bytes * fraction), floor)


@dataclass(frozen=True)
class Traits:
    """Qualitative traits of a policy: one row of the paper's Table 1."""

    mechanism: str
    subpage_tracking: bool
    promotion_metric: str
    demotion_metric: str
    threshold_criteria: str
    critical_path_migration: str
    page_size_handling: str


@dataclass
class PolicyContext:
    """Everything a bound policy may touch."""

    space: AddressSpace
    tiers: TieredMemory
    migrator: MigrationEngine
    tlb: TLB
    machine: "object"  # MachineSpec; typed loosely to avoid a sim import cycle
    rng: np.random.Generator
    sampler: Optional[PEBSSampler] = None
    hint_fault_ns: float = 1_800.0
    #: Per-run observability: tracer (disabled by default) + counter
    #: registry; the engine shares one across every bound component.
    obs: Observability = field(default_factory=Observability)


@dataclass
class BatchObservation:
    """Per-batch information the engine hands to a policy.

    ``unique_vpns``/``counts`` are computed lazily via :meth:`unique`:
    sample-based policies never look at them, so the engine no longer
    pays an unconditional ``np.unique`` per batch.  Constructing with
    explicit arrays (as some tests do) still works and skips the
    deferred computation.
    """

    batch: AccessBatch
    samples: Optional[SampleBatch] = None
    now_ns: float = 0.0
    batch_wall_ns: float = 0.0
    unique_vpns: Optional[np.ndarray] = None
    counts: Optional[np.ndarray] = None

    def unique(self) -> "tuple[np.ndarray, np.ndarray]":
        """Unique accessed vpns and their access counts (cached)."""
        if self.unique_vpns is None:
            self.unique_vpns, self.counts = np.unique(
                self.batch.vpn, return_counts=True
            )
        return self.unique_vpns, self.counts


class TieringPolicy(abc.ABC):
    """Base class for all tiering systems."""

    #: Registry / display name; subclasses override.
    name: str = "abstract"
    #: Table 1 row; subclasses override.
    traits: Traits = Traits(
        mechanism="-",
        subpage_tracking=False,
        promotion_metric="-",
        demotion_metric="-",
        threshold_criteria="-",
        critical_path_migration="-",
        page_size_handling="-",
    )
    #: When True the engine attaches PEBS samples to observations.
    uses_pebs: bool = False
    #: Live wiring the checkpoint walk leaves out (``repro.snapshot``):
    #: every other instance attribute of a policy is checkpointed.
    _CHECKPOINT_EXCLUDE = frozenset({"ctx", "tracer", "counters"})

    def __init__(self):
        self.ctx: Optional[PolicyContext] = None
        #: Optional per-vpn protection mask for hint-fault tracking.
        self.protection_mask: Optional[np.ndarray] = None
        #: Bound at :meth:`bind`; usable unbound so tests constructing
        #: policies without an engine keep working.
        self.tracer = NULL_TRACER
        self.counters = None

    # -- lifecycle -----------------------------------------------------------

    def bind(self, ctx: PolicyContext) -> None:
        """Attach to a machine.  Subclasses should call super().bind()."""
        self.ctx = ctx
        self.tracer = ctx.obs.tracer
        self.counters = ctx.obs.counters.scope(f"policy/{self.name}")
        ctx.space.add_unmap_listener(self.on_unmap)

    def sampler_config(self):
        """Sampler configuration for ``uses_pebs`` policies (or None)."""
        return None

    # -- allocation placement --------------------------------------------------

    def choose_alloc_tier(self, nbytes: int) -> int:
        """Preferred tier index for a fresh allocation (fastest-first by
        default).

        The preference is stated once per region; the address space
        still falls back through the slower tiers when this one fills,
        so a large region fills the remaining fast-tier space first and
        spills downward -- the Linux local-node-first allocation
        behaviour.
        """
        return FASTEST_TIER

    def on_region_alloc(self, region) -> None:
        """A region was allocated and mapped (policy may pin/track it)."""

    # -- observation hooks -------------------------------------------------------

    def on_batch(self, obs: BatchObservation) -> float:
        """Observe one batch; return extra critical-path ns (default 0)."""
        return 0.0

    def on_hint_faults(self, vpns: np.ndarray) -> float:
        """Handle hint faults on protected pages; return critical ns."""
        return 0.0

    def on_tick(self, now_ns: float) -> None:
        """Background daemon hook, called once per batch with sim time."""

    def on_unmap(self, base_vpn: int, num_vpns: int) -> None:
        """A virtual range was freed; clear any per-page policy state."""

    def on_demand_map(self, vpns: np.ndarray) -> None:
        """Base pages were demand-mapped on first touch after a split
        freed them; policies tracking per-page state may seed it here."""

    # -- reporting ----------------------------------------------------------------

    def cpu_contention_factor(self) -> float:
        """Runtime multiplier for service threads competing with the app.

        The default policy costs nothing; HeMem's always-on sampling
        thread returns > 1 when the application saturates all cores
        (§6.2.1 "high CPU usage (~100%) of the sampling thread").
        """
        return 1.0

    def stats(self) -> Dict[str, float]:
        """Policy values kept outside the counter registry, recorded in
        every series row and as ``SimResult.policy_stats``.

        Default: none.  What a policy registers into its scoped counter
        registry (``policy/<name>/...``) is serialised with the registry
        and must not be returned here as well.
        """
        return {}

    # -- helpers shared by subclasses ----------------------------------------------

    def _ensure_protection_mask(self) -> np.ndarray:
        if self.protection_mask is None:
            self.protection_mask = np.zeros(self.ctx.space.num_vpns, dtype=bool)
        return self.protection_mask

    def fast_free_fraction(self) -> float:
        fast = self.ctx.tiers.fast
        return fast.free_bytes / fast.capacity_bytes

    def demote_target(self) -> int:
        """Tier index demotions from the fastest tier land on.

        One step below the fastest tier (tier 1 on every machine with at
        least two tiers); deeper overflow is handled by the migration
        engine's demotion cascade, so policies stay two-tier-shaped even
        on N-tier machines.
        """
        target = self.ctx.tiers.demote_target(FASTEST_TIER)
        return FASTEST_TIER if target is None else target

    def headroom_bytes(self, fraction: float) -> int:
        """Scale-floored free-space target (see :func:`scaled_headroom`)."""
        return scaled_headroom(self.ctx.tiers.fast.capacity_bytes, fraction)

    # -- migration mechanisms shared by the policy zoo ---------------------------
    #
    # The compared systems differ in how they classify pages and where
    # they set thresholds; they move pages with the same primitives.
    # A policy supplies the ranking and the admission rule and calls
    # these for the moves.

    def fast_heads(self, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Sorted unique heads of the fastest tier's mappings, limited to
        vpns where ``mask`` (a per-vpn bool array) holds when given."""
        space = self.ctx.space
        fast = space.page_tier == FASTEST_TIER
        if mask is not None:
            fast &= mask
        return np.unique(space.mapping_heads(np.flatnonzero(fast)))

    def demote_in_order(self, vpns: np.ndarray, nbytes_needed: int) -> int:
        """Demote mappings one tier down, in ``vpns`` order, until
        ``nbytes_needed`` bytes are freed; returns the count moved.

        Entries no longer on the fastest tier are skipped, so ``vpns``
        may hold several subpages of one huge mapping: the first moves
        the whole mapping and the rest are passed over.
        """
        space = self.ctx.space
        migrator = self.ctx.migrator
        dst = self.demote_target()
        freed = moved = 0
        for vpn in vpns.tolist():
            if freed >= nbytes_needed:
                break
            if space.page_tier[vpn] != FASTEST_TIER:
                continue
            freed += space.mapping_bytes(vpn)
            migrator.migrate_page(vpn, dst, critical=False)
            moved += 1
        return moved

    def promote_with_room(
        self, vpn: int, make_room: Optional[Callable[[int], Any]] = None
    ) -> bool:
        """Promote the mapping headed by ``vpn`` off the critical path.

        When it does not fit, ``make_room(nbytes)`` gets one chance to
        free space; returns False, moving nothing, if it still does not
        fit.
        """
        nbytes = self.ctx.space.mapping_bytes(vpn)
        fast = self.ctx.tiers.fast
        if not fast.can_alloc(nbytes) and make_room is not None:
            make_room(nbytes)
        if not fast.can_alloc(nbytes):
            return False
        self.ctx.migrator.migrate_page(vpn, FASTEST_TIER, critical=False)
        return True

    def headroom_deficit(self, fraction: float) -> int:
        """Bytes the fastest tier lacks to reach its free-space target
        (:meth:`headroom_bytes`); 0 when the target holds."""
        return max(0, self.headroom_bytes(fraction) - self.ctx.tiers.fast.free_bytes)

    def protect_scan_window(self, pool: np.ndarray, fraction: float) -> None:
        """Arm hint faults on the next window of ``pool``.

        The window covers ``fraction`` of the pool (at least a huge
        page's worth of vpns), starts at the policy's ``_scan_cursor``
        and wraps around the pool's end.  An empty pool arms nothing.
        """
        if len(pool) == 0:
            return
        window = max(SUBPAGES_PER_HUGE, int(len(pool) * fraction))
        start = self._scan_cursor % len(pool)
        take = pool[start : start + window]
        if len(take) < window:
            take = np.concatenate([take, pool[: window - len(take)]])
        self._scan_cursor = (start + window) % len(pool)
        self.protection_mask[take] = True

    def unprotect_mapping(self, vpn: int) -> int:
        """Disarm the hint fault on the whole mapping covering ``vpn``
        (a huge page faults once for all 512 subpages); returns its
        head."""
        if self.ctx.space.page_huge[vpn]:
            head = (vpn >> 9) << 9
            self.protection_mask[head : head + SUBPAGES_PER_HUGE] = False
            return head
        self.protection_mask[vpn] = False
        return vpn
