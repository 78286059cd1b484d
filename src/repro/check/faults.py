"""Deterministic, seed-driven fault injection.

Three injectors, matching the failure modes a real MEMTIS deployment
sees (§6.3 discusses PEBS loss and daemon scheduling jitter; any tiered
system sees transient allocation failure under pressure):

``drop`` / ``dup``
    Per-record Bernoulli drop and duplication of PEBS samples, applied
    inside :meth:`PEBSSampler.sample` after every-Nth selection --
    models lost and replayed perf records.
``alloc``
    Transient fast-tier allocation outages: whole access batches during
    which the DRAM tier advertises zero available bytes.  The gate only
    affects *admission* (``can_alloc`` / ``avail_bytes``); committed
    ``alloc()`` calls still move real bytes, so check-then-act callers
    stay consistent.
``tick``
    Delayed ``kmigrated`` ticks: whole batches during which the
    engine's ``policy.on_tick`` is suppressed, so migration work
    arrives late and in bursts.

All draws come from a private :class:`numpy.random.Generator` seeded
from :class:`FaultConfig.seed`, independent of the workload RNG -- a
fixed ``(workload seed, fault seed)`` pair replays the identical fault
schedule, which is what makes chaos tests assert bit-identical
:class:`SimResult`\\ s.

Batch-scoped faults are frozen once per batch in :meth:`begin_batch`:
every query within a batch sees the same answer, so a caller that
checks ``avail_bytes`` and then allocates cannot be bitten by a
mid-batch coin flip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.obs.tracer import NULL_TRACER, WARN


class SimulationKilled(RuntimeError):
    """Raised by the kill-at-epoch injector to abort a run mid-flight.

    An ordinary :class:`Exception` subclass on purpose: the sweep
    executor converts it into a failed cell attempt, which is exactly
    how a worker crash surfaces -- the retry path then resumes from the
    last epoch checkpoint.
    """


@dataclass(frozen=True)
class FaultConfig:
    """Probabilities for each injector (0.0 disables it)."""

    seed: int = 0
    #: Per-record probability a PEBS sample is silently dropped.
    drop_sample_prob: float = 0.0
    #: Per-record probability a PEBS sample is delivered twice.
    dup_sample_prob: float = 0.0
    #: Per-batch probability the fast tier refuses admission.
    alloc_fail_prob: float = 0.0
    #: Per-batch probability the policy tick is delayed to a later batch.
    tick_delay_prob: float = 0.0
    #: Abort the run (raise :class:`SimulationKilled`) when this many
    #: epochs have completed -- a deterministic "worker died here" for
    #: checkpoint/resume chaos tests.  Consumes no RNG draws, so the
    #: fault schedule with and without a kill is identical.
    kill_at_epoch: Optional[int] = None

    def __post_init__(self):
        for name in ("drop_sample_prob", "dup_sample_prob",
                     "alloc_fail_prob", "tick_delay_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p!r}")
        if self.kill_at_epoch is not None and self.kill_at_epoch < 1:
            raise ValueError(
                f"kill_at_epoch must be >= 1, got {self.kill_at_epoch!r}"
            )

    @property
    def active(self) -> bool:
        return (self.drop_sample_prob > 0 or self.dup_sample_prob > 0
                or self.alloc_fail_prob > 0 or self.tick_delay_prob > 0
                or self.kill_at_epoch is not None)


class FaultInjector:
    """Draws and applies the fault schedule for one simulation run."""

    #: Left out of checkpoints (``repro.snapshot``): the tracer is live
    #: wiring, and the config belongs to the run that resumes -- a
    #: resume may drop the kill that stopped the checkpointed run.
    _CHECKPOINT_EXCLUDE = frozenset({"tracer", "config"})

    def __init__(self, config: FaultConfig):
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.tracer = NULL_TRACER
        self._alloc_blocked = False
        self._tick_suppressed = False
        self.stats: Dict[str, int] = {
            "dropped_samples": 0,
            "duplicated_samples": 0,
            "alloc_outage_batches": 0,
            "delayed_ticks": 0,
            "kills": 0,
        }

    # -- wiring ------------------------------------------------------------

    def bind(self, *, tiers=None, sampler=None, tracer=None) -> None:
        """Attach the injectors to the structures they perturb.

        ``tracer`` (optional) receives a WARN-level ``fault``-category
        event per injected fault, so chaos runs leave a trace-event
        footprint alongside the stats counters.
        """
        if tracer is not None:
            self.tracer = tracer
        if tiers is not None and self.config.alloc_fail_prob > 0:
            tiers.fast.fault_gate = self.fast_alloc_blocked
        if sampler is not None and (self.config.drop_sample_prob > 0
                                    or self.config.dup_sample_prob > 0):
            sampler.fault_hook = self.perturb_records

    # -- batch-scoped pulses -----------------------------------------------

    def begin_batch(self) -> None:
        """Freeze this batch's outage/delay pulses (one draw each)."""
        if self.config.alloc_fail_prob > 0:
            self._alloc_blocked = bool(
                self.rng.random() < self.config.alloc_fail_prob)
            if self._alloc_blocked:
                self.stats["alloc_outage_batches"] += 1
                self.tracer.emit(
                    "fault", "alloc_outage", level=WARN,
                    batches=self.stats["alloc_outage_batches"],
                )
        if self.config.tick_delay_prob > 0:
            self._tick_suppressed = bool(
                self.rng.random() < self.config.tick_delay_prob)

    def fast_alloc_blocked(self) -> bool:
        """Tier fault gate: is the fast tier refusing admission right now?"""
        return self._alloc_blocked

    def on_epoch(self, epoch_index: int) -> None:
        """Engine hook fired after each epoch closes (checkpoint taken).

        Raises :class:`SimulationKilled` exactly at ``kill_at_epoch``.
        The engine captures the epoch's checkpoint *before* calling this,
        so a killed run always has a checkpoint at the kill epoch to
        resume from; restored runs are already past it and do not re-die.
        """
        if (self.config.kill_at_epoch is not None
                and epoch_index == self.config.kill_at_epoch):
            self.stats["kills"] += 1
            self.tracer.emit("fault", "kill", level=WARN, epoch=epoch_index)
            raise SimulationKilled(
                f"fault injection: run killed at epoch {epoch_index}"
            )

    def suppress_tick(self) -> bool:
        """Engine hook: should this batch's policy tick be delayed?"""
        if self._tick_suppressed:
            self.stats["delayed_ticks"] += 1
            self.tracer.emit(
                "fault", "delayed_tick", level=WARN,
                total=self.stats["delayed_ticks"],
            )
            return True
        return False

    # -- per-record sample perturbation ------------------------------------

    def perturb_records(
        self, vpn: np.ndarray, is_store: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Drop and duplicate sampled records (order-preserving).

        Duplicates are emitted adjacent to the original, matching a
        replayed perf record; drops are applied first so a record is
        never both dropped and duplicated.
        """
        n = len(vpn)
        if n == 0:
            return vpn, is_store
        if self.config.drop_sample_prob > 0:
            keep = self.rng.random(n) >= self.config.drop_sample_prob
            ndrop = int(n - np.count_nonzero(keep))
            if ndrop:
                self.stats["dropped_samples"] += ndrop
                self.tracer.emit(
                    "fault", "sample_drop", level=WARN, records=ndrop,
                )
            vpn, is_store = vpn[keep], is_store[keep]
            n = len(vpn)
            if n == 0:
                return vpn, is_store
        if self.config.dup_sample_prob > 0:
            dup = self.rng.random(n) < self.config.dup_sample_prob
            ndup = int(np.count_nonzero(dup))
            if ndup:
                self.stats["duplicated_samples"] += ndup
                self.tracer.emit(
                    "fault", "sample_dup", level=WARN, records=ndup,
                )
                # repeat(1 + dup) keeps each duplicate adjacent to its source
                reps = dup.astype(np.int64) + 1
                vpn = np.repeat(vpn, reps)
                is_store = np.repeat(is_store, reps)
        return vpn, is_store
