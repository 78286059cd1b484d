"""Interval sampling of the access stream, PEBS-style.

PEBS delivers one record every N occurrences of a configured event.
MEMTIS programs two counters (§4.1.1): retired LLC load misses at an
initial period of 200 and retired stores at 100,000.  The sampler below
reproduces that contract exactly over the simulated access stream,
including the bounded sample buffer: when the consumer (`ksampled`)
cannot drain fast enough, excess records are dropped and counted, the
same observable behaviour as a PEBS buffer overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.tracer import NULL_TRACER, WARN, Tracer
from repro.pebs.events import AccessBatch

#: Paper defaults (§4.1.1).
DEFAULT_LOAD_PERIOD = 200
DEFAULT_STORE_PERIOD = 100_000


@dataclass
class SamplerConfig:
    """Sampling periods and buffer bound."""

    load_period: int = DEFAULT_LOAD_PERIOD
    store_period: int = DEFAULT_STORE_PERIOD
    buffer_capacity: int = 1 << 16

    def __post_init__(self):
        if self.load_period <= 0 or self.store_period <= 0:
            raise ValueError("sampling periods must be positive")
        if self.buffer_capacity <= 0:
            raise ValueError("buffer capacity must be positive")


@dataclass
class SampleBatch:
    """Sampled records extracted from one access batch."""

    vpn: np.ndarray
    is_store: np.ndarray

    def __len__(self) -> int:
        return int(self.vpn.shape[0])

    @classmethod
    def empty(cls) -> "SampleBatch":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))


class PEBSSampler:
    """Every-Nth-event sampler with independent load/store counters."""

    #: Live wiring the checkpoint walk leaves out (``repro.snapshot``).
    _CHECKPOINT_EXCLUDE = frozenset({"tracer", "fault_hook"})

    def __init__(self, config: SamplerConfig = None, tracer: Tracer = None):
        self.config = config or SamplerConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._load_phase = 0  # events seen since last load sample
        self._store_phase = 0
        self.total_samples = 0
        self.total_events = 0
        self.dropped_samples = 0
        #: Optional fault-injection hook (``repro.check.faults``): maps
        #: ``(vpn, is_store) -> (vpn, is_store)``, dropping/duplicating
        #: records after every-Nth selection and buffer accounting.
        self.fault_hook = None

    @property
    def load_period(self) -> int:
        return self.config.load_period

    @property
    def store_period(self) -> int:
        return self.config.store_period

    def set_periods(self, load_period: int, store_period: int) -> None:
        """Reprogram the counters (the `__perf_event_period` path)."""
        if load_period <= 0 or store_period <= 0:
            raise ValueError("sampling periods must be positive")
        if self.tracer.enabled_for("period"):
            self.tracer.emit(
                "period", "period_adjust",
                old_load=self.config.load_period,
                old_store=self.config.store_period,
                new_load=int(load_period), new_store=int(store_period),
            )
        self.config.load_period = int(load_period)
        self.config.store_period = int(store_period)
        self._load_phase %= self.config.load_period
        self._store_phase %= self.config.store_period

    def sample(self, batch: AccessBatch) -> SampleBatch:
        """Extract PEBS records from ``batch`` (absolute vpns expected).

        Each counter samples every ``period``-th event of its kind: the
        first at ``period - 1 - phase`` among that kind's positions, then
        every ``period`` after it, a strided slice.  A kind whose first
        sample lies past the batch costs only its count.
        """
        n = len(batch)
        self.total_events += n
        if n == 0:
            return SampleBatch.empty()

        config = self.config
        load_period, store_period = config.load_period, config.store_period
        store_mask = batch.is_store
        n_store = int(np.count_nonzero(store_mask))
        n_load = n - n_store
        first_load = load_period - 1 - self._load_phase
        first_store = store_period - 1 - self._store_phase
        self._load_phase = (self._load_phase + n_load) % load_period
        self._store_phase = (self._store_phase + n_store) % store_period

        # Each kind's picks are ascending; merge only when both sampled.
        loads = first_load < n_load
        if loads:
            positions = np.flatnonzero(~store_mask)[first_load::load_period]
        if first_store < n_store:
            store_picks = np.flatnonzero(store_mask)[first_store::store_period]
            if loads:
                positions = np.concatenate([positions, store_picks])
                positions.sort()
            else:
                positions = store_picks
        elif not loads:
            positions = np.empty(0, dtype=np.intp)

        if len(positions) > self.config.buffer_capacity:
            # PEBS buffer overflow: the oldest records beyond capacity drop.
            dropped = len(positions) - self.config.buffer_capacity
            self.dropped_samples += dropped
            positions = positions[-self.config.buffer_capacity :]
            if self.tracer.enabled_for("sample", WARN):
                self.tracer.emit("sample", "buffer_overflow", WARN,
                                 dropped=dropped)

        vpn = batch.vpn[positions]
        is_store = batch.is_store[positions]
        if self.fault_hook is not None:
            vpn, is_store = self.fault_hook(vpn, is_store)
        self.total_samples += len(vpn)
        return SampleBatch(vpn, is_store)
