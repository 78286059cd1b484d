"""Per-epoch series: one row per closed epoch of a run.

End-of-run counts answer *what happened*; MEMTIS's argument is about
*when* -- the hot set tracking the fast tier (Fig. 9), throughput per
window around a split (Fig. 11), thresholds adapting.
:class:`MetricsTimeSeries` holds that trajectory.  The run's
:class:`~repro.sim.metrics.MetricsCollector` records one row at every
epoch close, including the run's tail, and keeps every row.  A row
carries:

* the engine's window: the virtual time of the close, the accesses and
  fast-tier hits since the previous row, the RSS and the fast-tier
  bytes in use (window length, throughput and hit ratio derive from
  these);
* the policy's ``stats()`` at the close (``policy`` columns);
* the run's :class:`~repro.obs.counters.CounterRegistry`: counters as
  *deltas* since the previous row, gauges as their value, distributions
  as their observation-*count* delta (``counters`` columns, with each
  instrument's kind in ``kinds``).

Storage is columnar: one list per field and per column.  A column that
first appears mid-run is zero-backfilled, and a row that leaves a known
column out records 0 there, so every column spans every row.

The series is purely observational: recording reads the registry and
the policy and writes no simulation state.  An epoch checkpoint
(:mod:`repro.snapshot.walk`) saves it with the per-counter values the
deltas are taken against, so ``run(N)`` and ``run(k) -> save -> load ->
run(N-k)`` produce identical series.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Union

from repro.obs.counters import Counter, CounterRegistry, Distribution

Number = Union[int, float]

#: The engine's fields of one row.
ROW_FIELDS = ("now_ns", "window_accesses", "window_fast_hits", "rss_bytes",
              "fast_used_bytes")


def _append(columns: Dict[str, List[Number]], values: Mapping[str, Number],
            rows: int) -> None:
    """Append one row of ``values`` to ``columns`` (``rows`` before it)."""
    for name, value in values.items():
        column = columns.get(name)
        if column is None:
            column = columns[name] = [0] * rows
        column.append(value)
    for column in columns.values():
        if len(column) == rows:
            column.append(0)


class MetricsTimeSeries:
    """Columnar rows of one run, one per closed epoch."""

    def __init__(self):
        self.now_ns: List[float] = []
        self.window_accesses: List[int] = []
        self.window_fast_hits: List[int] = []
        self.rss_bytes: List[int] = []
        self.fast_used_bytes: List[int] = []
        #: ``stats()`` key -> value per row.
        self.policy: Dict[str, List[Number]] = {}
        #: Registry instrument -> delta (counters, distribution counts)
        #: or value (gauges) per row.
        self.counters: Dict[str, List[Number]] = {}
        #: Registry instrument -> ``counter``/``gauge``/``distribution``.
        self.kinds: Dict[str, str] = {}
        #: Last absolute value seen per counter/distribution, for deltas.
        self._last: Dict[str, Number] = {}

    def __len__(self) -> int:
        return len(self.now_ns)

    # -- recording ---------------------------------------------------------

    def record(self, now_ns: float, window_accesses: int,
               window_fast_hits: int, rss_bytes: int, fast_used_bytes: int,
               policy_stats: Mapping[str, Number],
               registry: CounterRegistry) -> None:
        """Append one row."""
        rows = len(self)
        self.now_ns.append(now_ns)
        self.window_accesses.append(window_accesses)
        self.window_fast_hits.append(window_fast_hits)
        self.rss_bytes.append(rss_bytes)
        self.fast_used_bytes.append(fast_used_bytes)
        _append(self.policy, policy_stats, rows)
        samples: Dict[str, Number] = {}
        for name in registry.names():
            inst = registry.get(name)
            if isinstance(inst, Counter):
                kind = "counter"
                value = inst.value
                samples[name] = value - self._last.get(name, 0)
                self._last[name] = value
            elif isinstance(inst, Distribution):
                kind = "distribution"
                count = inst.count
                samples[name] = count - self._last.get(name, 0)
                self._last[name] = count
            else:
                kind = "gauge"
                samples[name] = inst.value
            self.kinds.setdefault(name, kind)
        _append(self.counters, samples, rows)

    # -- derived window views ----------------------------------------------

    def window_ns(self) -> List[float]:
        """Virtual length of each row's window."""
        starts = [0.0] + self.now_ns[:-1]
        return [now - start for start, now in zip(starts, self.now_ns)]

    def throughput_mops(self) -> List[float]:
        """Window throughput in simulated mega-accesses per second."""
        return [
            accesses / ns * 1e3 if ns > 0 else 0.0
            for accesses, ns in zip(self.window_accesses, self.window_ns())
        ]

    def hit_ratio(self) -> List[float]:
        """Fast-tier hit ratio of each window."""
        return [
            hits / accesses if accesses else 0.0
            for hits, accesses in zip(self.window_fast_hits,
                                      self.window_accesses)
        ]

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The ``metrics.series`` block of a result dict."""
        data: Dict[str, Any] = {
            field: list(getattr(self, field)) for field in ROW_FIELDS
        }
        data["policy"] = {k: list(v) for k, v in self.policy.items()}
        data["counters"] = {k: list(v) for k, v in self.counters.items()}
        data["kinds"] = dict(self.kinds)
        return data
