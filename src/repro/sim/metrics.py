"""Run metrics: totals and the per-epoch series the paper's figures plot.

The collector closes an epoch roughly every ``timeline_interval_ns`` of
virtual time and records one row of its
:class:`~repro.obs.timeseries.MetricsTimeSeries` there: the window's
accesses and fast-tier hits (Fig. 11's throughput and hit ratio), the
RSS (Fig. 11's Btree bloat discussion), whatever the policy reports via
``stats()`` -- MEMTIS its hot/warm/cold set sizes (Fig. 9), HeMem its
classified-hot size (Fig. 2) -- and the run's counter registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.timeseries import MetricsTimeSeries


@dataclass
class MetricsCollector:
    """Accumulates totals and the per-epoch series."""

    timeline_interval_ns: float = 20e6
    total_accesses: int = 0
    total_fast_hits: int = 0
    mem_ns: float = 0.0
    compute_ns: float = 0.0
    walk_ns: float = 0.0
    fault_ns: float = 0.0
    critical_policy_ns: float = 0.0
    contention_extra_ns: float = 0.0
    num_hint_faults: int = 0
    series: MetricsTimeSeries = field(default_factory=MetricsTimeSeries)

    _window_accesses: int = 0
    _window_fast_hits: int = 0
    _window_start_ns: float = 0.0

    @property
    def runtime_ns(self) -> float:
        return (
            self.mem_ns
            + self.compute_ns
            + self.walk_ns
            + self.fault_ns
            + self.critical_policy_ns
            + self.contention_extra_ns
        )

    @property
    def fast_hit_ratio(self) -> float:
        if self.total_accesses == 0:
            return 0.0
        return self.total_fast_hits / self.total_accesses

    def record_batch(
        self,
        accesses: int,
        fast_hits: int,
        mem_ns: float,
        compute_ns: float,
        walk_ns: float,
        fault_ns: float,
        critical_policy_ns: float,
        contention_extra_ns: float,
        hint_faults: int,
    ) -> None:
        self.total_accesses += accesses
        self.total_fast_hits += fast_hits
        self.mem_ns += mem_ns
        self.compute_ns += compute_ns
        self.walk_ns += walk_ns
        self.fault_ns += fault_ns
        self.critical_policy_ns += critical_policy_ns
        self.contention_extra_ns += contention_extra_ns
        self.num_hint_faults += hint_faults
        self._window_accesses += accesses
        self._window_fast_hits += fast_hits

    def maybe_snapshot(self, now_ns) -> bool:
        """True once the interval since the last row has elapsed: the
        caller then gathers the row's inputs and calls :meth:`record_row`.
        The engine asks once per batch, so this is one compare."""
        return now_ns - self._window_start_ns >= self.timeline_interval_ns

    def tail_due(self, now_ns) -> bool:
        """True when the run's tail needs a closing row.

        Without one, a final window shorter than the snapshot period
        silently vanished and series stopped before the run did
        (visible as Fig. 9/11 curves ending early).  A closing row is
        due whenever the tail window saw accesses -- or when the whole
        run was shorter than one period and the series would otherwise
        be empty.
        """
        if len(self.series) and (now_ns <= self._window_start_ns
                                 or self._window_accesses == 0):
            return False
        return now_ns > 0

    def record_row(self, now_ns, rss_bytes, fast_used_bytes, policy_stats,
                   registry) -> None:
        """Append the window's series row and start the next window.

        ``policy_stats`` is the policy's ``stats()`` and ``registry`` the
        run's counter registry, both sampled into the row.
        """
        self.series.record(now_ns, self._window_accesses,
                           self._window_fast_hits, rss_bytes,
                           fast_used_bytes, policy_stats, registry)
        self._window_start_ns = now_ns
        self._window_accesses = 0
        self._window_fast_hits = 0
