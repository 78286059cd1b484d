"""``repro.obs``: the simulator's structured observability layer.

Three cooperating pieces travel with every simulation:

* :class:`~repro.obs.tracer.Tracer` -- typed, ring-buffered decision
  events (promotions, splits, threshold moves, cooling, period changes,
  fault injections) stamped with virtual time; disabled by default and
  near-free when disabled;
* :class:`~repro.obs.counters.CounterRegistry` -- hierarchical
  counters/gauges/distributions that daemons and policies register
  into; its end-of-run values are serialised into
  ``SimResult.to_dict()["observability"]["counters"]``;
* :class:`~repro.obs.timeseries.MetricsTimeSeries` -- the run's one
  per-epoch series: the engine's window, the policy's ``stats()`` and
  the registry (counter deltas, gauge values) at every epoch close.  It
  is recorded on every run by the
  :class:`~repro.sim.metrics.MetricsCollector` and serialised as
  ``SimResult.to_dict()["metrics"]["series"]``.

:class:`Observability` bundles the tracer and the registry; the engine
creates one per run and hands it to every component through
:class:`~repro.policies.base.PolicyContext`.
Exporters (JSONL, Chrome ``trace_event`` for Perfetto, ASCII) live in
:mod:`repro.obs.export`; OpenMetrics text over a sweep's queue in
:mod:`repro.obs.openmetrics`.  Live sweep progress has no store here:
workers write it into their job's queue row
(:mod:`repro.service.queue`).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.counters import (
    Counter,
    CounterRegistry,
    Distribution,
    Gauge,
    ScopedRegistry,
)
from repro.obs.timeseries import MetricsTimeSeries
from repro.obs.tracer import (
    CATEGORIES,
    DEBUG,
    INFO,
    NULL_TRACER,
    WARN,
    TraceEvent,
    Tracer,
    level_name,
    make_tracer,
    parse_level,
)

__all__ = [
    "CATEGORIES", "Counter", "CounterRegistry", "DEBUG", "Distribution",
    "Gauge", "INFO", "MetricsTimeSeries", "NULL_TRACER", "Observability",
    "ScopedRegistry", "TraceEvent", "Tracer", "WARN", "level_name",
    "make_tracer", "parse_level",
]


class Observability:
    """One run's tracer + counter registry (and their serialisation)."""

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        counters: Optional[CounterRegistry] = None,
    ):
        self.tracer = tracer if tracer is not None else Tracer()
        self.counters = counters if counters is not None else CounterRegistry()

    @classmethod
    def traced(cls, level="info", events=None, capacity: int = 1 << 16
               ) -> "Observability":
        """Observability with an *enabled* tracer (CLI convenience)."""
        return cls(tracer=make_tracer(level=level, events=events,
                                      capacity=capacity))

    def snapshot(self) -> Dict[str, Any]:
        """The ``observability`` section of ``SimResult.to_dict()``.

        Counters are the payload; the tracer contributes only its
        summary (events stay in the tracer for exporters), so results
        remain small and cached runs stay comparable to live ones.
        """
        return {
            "counters": self.counters.as_dict(),
            "tracer": self.tracer.stats(),
        }
