"""Hierarchical counter registry: counters, gauges, distributions.

Components register named instruments once (at bind/construction time)
and update them on their own hot paths; the registry serialises the
whole hierarchy into the ``observability`` section of
``SimResult.to_dict()``.  Names are ``/``-separated paths grouped by
owner -- ``ksampled/adaptations``, ``kmigrated/splits``,
``check/passes``, ``policy/<name>/...`` -- so exported runs from
different policies line up column-wise.

Three instrument kinds:

* :class:`Counter` -- monotonically increasing count (``inc``).  The
  value is assignable for test harnesses that reset state.
* :class:`Gauge` -- last-written value (``set``).
* :class:`Distribution` -- streaming count/sum/min/max over recorded
  observations (no buffering; mean is derived).

All instruments are plain attribute machines -- no locks, no callbacks
-- because the simulator is single-threaded per run; sweep workers each
own a private registry.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union


class Counter:
    """Monotonic count.  ``int`` values stay exact (no float drift)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Union[int, float] = 0

    def inc(self, n: Union[int, float] = 1) -> None:
        self.value += n

    def as_value(self) -> Union[int, float]:
        return self.value


class Gauge:
    """Last-set value (e.g. a queue depth or the current eHR)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def as_value(self) -> float:
        return self.value


class Distribution:
    """Streaming moments of recorded observations."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_value(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


Instrument = Union[Counter, Gauge, Distribution]


class CounterRegistry:
    """Get-or-create store of named instruments.

    Asking for an existing name with a different kind is an error --
    it would silently fork the metric.
    """

    def __init__(self):
        self._instruments: Dict[str, Instrument] = {}

    def _get_or_create(self, name: str, kind) -> Instrument:
        inst = self._instruments.get(name)
        if inst is None:
            inst = kind(name)
            self._instruments[name] = inst
        elif type(inst) is not kind:
            raise TypeError(
                f"instrument {name!r} already registered as "
                f"{type(inst).__name__}, not {kind.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def distribution(self, name: str) -> Distribution:
        return self._get_or_create(name, Distribution)

    def scope(self, prefix: str) -> "ScopedRegistry":
        """A view that prepends ``prefix/`` to every instrument name."""
        return ScopedRegistry(self, prefix)

    # -- introspection / serialisation -------------------------------------

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def names(self, prefix: str = "") -> list:
        return sorted(n for n in self._instruments if n.startswith(prefix))

    def as_dict(self, prefix: str = "") -> Dict[str, Any]:
        """Flat ``{name: value}`` (distributions expand to stat dicts)."""
        return {
            name: self._instruments[name].as_value()
            for name in self.names(prefix)
        }


class ScopedRegistry:
    """Prefix view over a :class:`CounterRegistry` (shared storage)."""

    def __init__(self, registry: CounterRegistry, prefix: str):
        self.registry = registry
        self.prefix = prefix.rstrip("/")

    def _name(self, name: str) -> str:
        return f"{self.prefix}/{name}" if self.prefix else name

    def counter(self, name: str) -> Counter:
        return self.registry.counter(self._name(name))

    def gauge(self, name: str) -> Gauge:
        return self.registry.gauge(self._name(name))

    def distribution(self, name: str) -> Distribution:
        return self.registry.distribution(self._name(name))

    def scope(self, prefix: str) -> "ScopedRegistry":
        return ScopedRegistry(self.registry, self._name(prefix))

    def as_dict(self) -> Dict[str, Any]:
        return self.registry.as_dict(self.prefix + "/" if self.prefix else "")

