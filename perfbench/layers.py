"""Per-layer host timing, recorded from outside the program.

A traced rep wraps public methods of the objects the workload built --
the simulation's TLB, PEBS sampler, address space, cost model, metrics
collector, migration engine, policy and MEMTIS daemons, the sweep's
result cache and the service queue -- as instance attributes.  Each
call records a span (name, start, end, parent) in memory; nothing under
``src/`` changes, and the wrappers die with the objects.

A layer's *busy* time is the summed duration of its spans (a span nested
inside a span of the same name -- ``migrate_many`` recursing through the
demotion cascade -- is not counted twice); its *self* time is busy time
minus the time covered by its child spans.  Self times of all layers sum
to the duration of the root spans, so they account for the traced wall.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List

#: Migration-engine entry points policies call (``migrate_page``
#: dispatches to ``migrate_base``/``migrate_huge`` and is not a layer).
MIGRATION_OPS = ("migrate_base", "migrate_huge", "migrate_many",
                 "split_huge", "collapse_huge")
#: Policy hooks the engine calls once per batch (hint faults: on demand).
POLICY_HOOKS = ("on_batch", "on_tick", "on_hint_faults")


class SpanRecorder:
    """In-memory span store shared by every wrapper of one traced rep."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.start_ns: List[int] = []
        self.end_ns: List[int] = []
        self.parent: List[int] = []
        self._stack: List[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end_ns.append(0)
        self._stack.append(idx)
        self.start_ns.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end_ns[idx] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        """Replace ``obj.attr`` with a spanned call of the original."""
        fn = getattr(obj, attr)
        open_, close = self._open, self._close

        def spanned(*args, **kwargs):
            idx = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        setattr(obj, attr, spanned)

    def wrap_iter(self, obj: Any, attr: str, name: str) -> None:
        """Like :meth:`wrap` for a method returning an iterator: every
        ``next()`` on the returned iterator is one span (generators do
        their work lazily, inside ``next``)."""
        fn = getattr(obj, attr)

        def spanned(*args, **kwargs):
            return _SpannedIterator(self, fn(*args, **kwargs), name)

        setattr(obj, attr, spanned)

    def summary(self, first: int = 0) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "busy_s", "self_s"}}`` over the spans
        opened at or after index ``first`` (a span's parent always opened
        before it, so this is a set of whole subtrees)."""
        n = len(self.names)
        names, parent = self.names, self.parent
        dur = [e - s for s, e in zip(self.start_ns, self.end_ns)]
        child = [0] * n
        for i in range(first, n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        out: Dict[str, Dict[str, float]] = {}
        for i in range(first, n):
            name = names[i]
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (dur[i] - child[i]) / 1e9
            p = parent[i]
            while p >= 0 and names[p] != name:
                p = parent[p]
            if p < 0:
                row["busy_s"] += dur[i] / 1e9
        return out

    def to_dict(self) -> Dict[str, Any]:
        """Columnar span dump for ``--out`` (times relative to the first
        span, in ns; ``parent`` indexes into the same columns)."""
        t0 = self.start_ns[0] if self.start_ns else 0
        return {
            "name": self.names,
            "start_ns": [s - t0 for s in self.start_ns],
            "end_ns": [e - t0 for e in self.end_ns],
            "parent": self.parent,
        }


class _SpannedIterator:
    def __init__(self, recorder: SpanRecorder, it, name: str):
        self._recorder = recorder
        self._it = iter(it)
        self._name = name

    def __iter__(self):
        return self

    def __next__(self):
        return self._recorder.call(self._name, next, self._it)


def instrument_simulation(recorder: SpanRecorder, sim) -> None:
    """Wrap the layers of one built :class:`repro.sim.engine.Simulation`.

    ``sim.run`` becomes the root span ``sim.engine``: its self time is
    the engine's own work (fusion, the ``page_tier`` gather, hint-fault
    masks, epoch close) once every wrapped layer's time is taken out.
    """
    wrap = recorder.wrap
    wrap(sim, "run", "sim.engine")
    recorder.wrap_iter(sim.workload, "events", "workloads.events")
    wrap(sim.tlb, "access_substream", "mem.tlb.access_substream")
    wrap(sim.space, "record_touch", "mem.address_space.record_touch")
    wrap(sim.space, "demand_map_many", "mem.address_space.demand_map_many")
    wrap(sim.bound_cost, "memory_ns", "sim.cost.memory_ns")
    wrap(sim.metrics, "record_batch", "sim.metrics.record_batch")
    wrap(sim.metrics, "maybe_snapshot", "sim.metrics.maybe_snapshot")
    if sim.sampler is not None:
        wrap(sim.sampler, "sample", "pebs.sampler.sample")
    for op in MIGRATION_OPS:
        wrap(sim.migrator, op, f"mem.migration.{op}")
    policy = sim.policy
    for hook in POLICY_HOOKS:
        wrap(policy, hook, f"policies.{policy.name}.{hook}")
    # MEMTIS's daemons (bound in ``policy.bind``, so present by now).
    if getattr(policy, "ksampled", None) is not None:
        wrap(policy.ksampled, "process_samples", "core.sampler.process_samples")
    if getattr(policy, "kmigrated", None) is not None:
        wrap(policy.kmigrated, "tick", "core.migrator.tick")
