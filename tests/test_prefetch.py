"""Generated event streams run ahead of the engine on a helper thread.

Contracts (``repro.workloads.prefetch``):

* the prefetched stream hands out the same events, array for array and
  in the same order, as direct iteration -- for every registered
  workload and a co-located mix -- so runs are bit-identical
  (whole runs with and without the helper are compared by the
  conformance matrix's ``direct`` axis, ``tests/conformance.py``);
* an exception the generator raises reaches the engine after every
  event before it was processed;
* every exit from a run (end, access budget, error) closes the
  generator on the helper thread and joins it: no helper thread outlives
  a run (``tests/conftest.py`` checks this after every test);
* a resume that regenerates and skips the consumed prefix is exact;
* the engine's phases never add up to more than its wall clock.
"""

import threading

import numpy as np
import pytest

from repro.pebs.events import AccessBatch
from repro.policies.static import AllFastPolicy
from repro.sim.engine import Simulation
from repro.sim.runner import RunSpec
from repro.workloads import prefetch
from repro.workloads.base import AccessEvent, AllocEvent, Workload
from repro.workloads.registry import make_workload, workload_names

from conformance import checkpoint_and_resume, digest
from test_engine import machine
from test_shared_streams import EPOCH_NS, SMALL

MB = 1024 * 1024

STREAMS = workload_names() + ["silo+liblinear"]


@pytest.fixture
def two_cpus(monkeypatch):
    """Prefetch even where the process may use only one CPU."""
    monkeypatch.setattr(prefetch, "usable_cpus", lambda: 2)


@pytest.fixture
def one_cpu(monkeypatch):
    monkeypatch.setattr(prefetch, "usable_cpus", lambda: 1)


@pytest.fixture
def threads():
    """The thread count before the test; it must be back after."""
    before = threading.active_count()
    yield before
    assert threading.active_count() == before


def _same_event(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if not isinstance(a, AccessEvent):
        return a == b
    return (a.interleave == b.interleave
            and len(a.segments) == len(b.segments)
            and all(ka == kb
                    and np.array_equal(ba.vpn, bb.vpn)
                    and np.array_equal(ba.is_store, bb.is_store)
                    for (ka, ba), (kb, bb) in zip(a.segments, b.segments)))


def _assert_same_stream(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert _same_event(a, b), f"event {i} differs"


def _phases_within_wall(result):
    assert sum(result.phase_ns.values()) <= result.wall_seconds * 1e9


class _Script(Workload):
    """Yields ``script``; raises ``error`` after it when one is given.
    Records which thread ran the generator's ``finally``."""

    name = "script"

    def __init__(self, script, error=None):
        super().__init__(8 * MB, max(1, sum(
            e.num_accesses for e in script if isinstance(e, AccessEvent))))
        self.script = script
        self.error = error
        self.finally_thread = None

    def events(self, rng):
        try:
            yield from self.script
            if self.error is not None:
                raise self.error
        finally:
            self.finally_thread = threading.current_thread().name


def _script(accesses, n=100):
    return [AllocEvent("heap", 4 * MB)] + [
        AccessEvent.single("heap", AccessBatch.loads(
            np.arange(i, i + n, dtype=np.int64) % 1024))
        for i in range(accesses)]


# -- the stream ----------------------------------------------------------------


@pytest.mark.parametrize("name", STREAMS)
def test_prefetched_events_equal_direct(name, two_cpus, threads):
    direct = list(make_workload(name, SMALL).events(
        np.random.default_rng(3)))
    stream = prefetch.open_stream(make_workload(name, SMALL),
                                  np.random.default_rng(3))
    assert isinstance(stream, prefetch.RunAhead)
    try:
        got = list(stream)
    finally:
        prefetch.close_stream(stream)
    _assert_same_stream(got, direct)


def test_single_cpu_iterates_directly(one_cpu):
    stream = prefetch.open_stream(make_workload("silo", SMALL),
                                  np.random.default_rng(0))
    assert not isinstance(stream, prefetch.RunAhead)
    prefetch.close_stream(stream)


def test_wrapped_stream_is_iterated_by_the_caller(two_cpus, threads):
    """An ``events`` wrapped in a non-generator iterator (as the
    benchmark's layer tracer wraps it) runs every ``next`` on the
    engine's thread, and the run is unchanged."""
    spec = RunSpec("phaseflip", "memtis", scale=SMALL, seed=5)
    plain = spec.build().run()
    sim = spec.build()
    callers = set()
    generate = sim.workload.events

    class Recorded:
        def __init__(self, rng):
            self._it = generate(rng)

        def __iter__(self):
            return self

        def __next__(self):
            callers.add(threading.current_thread().name)
            return next(self._it)

    sim.workload.events = Recorded
    assert not isinstance(prefetch.open_stream(sim.workload,
                                               np.random.default_rng(0)),
                          prefetch.RunAhead)
    assert digest(sim.run()) == digest(plain)
    assert callers == {threading.current_thread().name}


def test_workers_sharing_the_cpus_iterate_directly(tmp_path, monkeypatch,
                                                   threads):
    """Two supervised workers on two CPUs start no helper; one worker
    on four CPUs does."""
    from repro.service.worker import worker_main

    monkeypatch.setattr(prefetch, "_sharers", 1)
    monkeypatch.setattr(prefetch, "usable_cpus", lambda: 2)
    worker_main(str(tmp_path), workers=2, drain=True)
    assert prefetch._sharers == 2
    stream = prefetch.open_stream(make_workload("silo", SMALL),
                                  np.random.default_rng(0))
    assert not isinstance(stream, prefetch.RunAhead)
    prefetch.close_stream(stream)
    monkeypatch.setattr(prefetch, "usable_cpus", lambda: 4)
    stream = prefetch.open_stream(make_workload("silo", SMALL),
                                  np.random.default_rng(0))
    assert isinstance(stream, prefetch.RunAhead)
    prefetch.close_stream(stream)


def test_close_before_and_after_the_end_is_idempotent(two_cpus, threads):
    for take in (0, 1, 3, 100):
        stream = prefetch.RunAhead(iter(range(50)))
        got = [x for _, x in zip(range(take), stream)]
        assert got == list(range(min(take, 50)))
        stream.close()
        stream.close()
        assert list(stream) == []


# -- the engine ------------------------------------------------------------------


@pytest.mark.parametrize("k", [0, 1, 7])
def test_generator_error_surfaces_after_k_events(k, two_cpus, threads):
    error = RuntimeError("generator failed")
    script = _script(k)
    workload = _Script(script, error=error)
    sim = Simulation(workload, AllFastPolicy(), machine())
    with pytest.raises(RuntimeError) as excinfo:
        sim.run()
    assert excinfo.value is error
    assert sim._events_consumed == len(script)
    assert sim.metrics.total_accesses == 100 * k
    assert workload.finally_thread == prefetch.THREAD_NAME


def test_engine_error_closes_the_generator(two_cpus, threads):
    """An error on the engine's side (an access to an unknown region)
    still closes the generator on the helper and joins it."""
    script = _script(20)
    script.insert(3, AccessEvent.single(
        "ghost", AccessBatch.loads(np.arange(4, dtype=np.int64))))
    workload = _Script(script)
    with pytest.raises(KeyError):
        Simulation(workload, AllFastPolicy(), machine()).run()
    assert workload.finally_thread == prefetch.THREAD_NAME


def test_budget_stop_runs_the_generators_finally(two_cpus, threads):
    workload = _Script(_script(50))
    result = Simulation(workload, AllFastPolicy(), machine()).run(
        max_accesses=1_000)
    assert result.metrics.total_accesses == 1_000
    assert workload.finally_thread == prefetch.THREAD_NAME
    _phases_within_wall(result)


@pytest.mark.parametrize("workload", ["phaseflip", "silo+liblinear"])
def test_resume_through_the_skip_path_is_exact(workload, two_cpus,
                                               threads):
    """A regenerated stream skips the consumed prefix: resuming from an
    early, a middle and the last checkpoint equals the whole run."""
    spec = RunSpec(workload, "memtis", scale=SMALL, seed=5)

    def build():
        sim = spec.build()
        sim.metrics.timeline_interval_ns = EPOCH_NS
        return sim

    assert not hasattr(build().workload, "seek_events")
    full, resumed, checkpoints = checkpoint_and_resume(
        build, lambda sim: sim.run())
    _phases_within_wall(full)
    assert checkpoints >= 3, "scenario too small to be meaningful"
    for k, result in resumed.items():
        assert digest(result) == digest(full), f"epoch {k} diverged"
