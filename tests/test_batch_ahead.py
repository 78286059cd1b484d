"""Large interleaved batches are prepared on a helper while the engine
simulates the batch before.

Contracts (``Simulation._prepared``, ``repro.workloads.prefetch``):

* a run that prepares batches ahead equals the inline run under
  validate mode and through a kill/resume, and leaves the same state
  when an access budget stops it (every policy's replay at the default
  mode is the conformance matrix's ``ahead`` axis);
* the helper never touches the engine's RNG: the engine adopts the
  helper's copy when it takes a batch, so a checkpoint taken while the
  next batch is prepared holds the inline RNG;
* an error raised while batch k+1 is prepared reaches the engine after
  batch k is recorded, and never when the run stops at k;
* no helper starts for small or non-interleaved batches, without a
  second core of this process's own, or beside a generated stream's
  event helper;
* every exit joins the helper (``tests/conftest.py`` checks this after
  every test).
"""

import pickle
import threading
import time

import numpy as np
import pytest

from repro import kernels
from repro.pebs.events import AccessBatch
from repro.policies.registry import make_policy
from repro.policies.static import AllFastPolicy
from repro.sim import engine
from repro.sim.engine import AHEAD_MIN_ACCESSES, Simulation
from repro.sim.machine import MachineSpec
from repro.sim.runner import RunSpec
from repro.workloads import prefetch
from repro.workloads.base import AccessEvent, AllocEvent
from repro.workloads.registry import make_workload
from repro.workloads.trace import TraceWorkload, record_trace

from conftest import TEST_SCALE
from conformance import checkpoint_and_resume, digest
from test_engine import ScriptedWorkload, machine

MB = 1024 * 1024
EPOCH_NS = 1e6
MACRO_BATCHES = (65_536, 262_144)


@pytest.fixture(scope="module")
def silo_trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ahead") / "silo.npz")
    record_trace(make_workload("silo", TEST_SCALE), path, seed=7)
    return path


@pytest.fixture
def preparers(monkeypatch):
    """The name of the thread that prepared each batch, in order."""
    names = []
    prepare = Simulation._prepare_batch

    def spy(self, event, rng):
        names.append(threading.current_thread().name)
        return prepare(self, event, rng)

    monkeypatch.setattr(Simulation, "_prepare_batch", spy)
    return names


def _cpus(monkeypatch, n):
    monkeypatch.setattr(prefetch, "_sharers", 1)
    monkeypatch.setattr(prefetch, "usable_cpus", lambda: n)


def _replay(path, macro_batch):
    workload = TraceWorkload(path, event_accesses=1_024)
    sim = Simulation(workload, make_policy("memtis"),
                     MachineSpec.from_ratio(workload.total_bytes, ratio="1:8"),
                     seed=7, macro_batch=macro_batch)
    sim.metrics.timeline_interval_ns = EPOCH_NS
    return sim


def _phases_within_wall(result):
    assert sum(result.phase_ns.values()) <= result.wall_seconds * 1e9


def _assert_ahead(preparers):
    assert prefetch.BATCH_THREAD_NAME in preparers
    preparers.clear()


def _assert_inline(preparers):
    assert preparers and prefetch.BATCH_THREAD_NAME not in preparers
    preparers.clear()


# -- bit identity --------------------------------------------------------------


@pytest.mark.parametrize("macro_batch", MACRO_BATCHES)
@pytest.mark.parametrize("mode", [kernels.VALIDATE])
def test_ahead_run_equals_inline_run(silo_trace, macro_batch, mode,
                                     monkeypatch, preparers):
    """Under validate mode, where every kernel runs both paths (a
    shorter replay); the other modes are the conformance matrix's
    ``ahead`` axis."""
    with kernels.forced(mode):
        _cpus(monkeypatch, 1)
        inline = _replay(silo_trace, macro_batch).run(max_accesses=600_000)
        _assert_inline(preparers)
        _cpus(monkeypatch, 2)
        ahead = _replay(silo_trace, macro_batch).run(max_accesses=600_000)
        _assert_ahead(preparers)
    assert digest(ahead) == digest(inline)
    assert ahead.phase_ns["prep_ns"] > 0
    _phases_within_wall(inline)
    _phases_within_wall(ahead)


def test_resume_from_checkpoints_equals_the_whole_run(silo_trace,
                                                      monkeypatch,
                                                      preparers):
    """Every checkpoint is taken while the helper prepares the next
    batch; resuming from the first, a middle and the last equals the
    uninterrupted run, which equals the inline run."""
    _cpus(monkeypatch, 1)
    inline = _replay(silo_trace, MACRO_BATCHES[0]).run()
    _cpus(monkeypatch, 2)
    full, resumed, checkpoints = checkpoint_and_resume(
        lambda: _replay(silo_trace, MACRO_BATCHES[0]),
        lambda sim: digest(sim.run()))
    _assert_ahead(preparers)
    assert full == digest(inline)
    assert checkpoints >= 3, "replay too short to be meaningful"
    for k, result in resumed.items():
        assert result == full, f"epoch {k} diverged"


@pytest.mark.parametrize("budget", [AHEAD_MIN_ACCESSES * 3, 500_000])
def test_budget_stop_leaves_the_inline_state(silo_trace, budget,
                                             monkeypatch, preparers):
    """The batch prepared for after the stop is dropped, and the engine
    RNG is the inline run's."""
    _cpus(monkeypatch, 1)
    inline = _replay(silo_trace, MACRO_BATCHES[0])
    inline.run(max_accesses=budget)
    _cpus(monkeypatch, 2)
    ahead = _replay(silo_trace, MACRO_BATCHES[0])
    ahead.run(max_accesses=budget)
    _assert_ahead(preparers)
    assert (ahead.rng.bit_generator.state
            == inline.rng.bit_generator.state)
    assert pickle.dumps(ahead.state_dict()) == pickle.dumps(
        inline.state_dict())


# -- errors --------------------------------------------------------------------


class Direct(ScriptedWorkload):
    """A scripted stream the engine reads directly (no event helper)."""

    prefetch_events = False


def _big(key, n=AHEAD_MIN_ACCESSES, base=0):
    return AccessEvent(
        [(key, AccessBatch.loads(base + np.arange(n, dtype=np.int64) % 512))],
        interleave=True)


@pytest.mark.parametrize("bad", [
    pytest.param(_big("ghost"), id="unknown-region"),
    pytest.param(_big("heap", base=4096), id="out-of-bounds")])
@pytest.mark.parametrize("cpus", [1, 2])
def test_error_in_the_next_batch_surfaces_after_this_one(bad, cpus,
                                                         monkeypatch,
                                                         preparers):
    _cpus(monkeypatch, cpus)
    script = [AllocEvent("heap", 4 * MB)] + [_big("heap")] * 3 + [bad]
    sim = Simulation(Direct(script), AllFastPolicy(), machine(),
                     macro_batch=AHEAD_MIN_ACCESSES)
    with pytest.raises((KeyError, IndexError)) as excinfo:
        sim.run()
    assert isinstance(excinfo.value,
                      KeyError if bad.segments[0][0] == "ghost"
                      else IndexError)
    assert sim.metrics.total_accesses == 3 * AHEAD_MIN_ACCESSES
    assert sim._batches_processed == 3
    assert sim._events_consumed == 4
    if cpus == 2:
        assert preparers[-1] == prefetch.BATCH_THREAD_NAME
    # Stopped by the budget at the batch before, the run never sees it.
    stopped = Simulation(Direct(script), AllFastPolicy(),
                         machine(), macro_batch=AHEAD_MIN_ACCESSES)
    result = stopped.run(max_accesses=3 * AHEAD_MIN_ACCESSES)
    assert result.metrics.total_accesses == 3 * AHEAD_MIN_ACCESSES
    if cpus == 2:
        assert preparers[-1] == prefetch.BATCH_THREAD_NAME


def test_stream_error_pulled_ahead_surfaces_after_this_batch(monkeypatch,
                                                             preparers):
    """The item after a batch is pulled before the batch is simulated;
    an error the stream raises there still reaches the engine after it,
    and not at all when the budget stops the run."""
    _cpus(monkeypatch, 2)
    error = RuntimeError("stream failed")

    class Failing(Direct):
        def events(self, rng):
            yield from self.script
            raise error

    script = [AllocEvent("heap", 4 * MB)] + [_big("heap")] * 3
    sim = Simulation(Failing(script), AllFastPolicy(), machine(),
                     macro_batch=AHEAD_MIN_ACCESSES)
    with pytest.raises(RuntimeError) as excinfo:
        sim.run()
    assert excinfo.value is error
    assert sim.metrics.total_accesses == 3 * AHEAD_MIN_ACCESSES
    _assert_ahead(preparers)
    stopped = Simulation(Failing(script), AllFastPolicy(), machine(),
                         macro_batch=AHEAD_MIN_ACCESSES)
    stopped.run(max_accesses=3 * AHEAD_MIN_ACCESSES)


# -- where no helper starts ----------------------------------------------------


@pytest.fixture
def helpers(monkeypatch):
    """Every batch helper a run starts."""
    started = []
    real = engine.CallAhead

    def record(*args, **kwargs):
        started.append(real(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(engine, "CallAhead", record)
    return started


def test_small_batches_stay_inline(silo_trace, monkeypatch, helpers):
    """``macro_batch=0`` replays the trace in 1k-access batches, as
    ``replay_small_batches`` does."""
    _cpus(monkeypatch, 2)
    _replay(silo_trace, 0).run(max_accesses=200_000)
    assert helpers == []


def test_batches_under_the_threshold_stay_inline(silo_trace, monkeypatch,
                                                 helpers):
    _cpus(monkeypatch, 2)
    _replay(silo_trace, AHEAD_MIN_ACCESSES // 2).run(max_accesses=200_000)
    assert helpers == []


def test_non_interleaved_batches_stay_inline(monkeypatch, helpers):
    _cpus(monkeypatch, 2)
    plain = AccessEvent(_big("heap").segments, interleave=False)
    script = [AllocEvent("heap", 4 * MB)] + [plain] * 4
    Simulation(Direct(script), AllFastPolicy(), machine(),
               macro_batch=AHEAD_MIN_ACCESSES).run()
    assert helpers == []


@pytest.mark.parametrize("cpus,sharers", [(1, 1), (2, 2), (3, 2)])
def test_without_a_core_of_its_own_a_run_stays_inline(
        silo_trace, cpus, sharers, monkeypatch, helpers):
    """One CPU, or two shared by two supervised workers
    (``share_cpus(2)``, as ``sweep_grid``'s workers are)."""
    monkeypatch.setattr(prefetch, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(prefetch, "_sharers", 1)
    prefetch.share_cpus(sharers)
    _replay(silo_trace, MACRO_BATCHES[1]).run(max_accesses=600_000)
    assert helpers == []


def test_a_prefetched_stream_has_no_second_helper(monkeypatch, helpers,
                                                  preparers):
    """A generated stream that runs ahead on the event helper keeps its
    batches inline; the same stream read directly prepares them ahead."""
    _cpus(monkeypatch, 2)
    spec = RunSpec("silo", "memtis", scale=TEST_SCALE, seed=3,
                   macro_batch=MACRO_BATCHES[0], max_accesses=400_000)
    prefetched = spec.build().run(max_accesses=spec.max_accesses)
    assert helpers == []
    assert preparers and set(preparers) == {threading.main_thread().name}
    direct = spec.build()
    direct.workload.prefetch_events = False
    assert digest(direct.run(max_accesses=spec.max_accesses)) == digest(
        prefetched)
    assert len(helpers) == 1
    assert prefetch.BATCH_THREAD_NAME in preparers


def test_the_zoo_path_starts_no_batch_helper(monkeypatch, helpers):
    """``zoo_phaseflip_3tier``'s runs: generated 32k-access events, one
    per batch, on two CPUs (the event helper) and on one."""
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        RunSpec("phaseflip", "memtis", scale=TEST_SCALE, seed=3,
                machine_preset="dram-cxl-nvm").build().run(
                    max_accesses=300_000)
    assert helpers == []


# -- the primitive -------------------------------------------------------------


def test_call_ahead_runs_calls_in_order_and_joins():
    before = threading.active_count()
    helper = prefetch.CallAhead()
    seen = []
    for i in range(5):
        helper.submit(lambda x: seen.append(
            (x, threading.current_thread().name)) or x * x, i)
        assert helper.take() == i * i
    assert seen == [(i, prefetch.BATCH_THREAD_NAME) for i in range(5)]
    helper.submit(lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        helper.take()
    helper.close()
    helper.close()
    assert threading.active_count() == before


def test_call_ahead_close_drops_a_pending_result_and_error():
    """Closing with a call in flight, or with a result or an error not
    taken, finishes the call and joins; nothing is raised."""
    for call, settle in ((lambda: time.sleep(0.05), 0.0),
                         (lambda: 1 / 0, 0.05), (lambda: 7, 0.05)):
        helper = prefetch.CallAhead()
        helper.submit(call)
        time.sleep(settle)
        helper.close()
