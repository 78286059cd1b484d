"""Shared event streams inside ``run_sweep``.

Cells of one sweep that share a stream key (workload, scale, seed) run
one generated stream: the first to run it records the live stream into
the sweep's ``streams/`` directory, and every one of them replays the
recording.  The contracts tested here:

* a shared-stream sweep equals live ``RunSpec.execute`` byte for byte
  on composite workload names, both machine shapes and the macro
  cadence, at one and two workers -- and cache keys do not move (the
  conformance matrix's ``replayed`` and ``macro`` axes check replay ==
  live for every registered policy);
* a checkpoint resumes across the two: live onto replay and back, and a
  resumed replay seeks rather than regenerating;
* a stream is published complete, whatever budget its recording cell
  runs to, at most once per key, and never when the key is not shared;
* the streams go with the sweep's scratch directory.
"""

import os

import pytest

from repro.sim import runner, sweep
from repro.sim.engine import stream_rng
from repro.sim.machine import ScaleSpec
from repro.sim.runner import RunSpec
from repro.sim.sweep import run_sweep
from repro.workloads import trace
from repro.workloads.base import AccessEvent
from repro.workloads.registry import make_workload
from repro.workloads.trace import TraceWorkload

from conformance import digest
from conftest import TEST_SCALE

MB = 1024 * 1024

#: Tier-1-sized cells: ~0.1M accesses, a few tens of milliseconds each.
SMALL = ScaleSpec(bytes_per_paper_gb=1 * MB, accesses_per_paper_gb=2_000,
                  min_bytes=48 * MB, min_accesses_per_page=4)

#: Virtual-time epoch length that gives a small run several epochs.
EPOCH_NS = 1e6

def _scratch(monkeypatch) -> list:
    """Record the scratch directory each sweep makes."""
    made = []
    mkdtemp = sweep.tempfile.mkdtemp

    def recording_mkdtemp(*args, **kwargs):
        made.append(mkdtemp(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(sweep.tempfile, "mkdtemp", recording_mkdtemp)
    return made


def _listings(made: list, into: list):
    """A progress callback noting what ``streams/`` holds at each event."""
    def progress(event):
        into.append((event.status, event.spec,
                     sorted(os.listdir(os.path.join(made[-1], "streams")))))
    return progress


# -- sweep differential -------------------------------------------------------

#: ``silo+liblinear`` (a MixWorkload, whose region keys are namespaced
#: ``0:store``) and ``graph500@64`` (an explicit size) check that the
#: recording and its replay carry the composite workload names bit for
#: bit; 603.bwaves has alloc/free barriers.  Each stream is shared by its
#: two machines.
SWEEP_GRID = [
    RunSpec(workload, "memtis", scale=SMALL, seed=5, machine_preset=preset,
            macro_batch=65536)
    for workload in ("silo+liblinear", "graph500@64", "603.bwaves")
    for preset in (None, "dram-cxl-nvm")
]


@pytest.fixture(scope="module")
def live_grid():
    return {spec: digest(spec.execute()) for spec in SWEEP_GRID}


@pytest.mark.parametrize("jobs", [1, 2])
def test_shared_stream_sweep_equals_live(jobs, live_grid, monkeypatch):
    """Three streams, each shared by a 1:8 and a dram-cxl-nvm cell, at
    the macro cadence: every cell replays to the live result."""
    made = _scratch(monkeypatch)
    seen = []
    out = run_sweep(SWEEP_GRID, jobs=jobs, cache=None,
                    progress=_listings(made, seen))
    for spec in SWEEP_GRID:
        assert out[spec].ok, out[spec].error
        assert digest(out[spec].result) == live_grid[spec], spec.label()
    published = {name for _, _, names in seen for name in names
                 if "." not in name}
    assert published == {spec.stream_key() for spec in SWEEP_GRID}
    assert not os.path.exists(made[0])


#: ``cache_key()`` values computed before streams were shared: sharing
#: is invisible to a spec's identity.
PINNED_KEYS = [
    (RunSpec("silo", "memtis"),
     "5c803376f64734136ac566a175679de0416ee437bf91a092693f21ece0f92c8e"),
    (RunSpec("graph500", "tpp", ratio="1:2", seed=7),
     "465e94c5bc4c9a88bfc4937544e36bf6ae1bce55dcad05265b46ab85cdd03751"),
    (RunSpec("silo", "memtis", machine_preset="dram-cxl-nvm",
             macro_batch=65536),
     "db40fe45d10500a3516675a014fdfeef6798e9949cb5654c4d03f2bac56a0beb"),
    (RunSpec("btree", "hemem", scale=TEST_SCALE, max_accesses=50_000,
             policy_kwargs={"promote_threshold": 2}),
     "5ef12c1e2307640a33b3154721ad4b244e29e92e36c0e6470dfacbf8a3b37757"),
    (RunSpec("xsbench", "nomad", seed=3).baseline_spec(),
     "26c4cec4f3e7d740d00dfbf5d6d4994b1119e989765d85a15e0ff31be1902441"),
]


@pytest.mark.parametrize("spec,key", PINNED_KEYS,
                         ids=[s.label() for s, _ in PINNED_KEYS])
def test_cache_keys_are_pinned(spec, key):
    assert spec.cache_key() == key


def test_stream_key_is_workload_scale_and_seed():
    spec = RunSpec("silo", "memtis", scale=SMALL, seed=5)
    same = [spec.replace(policy="tpp"), spec.replace(ratio="1:2"),
            spec.replace(machine_preset="dram-cxl-nvm"),
            spec.replace(macro_batch=65536), spec.replace(max_accesses=10),
            spec.baseline_spec()]
    other = [spec.replace(workload="btree"), spec.replace(seed=6),
             spec.replace(scale=TEST_SCALE)]
    assert {s.stream_key() for s in same} == {spec.stream_key()}
    assert spec.stream_key() not in {s.stream_key() for s in other}


# -- checkpoints cross between live and replayed streams ----------------------


def _capture(sim, spec):
    """Run ``sim`` checkpointing every epoch: (canon result, {epoch: state})."""
    snaps = {}
    sim.metrics.timeline_interval_ns = EPOCH_NS
    sim.snapshot_every = 1
    sim.snapshot_sink = lambda epoch, state: snaps.setdefault(epoch, state)
    return digest(sim.run(max_accesses=spec.max_accesses)), snaps


def _resume(sim, spec, state):
    sim.metrics.timeline_interval_ns = EPOCH_NS
    sim.load_state(state)
    return digest(sim.run(max_accesses=spec.max_accesses))


def _stream_accesses(spec) -> int:
    """Accesses in ``spec``'s whole generated stream."""
    return sum(event.num_accesses
               for event in make_workload(spec.workload, spec.scale).events(
                   stream_rng(spec.seed))
               if isinstance(event, AccessEvent))


@pytest.mark.parametrize("workload", ["silo", "603.bwaves"])
def test_checkpoints_resume_across_live_and_replay(workload, tmp_path):
    spec = RunSpec(workload, "memtis", scale=SMALL, seed=5)
    streams = str(tmp_path)
    live, live_snaps = _capture(spec.build(), spec)

    replay_sim = spec.build(streams=streams)
    assert isinstance(replay_sim.workload, TraceWorkload)
    replay, replay_snaps = _capture(replay_sim, spec)
    assert replay == live
    # Native granularity: one replayed event per generated event.
    assert replay_snaps.keys() == live_snaps.keys()
    assert len(live_snaps) >= 3, "scenario too small to be meaningful"
    for epoch in live_snaps:
        assert (replay_snaps[epoch]["events_consumed"]
                == live_snaps[epoch]["events_consumed"])

    epoch = sorted(live_snaps)[len(live_snaps) // 2]
    onto_replay = spec.build(streams=streams)
    assert _resume(onto_replay, spec, live_snaps[epoch]) == live
    onto_live = spec.build()
    assert _resume(onto_live, spec, replay_snaps[epoch]) == live


def test_a_resumed_shared_cell_seeks_and_never_generates(tmp_path,
                                                         monkeypatch):
    """A shared cell's first attempt records its stream and stops
    halfway (as a killed worker would); resumed from a checkpoint of
    that attempt, the cell fast-forwards the replay to the checkpoint's
    event count, never runs its live generator, and ends on the live
    result."""
    spec = RunSpec("silo", "memtis", scale=SMALL, seed=5)
    streams = str(tmp_path)
    live, _ = _capture(spec.build(), spec)
    stopped = spec.replace(max_accesses=_stream_accesses(spec) // 2)
    _, snaps = _capture(stopped.build(streams=streams), stopped)
    state = snaps[sorted(snaps)[len(snaps) // 2]]

    def generate(self, rng):
        raise AssertionError("the resumed cell ran its live generator")

    monkeypatch.setattr(type(make_workload(spec.workload, spec.scale)),
                        "events", generate)
    seeks = []
    seek = TraceWorkload.seek_events
    monkeypatch.setattr(TraceWorkload, "seek_events",
                        lambda self, n: (seeks.append(n), seek(self, n)))
    assert _resume(spec.build(streams=streams), spec, state) == live
    assert seeks == [state["events_consumed"]] and seeks[0] > 0


# -- who publishes --------------------------------------------------------------


def test_budget_stopped_cell_publishes_a_complete_stream(monkeypatch):
    """Recording does not depend on the budget: the first cell, stopped
    by ``max_accesses``, records and publishes the whole stream, and a
    later unbudgeted cell replays it to the live result."""
    made = _scratch(monkeypatch)
    seen = []
    base = RunSpec("silo", "memtis", scale=SMALL, seed=5)
    specs = [base.replace(max_accesses=30_000), base.replace(policy="tpp")]
    recorded = []
    record = trace.record_trace

    def spy(*args, **kwargs):
        stats = record(*args, **kwargs)
        recorded.append(stats["accesses"])
        return stats

    monkeypatch.setattr(trace, "record_trace", spy)
    out = run_sweep(specs, jobs=1, cache=None, progress=_listings(made, seen))
    assert [names for _, _, names in seen] == [[base.stream_key()], []]
    assert recorded == [_stream_accesses(base)]
    assert out[specs[0]].result.metrics.total_accesses < recorded[0]
    for spec in specs:
        assert digest(out[spec].result) == digest(spec.execute())


def test_unique_stream_keys_tee_nothing(monkeypatch):
    """Cells whose stream no other cell shares run live, untouched."""
    made = _scratch(monkeypatch)
    seen = []
    calls = []
    monkeypatch.setattr(runner, "share_stream",
                        lambda *args: calls.append(args))
    specs = [RunSpec("silo", "memtis", scale=SMALL, seed=1),
             RunSpec("silo", "memtis", scale=SMALL, seed=2),
             RunSpec("btree", "memtis", scale=SMALL, seed=1)]
    out = run_sweep(specs, jobs=1, cache=None, progress=_listings(made, seen))
    assert all(o.ok for o in out.values())
    assert calls == []
    assert [names for _, _, names in seen] == [[], [], []]


def test_grid_at_two_workers_publishes_each_stream_once(tmp_path,
                                                        monkeypatch):
    """8 keys x 6 cells on 2 workers: exactly one recorder per key
    publishes, any other (a lost race) is discarded, and every cell
    equals live."""
    log = str(tmp_path / "recorders")
    record, share = trace.record_trace, runner.share_stream
    mine = []  # the private directory this process records into

    def recording(workload, path, **kwargs):
        mine.append(os.path.dirname(path))
        # Travels with the copy, so the published stream names its
        # recorder.
        with open(os.path.join(mine[-1], "recorder"), "w") as fh:
            fh.write(mine[-1])
        return record(workload, path, **kwargs)

    def logged(live, directory, rng):
        del mine[:]
        replay = share(live, directory, rng)
        if mine:
            with open(os.path.join(directory, "recorder")) as fh:
                won = fh.read() == mine[0]
            streams, key = os.path.split(directory)
            left = sum(name.startswith(f"{key}.{os.getpid()}.")
                       for name in os.listdir(streams))
            # One short O_APPEND write per recorder: safe across worker
            # processes.
            with open(log, "a") as fh:
                fh.write(f"{key} {int(won)} {left}\n")
        return replay

    # Forked workers inherit the patched modules.
    monkeypatch.setattr(trace, "record_trace", recording)
    monkeypatch.setattr(runner, "share_stream", logged)
    made = _scratch(monkeypatch)
    seen = []
    specs = [RunSpec(w, p, scale=SMALL, seed=s)
             for w in ("silo", "btree", "xsbench", "graph500")
             for p in ("memtis", "hemem", "tpp", "nomad", "hybridtier", "arms")
             for s in (7, 8)]
    out = run_sweep(specs, jobs=2, cache=None, progress=_listings(made, seen))
    keys = {spec.stream_key() for spec in specs}
    assert len(keys) == 8

    with open(log) as fh:
        recorders = [line.split() for line in fh]
    for key in keys:
        outcomes = sorted(flag for name, flag, _ in recorders if name == key)
        assert outcomes in (["1"], ["0", "1"]), (key, outcomes)
    # A recorder leaves no private copy behind, won or lost.
    assert {left for _, _, left in recorders} == {"0"}
    for _, _, names in seen:
        assert {name for name in names if "." not in name} <= keys, names
    assert not os.path.exists(made[0])
    for spec in specs:
        assert digest(out[spec].result) == digest(spec.execute()), \
            spec.label()


@pytest.mark.parametrize("workload", ["603.bwaves", "pagerank"])
def test_replay_reports_the_live_name_and_nominal_accesses(workload,
                                                           tmp_path):
    """What a progress ETA reads: pagerank generates 12 fewer accesses
    than its nominal count at this scale, and a replay reports the
    nominal one, as the live run does."""
    spec = RunSpec(workload, "memtis", scale=SMALL, seed=5)
    spec.build(streams=str(tmp_path)).run()
    live = make_workload(workload, SMALL)
    replay = trace.share_stream(
        live, os.path.join(str(tmp_path), spec.stream_key()),
        stream_rng(spec.seed))
    assert isinstance(replay, TraceWorkload)
    assert replay.name == workload
    assert replay.total_accesses == live.total_accesses
    assert replay.needs_bounds_check is False
