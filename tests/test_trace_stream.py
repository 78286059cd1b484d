"""Streamed trace replay: mmap equality, chunking, resume, bounded RSS.

Format v2 stores the access arrays in memory-mappable ``.npy`` sidecars
(see :mod:`repro.workloads.trace`).  The contracts tested here:

* mmap-chunked replay drives the engine to the same ``to_dict()`` as
  fully-in-memory replay (mmap is an I/O strategy, not a semantic);
* a v1 recording (a committed fixture: v1 is read, no longer written)
  replays identically to a v2 recording of the same stream, and any
  other format version is rejected;
* metadata loads without pickle: key arrays are fixed-width ``str``,
  legacy object-array keys still replay, and a key array whose pickle
  calls anything is refused before the call runs;
* re-chunking (``event_accesses``) preserves the flattened access
  stream and alloc/free ordering exactly, at any chunk size;
* the chunk cursor checkpoints: ``seek_events(n)`` reproduces the tail
  of a fresh iteration, including mid-access-event positions, and the
  engine's resume path fast-forwards through it;
* the pages behind the events a replay's consumer is done with are
  released in page-aligned steps that track its cursor (from the seek
  point after ``seek_events``) and really leave the process's RSS;
* a trace at least twice as large as the test's RSS cap replays end to
  end inside the cap (the whole point of streaming).
"""

import mmap
import os
import pickle
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from repro.pebs.events import AccessBatch
from repro.policies.registry import make_policy
from repro.sim.engine import Simulation
from repro.sim.machine import MachineSpec
from repro.workloads.base import (
    AccessEvent,
    AllocEvent,
    FreeEvent,
    Workload,
)
from repro.workloads.registry import make_workload
from repro.workloads.trace import (
    RELEASE_STEP,
    NpyStreamWriter,
    TraceWorkload,
    record_trace,
)

from conformance import canonical, checkpoint_and_resume
from conftest import TEST_SCALE

#: A v1 trace (single ``.npz``, arrays inline): ``603.bwaves`` at
#: ``TEST_SCALE``, seed 9, ``max_accesses=30_000``.
V1_FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                          "trace_v1_603bwaves.npz")


def _record(workload_name, path, **kwargs):
    workload = make_workload(workload_name, TEST_SCALE)
    return record_trace(workload, path, seed=9, **kwargs)


def _replay(path, macro_batch=0, **tw_kwargs):
    workload = TraceWorkload(path, **tw_kwargs)
    machine = MachineSpec.from_ratio(workload.total_bytes, ratio="1:8")
    sim = Simulation(workload, make_policy("memtis"), machine, seed=3,
                     macro_batch=macro_batch)
    return sim, workload


def _flatten(events):
    """(vpn, is_store, per-access region keys, non-access event log)."""
    vpns, stores, keys, others = [], [], [], []
    for pos, event in enumerate(events):
        if isinstance(event, AccessEvent):
            for key, batch in event.segments:
                if len(batch):
                    vpns.append(np.asarray(batch.vpn))
                    stores.append(np.asarray(batch.is_store))
                    keys.extend([key] * len(batch))
        else:
            others.append((len(keys), type(event).__name__, event.key))
    cat = (np.concatenate(vpns) if vpns else np.empty(0, dtype=np.int64))
    st = (np.concatenate(stores) if stores else np.empty(0, dtype=bool))
    return cat, st, keys, others


# -- writer ---------------------------------------------------------------------


class TestNpyStreamWriter:
    def test_roundtrip_and_mmap(self, tmp_path):
        path = str(tmp_path / "s.npy")
        w = NpyStreamWriter(path, np.int64)
        parts = [np.arange(5), np.arange(100, 103), np.empty(0, np.int64)]
        for p in parts:
            w.append(p)
        w.close()
        expect = np.concatenate(parts)
        assert np.array_equal(np.load(path), expect)
        mapped = np.load(path, mmap_mode="r")
        assert isinstance(mapped, np.memmap)
        assert np.array_equal(np.asarray(mapped), expect)

    def test_bool_dtype(self, tmp_path):
        path = str(tmp_path / "b.npy")
        w = NpyStreamWriter(path, bool)
        w.append(np.array([True, False, True]))
        w.close()
        assert np.load(path).tolist() == [True, False, True]

    def test_empty_stream(self, tmp_path):
        path = str(tmp_path / "e.npy")
        NpyStreamWriter(path, np.int64).close()
        assert len(np.load(path)) == 0


# -- replay equality ------------------------------------------------------------


class TestReplayEquality:
    def test_mmap_equals_in_memory(self, tmp_path):
        """mmap replay == in-memory replay, to the bit (same cadence)."""
        path = str(tmp_path / "t.npz")
        _record("silo", path)
        sim_mem, wl_mem = _replay(path, mmap=False)
        assert wl_mem._vpn.flags.writeable  # loaded, not mapped
        mem = canonical(sim_mem.run())
        sim_map, wl_map = _replay(path, mmap=True)
        assert isinstance(wl_map._vpn.base.obj, mmap.mmap)
        assert canonical(sim_map.run()) == mem

    @pytest.mark.parametrize("event_accesses", [None, 1_000])
    def test_replay_hands_out_read_only_plain_views(self, tmp_path,
                                                    event_accesses):
        """Every replayed batch holds plain, read-only ``ndarray`` views
        of the mapping, and a
        ``macro_batch=0`` replay of the interleaved silo trace -- where
        each batch in the region at base 0 is one such view, handed to
        the interleave as is -- runs to the in-memory result."""
        path = str(tmp_path / "t.npz")
        _record("silo", path)
        replay = TraceWorkload(path, event_accesses=event_accesses)
        batches = [batch for event in replay.events(None)
                   if isinstance(event, AccessEvent)
                   for _key, batch in event.segments]
        assert batches
        for batch in batches:
            for arr in (batch.vpn, batch.is_store):
                assert type(arr) is np.ndarray
                assert not arr.flags.writeable
        sim_map, wl_map = _replay(path, event_accesses=event_accesses)
        sim_mem, _ = _replay(path, event_accesses=event_accesses, mmap=False)
        result = canonical(sim_map.run())
        assert bool(np.all(replay._seg_inter))
        assert 0 in [r.base_vpn for r in sim_map._regions.values()]
        assert result == canonical(sim_mem.run())

    def test_mmap_chunked_macro_equals_in_memory_macro(self, tmp_path):
        """At a fixed macro cadence, chunk size and mmap vs in-memory
        are invisible: the coalescer re-fuses to the same batches."""
        path = str(tmp_path / "t.npz")
        _record("silo", path)
        sim_a, _ = _replay(path, macro_batch=50_000, mmap=False)
        sim_b, wl = _replay(path, macro_batch=50_000, mmap=True,
                            event_accesses=7_000)
        a, b = canonical(sim_a.run()), canonical(sim_b.run())
        # Chunking at 7k then coalescing to 50k hits the same 50k
        # boundaries as native 32k events only if 7k divides them --
        # it does not, so allow the documented cadence difference in
        # batch counts but demand identical access totals and RSS.
        assert a["metrics"]["total_accesses"] == b["metrics"]["total_accesses"]
        assert a["final_rss_bytes"] == b["final_rss_bytes"]

    def test_v1_and_v2_replay_identically(self, tmp_path):
        p2 = str(tmp_path / "v2.npz")
        s2 = _record("603.bwaves", p2, max_accesses=30_000)
        sim1, wl1 = _replay(V1_FIXTURE)
        sim2, wl2 = _replay(p2)
        assert wl1.format_version == 1 and wl2.format_version == 2
        assert s2 == {"events": len(wl1._kinds),
                      "accesses": wl1.total_accesses}
        assert canonical(sim1.run()) == canonical(sim2.run())

    def test_unknown_format_version_rejected(self, tmp_path):
        path = str(tmp_path / "t.npz")
        _record("silo", path, max_accesses=10_000)
        with np.load(path, allow_pickle=True) as npz:
            meta = dict(npz)
        meta["format_version"] = np.int64(7)
        np.savez_compressed(path, **meta)
        with pytest.raises(ValueError, match="format version 7"):
            TraceWorkload(path)

    def test_keys_are_str_arrays_and_legacy_object_keys_replay(self,
                                                              tmp_path):
        path = str(tmp_path / "t.npz")
        _record("603.bwaves", path, max_accesses=30_000)
        with np.load(path, allow_pickle=False) as npz:
            meta = dict(npz)
        assert meta["event_key"].dtype.kind == "U"
        assert meta["seg_key"].dtype.kind == "U"
        fresh = canonical(_replay(path)[0].run())
        # As earlier writers stored them: object arrays of str.
        for name in ("event_key", "seg_key"):
            meta[name] = meta[name].astype(object)
        np.savez_compressed(path, **meta)
        sim, workload = _replay(path)
        assert workload._keys.dtype.kind == "U"
        assert canonical(sim.run()) == fresh

    def test_key_array_pickle_cannot_run_code(self, tmp_path):
        """A key array that pickles ``open(victim, "w")`` is refused, and
        the file never appears; loading it with pickle allowed would
        have created it."""
        path = str(tmp_path / "t.npz")
        _record("silo", path, max_accesses=10_000)
        with np.load(path, allow_pickle=False) as npz:
            meta = dict(npz)
        victim = tmp_path / "victim"
        meta["event_key"] = np.array([_CreatesFile(str(victim))],
                                     dtype=object)
        np.savez_compressed(path, **meta)
        with pytest.raises(pickle.UnpicklingError, match="may not load"):
            TraceWorkload(path)
        assert not victim.exists()
        with np.load(path, allow_pickle=True) as npz:
            npz["event_key"]
        assert victim.exists()

    def test_v2_sidecars_exist_and_meta_is_small(self, tmp_path):
        path = str(tmp_path / "t.npz")
        stats = _record("silo", path)
        base = path[:-len(".npz")]
        vpn_bytes = os.path.getsize(base + ".vpn.npy")
        assert vpn_bytes == 128 + stats["accesses"] * 8
        assert os.path.getsize(base + ".st.npy") == 128 + stats["accesses"]
        # Metadata scales with events, not accesses.
        assert os.path.getsize(path) < vpn_bytes / 10

    def test_bounds_valid_skips_engine_scan(self, tmp_path):
        path = str(tmp_path / "t.npz")
        _record("silo", path)
        assert TraceWorkload(path).needs_bounds_check is False
        # v1 traces never carry the certificate.
        assert TraceWorkload(V1_FIXTURE).needs_bounds_check is True

    def test_out_of_bounds_trace_keeps_check(self, tmp_path):
        class Rogue(Workload):
            name = "rogue"

            def events(self, rng):
                yield AllocEvent("r", 8 * 4096)
                # Offset 8 is outside the 8 declared pages.
                yield AccessEvent.single("r", AccessBatch.loads([0, 8]))

        path = str(tmp_path / "rogue.npz")
        record_trace(Rogue(total_bytes=8 * 4096, total_accesses=2), path)
        assert TraceWorkload(path).needs_bounds_check is True


# -- chunked iteration ----------------------------------------------------------


class _CreatesFile:
    """Pickles to a call that creates ``path``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


class TestChunkedIteration:
    @pytest.mark.parametrize("granularity", [1, 997, 7_000, 10**9])
    def test_chunking_preserves_stream(self, tmp_path, granularity):
        """Any chunk size yields the same flattened access stream and
        the same alloc/free positions (603.bwaves frees mid-run)."""
        path = str(tmp_path / "t.npz")
        _record("603.bwaves", path)
        rng = np.random.default_rng(0)
        native = _flatten(TraceWorkload(path).events(rng))
        chunked = _flatten(
            TraceWorkload(path, event_accesses=granularity).events(rng)
        )
        assert np.array_equal(native[0], chunked[0])
        assert np.array_equal(native[1], chunked[1])
        assert native[2] == chunked[2]
        assert native[3] == chunked[3]

    def test_chunk_sizes_are_bounded(self, tmp_path):
        path = str(tmp_path / "t.npz")
        _record("silo", path)
        for event in TraceWorkload(path, event_accesses=5_000).events(
            np.random.default_rng(0)
        ):
            if isinstance(event, AccessEvent):
                assert event.num_accesses <= 5_000

    def test_invalid_event_accesses_rejected(self, tmp_path):
        path = str(tmp_path / "t.npz")
        _record("silo", path)
        with pytest.raises(ValueError):
            TraceWorkload(path, event_accesses=0)


# -- cursor / resume ------------------------------------------------------------


class TestCursorResume:
    @pytest.mark.parametrize("granularity", [None, 7_000])
    def test_seek_equals_iterate(self, tmp_path, granularity):
        path = str(tmp_path / "t.npz")
        _record("603.bwaves", path)
        tw = TraceWorkload(path, event_accesses=granularity)
        all_events = list(tw.events(np.random.default_rng(0)))
        total = tw.num_replay_events
        assert len(all_events) == total
        for n in {0, 1, total // 3, total - 1, total}:
            fresh = TraceWorkload(path, event_accesses=granularity)
            fresh.seek_events(n)
            tail = list(fresh.events(np.random.default_rng(0)))
            assert len(tail) == total - n
            for a, b in zip(all_events[n:], tail):
                assert type(a) is type(b)
                if isinstance(a, AccessEvent):
                    fa = _flatten([a])
                    fb = _flatten([b])
                    assert np.array_equal(fa[0], fb[0])
                    assert np.array_equal(fa[1], fb[1])
                    assert fa[2] == fb[2]

    def test_seek_resumes_where_live_replay_stopped(self, tmp_path):
        """Seeking a fresh replay past the events a live replay already
        delivered yields the live replay's remaining events."""
        path = str(tmp_path / "t.npz")
        _record("silo", path)
        tw = TraceWorkload(path, event_accesses=5_000)
        it = tw.events(np.random.default_rng(0))
        consumed = [next(it) for _ in range(7)]
        assert len(consumed) == 7
        tail_live = list(it)
        fresh = TraceWorkload(path, event_accesses=5_000)
        fresh.seek_events(len(consumed))
        tail_fresh = list(fresh.events(np.random.default_rng(0)))
        assert len(tail_fresh) == len(tail_live)
        for a, b in zip(tail_live, tail_fresh):
            assert type(a) is type(b)
            if isinstance(a, AccessEvent):
                fa, fb = _flatten([a]), _flatten([b])
                assert np.array_equal(fa[0], fb[0])
                assert np.array_equal(fa[1], fb[1])

    def test_seek_rejects_negative(self, tmp_path):
        path = str(tmp_path / "t.npz")
        _record("silo", path)
        with pytest.raises(ValueError):
            TraceWorkload(path).seek_events(-1)

    def test_engine_resume_fast_forwards_mid_trace(self, tmp_path):
        """The engine's checkpoint/resume on a seekable workload: slice
        an epoch checkpoint out of a full mmap replay, restore it onto
        a fresh sim, and the tail run must be bit-identical.  This
        exercises ``Simulation.run``'s ``seek_events`` fast-forward."""
        path = str(tmp_path / "t.npz")
        _record("silo", path)

        def build():
            sim, _ = _replay(path, macro_batch=50_000, event_accesses=7_000)
            sim.metrics.timeline_interval_ns = 1e6
            return sim

        def outcome(sim):
            return sim._events_consumed, canonical(sim.run())

        (_, full), resumed, checkpoints = checkpoint_and_resume(build,
                                                                outcome)
        assert checkpoints >= 3, "scenario too small to be meaningful"
        for k, (consumed, result) in resumed.items():
            assert result == full, f"resume from epoch {k} diverged"
            # The fast-forward really skipped: the workload started its
            # iteration at the checkpointed event, not at zero.
            assert consumed > 0


# -- page release ---------------------------------------------------------------


def _mapped_rss_kb(path):
    """Resident kB of this process's mappings of ``path`` (smaps)."""
    total, inside = 0, False
    with open("/proc/self/smaps") as fh:
        for line in fh:
            head = line.split()
            if "-" in head[0] and len(head) >= 5:  # a mapping's first line
                inside = len(head) >= 6 and head[5] == path
            elif inside and head[0] == "Rss:":
                total += int(head[1])
    return total


class TestRelease:
    ACCESSES = 1_500_000  # ~12 MB of offsets, ~1.5 MB of store flags
    EVENT = 40_000

    @pytest.fixture
    def trace(self, tmp_path):
        path = str(tmp_path / "t.npz")
        record_trace(_BigStream(self.ACCESSES, region_bytes=8 << 20), path)
        return path

    def _replay_checking(self, workload, first):
        """Replay ``workload`` from replayed event ``first``, reading each
        event and then reporting it done; after each report every
        sidecar's released span ends on a page boundary, never behind
        the seek point, and less than a step plus a page behind the
        cursor."""
        floors = None
        for n, event in enumerate(workload.events(None), first + 1):
            if floors is None:  # the cursor starts at the seek point
                floors = [sc.released for sc in workload._sidecars]
            for _key, batch in getattr(event, "segments", ()):
                batch.vpn.sum(), batch.is_store.sum()  # fault the pages in
            workload.release_events(n)
            accesses = workload._access_position(n)
            for sidecar, floor in zip(workload._sidecars, floors):
                cursor = sidecar._offset + accesses * sidecar.array.itemsize
                assert sidecar.released % mmap.PAGESIZE == 0
                assert floor <= sidecar.released <= cursor
                assert cursor - sidecar.released < RELEASE_STEP + mmap.PAGESIZE
        return floors

    def test_release_tracks_the_cursor_and_leaves_rss(self, trace):
        workload = TraceWorkload(trace, event_accesses=self.EVENT)
        assert self._replay_checking(workload, 0) == [0, 0]
        # Every page was read, and all but the last step is gone again:
        # a release that did nothing would leave the whole file resident.
        vpn_path = trace[:-len(".npz")] + ".vpn.npy"
        assert os.path.getsize(vpn_path) > 8 * RELEASE_STEP
        assert _mapped_rss_kb(vpn_path) * 1024 \
            <= RELEASE_STEP + 2 * mmap.PAGESIZE
        assert all(sc.released > 0 for sc in workload._sidecars)

    def test_release_starts_at_the_seek_point(self, trace):
        workload = TraceWorkload(trace, event_accesses=self.EVENT)
        seek = workload.num_replay_events // 2
        workload.seek_events(seek)
        floors = self._replay_checking(workload, seek)
        accesses = workload._access_position(seek)
        for sidecar, floor in zip(workload._sidecars, floors):
            offset = sidecar._offset + accesses * sidecar.array.itemsize
            assert floor == offset - offset % mmap.PAGESIZE

    @pytest.mark.parametrize("event_accesses", [None, 1_000, EVENT])
    @pytest.mark.parametrize("seek", [0, 7])
    def test_reports_between_releases_are_skipped_exactly(
            self, trace, event_accesses, seek):
        """``release_events`` skips the reports before the next release
        falls due; every sidecar's released span still equals releasing
        on each report, from the first report on which one is due."""
        skipping = TraceWorkload(trace, event_accesses=event_accesses)
        every = TraceWorkload(trace, event_accesses=event_accesses)
        skipping.seek_events(seek)
        next(skipping.events(None))
        start = every._access_position(seek)
        for sidecar in every._sidecars:
            sidecar.rewind(start)
        for n in range(seek + 1, skipping.num_replay_events + 1):
            skipping.release_events(n)
            accesses = every._access_position(n)
            for sidecar in every._sidecars:
                sidecar.release(accesses)
            assert ([sc.released for sc in skipping._sidecars]
                    == [sc.released for sc in every._sidecars]), n
        assert all(sc.released > 0 for sc in skipping._sidecars)

    def test_the_engine_releases_what_it_processed(self, trace):
        sim, workload = _replay(trace, macro_batch=262_144,
                                event_accesses=self.EVENT)
        sim.run()
        end = [sc._offset + self.ACCESSES * sc.array.itemsize
               for sc in workload._sidecars]
        for sidecar, cursor in zip(workload._sidecars, end):
            assert cursor - sidecar.released < RELEASE_STEP + mmap.PAGESIZE


# -- bounded memory -------------------------------------------------------------

#: Peak-RSS ceiling for the child replay process.  Interpreter + numpy
#: + engine state measured ~37 MB, and the replay peaked at ~49 MB: its
#: resident trace is the batches in flight.  The trace is sized to at
#: least 2x this cap, so an implementation that materialises the access
#: arrays, or keeps much of them mapped, cannot pass.
RSS_CAP_MB = 64

_CHILD = r"""
import sys
sys.path.insert(0, {src!r})
from repro.policies.registry import make_policy
from repro.sim.engine import Simulation
from repro.sim.machine import MachineSpec
from repro.workloads.trace import TraceWorkload

workload = TraceWorkload({path!r}, event_accesses=65_536)
machine = MachineSpec.from_ratio(workload.total_bytes, ratio="1:8")
sim = Simulation(workload, make_policy("memtis"), machine, seed=3,
                 macro_batch=262_144)
result = sim.run()
# VmHWM, not ru_maxrss: Linux carries ru_maxrss across fork+exec (it
# lives in the signal struct), so the child would report the *parent
# test process's* high-water mark.  VmHWM belongs to this mm only.
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh
                  if line.startswith("VmHWM:"))
print(int(result.metrics.total_accesses), hwm_kb / 1024)
"""


class _BigStream(Workload):
    """Synthetic generator sized in accesses, streamed in 64k events."""

    name = "bigstream"

    def __init__(self, total_accesses, region_bytes=64 * 1024 * 1024):
        super().__init__(total_bytes=region_bytes,
                         total_accesses=total_accesses)

    def events(self, rng):
        pages = self.total_bytes // 4096
        yield AllocEvent("heap", self.total_bytes)
        remaining = self.total_accesses
        while remaining > 0:
            n = min(65_536, remaining)
            vpns = rng.integers(0, pages, n, dtype=np.int64)
            yield AccessEvent.single(
                "heap", AccessBatch(vpns, self._mix_stores(n, 0.3, rng))
            )
            remaining -= n


@pytest.mark.slow
def test_replay_larger_than_ram_cap_stays_bounded():
    """Acceptance: a trace >= 2x the RSS cap replays inside the cap.

    The trace (~300 MB of sidecars) is recorded *streaming* in this
    process, then replayed through a full Simulation in a subprocess so
    ``ru_maxrss`` measures exactly the replay.  The child's peak RSS
    must stay under half the trace size -- impossible if either the
    recorder or the replayer materialised the arrays.
    """
    accesses = 36_000_000  # 9 bytes/access -> ~324 MB of sidecars
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "big.npz")
        stats = record_trace(_BigStream(accesses), path, seed=1)
        assert stats["accesses"] == accesses
        base = path[:-len(".npz")]
        trace_bytes = (os.path.getsize(base + ".vpn.npy")
                       + os.path.getsize(base + ".st.npy"))
        assert trace_bytes >= 2 * RSS_CAP_MB * 1024 * 1024, \
            "trace not large enough to make the cap meaningful"
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        out = subprocess.run(
            [sys.executable, "-c", _CHILD.format(src=src, path=path)],
            capture_output=True, text=True, timeout=540, check=True,
        )
        replayed, peak_mb = out.stdout.split()
        assert int(replayed) == accesses
        assert float(peak_mb) < RSS_CAP_MB, (
            f"replay peaked at {float(peak_mb):.0f} MB "
            f"(cap {RSS_CAP_MB} MB, trace {trace_bytes // 2**20} MB)"
        )
