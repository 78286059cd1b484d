"""Trace recording and replay (streamed, memory-mapped).

Any workload's event stream can be serialised to a compact trace and
replayed later — useful for (a) bit-identical comparisons across
policies without regenerating the synthetic stream, (b) sharing
workloads, and (c) plugging *real* traces (e.g. converted PEBS dumps)
into the simulator: build the same layout and :class:`TraceWorkload`
will drive it.

Format v2 (default) — one small metadata ``.npz`` plus two
memory-mappable ``.npy`` sidecars next to it:

``<name>.npz`` (metadata, loaded in RAM; everything scales with event
count, not access count):

* ``format_version``  int      -- 2
* ``event_kind``  int8[E]   -- 0 alloc, 1 free, 2 access
* ``event_arg``   int64[E]  -- alloc: nbytes; free: 0; access: segment count
* ``event_key``   str[E]    -- region key for alloc/free, "" for access
* ``event_thp``   bool[E]   -- alloc THP flag
* ``seg_key``     str[S]    -- region key per access segment
* ``seg_len``     int64[S]  -- accesses per segment
* ``seg_interleave`` bool[S]
* ``total_bytes`` / ``total_accesses``
* ``bounds_valid`` bool     -- every offset verified < its region's
  page count at record time, so the engine can skip its per-segment
  bounds scan on replay

``<name>.vpn.npy`` (int64[N]) and ``<name>.st.npy`` (bool[N]) hold the
concatenated region-relative offsets and store flags.  They are written
*streaming* — the recorder never materialises the access stream — and
replayed through a read-only ``mmap`` of each sidecar, so traces larger
than RAM record and replay in bounded memory.  As the engine finishes
with replayed events (:meth:`TraceWorkload.release_events`), the pages
wholly behind them are released back to the OS
(``madvise(MADV_DONTNEED)``) in :data:`RELEASE_STEP` steps, so peak RSS
is bounded by the batches the engine holds, not by the trace's length.

:class:`TraceWriter` writes this layout one event at a time, and
:func:`record_trace` drives it from a generator.  A sweep's cells share
one generated stream by recording it once and replaying it
(:func:`share_stream`).

Format v1 (single ``.npz`` holding ``vpn``/``is_store`` inline, no
``format_version`` field) is still read transparently; it is no longer
written.  Any other version is rejected.

The metadata is read with ``allow_pickle=False``: the key arrays are
fixed-width ``str``.  Earlier writers stored them as object arrays (the
v1 fixture, older v2 traces); those are unpickled by a reader that
rebuilds an array of ``str`` and refuses any other global, so a trace
from outside the program cannot run code when it is opened.
"""

from __future__ import annotations

import bisect
import itertools
import mmap as _mmap
import os
import pickle
import shutil
import struct
from typing import Iterator, Optional, Union

import numpy as np

from repro.pebs.events import AccessBatch
from repro.workloads.base import AccessEvent, AllocEvent, FreeEvent, Workload

KIND_ALLOC, KIND_FREE, KIND_ACCESS = 0, 1, 2

#: Bump when the on-disk layout changes incompatibly.
TRACE_FORMAT_VERSION = 2

#: Fixed byte length of the streamed-``.npy`` header (magic + version +
#: header-length field + padded dict).  Reserving a constant size lets
#: the writer patch the true element count into the header on close
#: without rewriting the data.
_NPY_HEADER_LEN = 128

#: A replay releases a sidecar's consumed pages once this many bytes of
#: it lie behind the engine, so the ``madvise`` calls stay few while at
#: most one step of consumed trace stays resident per sidecar.
RELEASE_STEP = 1 << 20


def _sidecar_paths(path: str):
    meta_path = path if str(path).endswith(".npz") else str(path) + ".npz"
    base = meta_path[: -len(".npz")]
    return meta_path, base + ".vpn.npy", base + ".st.npy"


def _npy_header(dtype: np.dtype, count: int) -> bytes:
    """A fixed-width v1.0 ``.npy`` header for a 1-D array of ``count``."""
    descr = np.lib.format.dtype_to_descr(np.dtype(dtype))
    body = ("{'descr': %r, 'fortran_order': False, 'shape': (%d,), }"
            % (descr, count))
    pad = _NPY_HEADER_LEN - 10 - 1 - len(body)
    if pad < 0:
        raise ValueError(f"npy header too long for {descr!r} x {count}")
    body = body + " " * pad + "\n"
    return (b"\x93NUMPY" + bytes([1, 0])
            + struct.pack("<H", len(body)) + body.encode("latin1"))


class NpyStreamWriter:
    """Append-only ``.npy`` writer with a header patched on close.

    The element count is unknown until the stream ends, so a
    placeholder header is written first and overwritten (same byte
    length) once the count is final.  The result is a completely
    standard ``.npy`` file that ``np.load(mmap_mode="r")`` maps
    directly.
    """

    def __init__(self, path: str, dtype):
        self.path = str(path)
        self.dtype = np.dtype(dtype)
        self.count = 0
        self._f = open(self.path, "wb")
        self._f.write(_npy_header(self.dtype, 0))

    def append(self, values: np.ndarray) -> None:
        arr = np.ascontiguousarray(values, dtype=self.dtype)
        self._f.write(memoryview(arr))
        self.count += len(arr)

    def close(self) -> None:
        if self._f.closed:
            return
        self._f.flush()
        self._f.seek(0)
        self._f.write(_npy_header(self.dtype, self.count))
        self._f.close()


class TraceWriter:
    """Streams workload events into a v2 trace as they arrive.

    :meth:`add` appends one event: its access arrays go straight to the
    ``.npy`` sidecars, so memory is bounded by the event metadata, not
    the access count.  :meth:`finish` writes the metadata ``.npz`` and
    completes the trace; :meth:`close` only closes the sidecars (a
    trace left unfinished has no ``.npz`` and cannot be replayed).
    """

    def __init__(self, path: str):
        self.meta_path, vpn_path, st_path = _sidecar_paths(path)
        self._kinds, self._args, self._keys, self._thps = [], [], [], []
        self._seg_keys, self._seg_lens, self._seg_inter = [], [], []
        self._vpn = NpyStreamWriter(vpn_path, np.int64)
        self._st = NpyStreamWriter(st_path, bool)
        self.accesses = 0
        # Conservative per-region page counts (no 2 MiB round-up):
        # offsets verified against these can never trip the engine's
        # bounds guard, so replay may skip the per-segment scan
        # (``bounds_valid``).
        self._region_pages = {}
        self._bounds_valid = True

    def add(self, event) -> None:
        """Append one workload event."""
        if isinstance(event, AllocEvent):
            self._event(KIND_ALLOC, event.nbytes, event.key, event.thp)
            self._region_pages[event.key] = -(-event.nbytes // 4096)
        elif isinstance(event, FreeEvent):
            self._event(KIND_FREE, 0, event.key, False)
            self._region_pages.pop(event.key, None)
        elif isinstance(event, AccessEvent):
            self._event(KIND_ACCESS, len(event.segments), "", False)
            for key, batch in event.segments:
                self._seg_keys.append(key)
                self._seg_lens.append(len(batch))
                self._seg_inter.append(event.interleave)
                if len(batch):
                    limit = self._region_pages.get(key)
                    if limit is None or int(batch.vpn.max()) >= limit:
                        self._bounds_valid = False
                self._vpn.append(batch.vpn)
                self._st.append(batch.is_store)
                self.accesses += len(batch)

    def _event(self, kind: int, arg: int, key: str, thp: bool) -> None:
        self._kinds.append(kind)
        self._args.append(arg)
        self._keys.append(key)
        self._thps.append(thp)

    def close(self) -> None:
        """Close the sidecars (idempotent)."""
        self._vpn.close()
        self._st.close()

    def finish(self, total_bytes: int) -> dict:
        """Write the metadata and return stats (events, accesses)."""
        self.close()
        np.savez_compressed(
            self.meta_path,
            format_version=np.int64(TRACE_FORMAT_VERSION),
            event_kind=np.array(self._kinds, dtype=np.int8),
            event_arg=np.array(self._args, dtype=np.int64),
            event_key=np.array(self._keys, dtype=str),
            event_thp=np.array(self._thps, dtype=bool),
            seg_key=np.array(self._seg_keys, dtype=str),
            seg_len=np.array(self._seg_lens, dtype=np.int64),
            seg_interleave=np.array(self._seg_inter, dtype=bool),
            total_bytes=np.int64(total_bytes),
            total_accesses=np.int64(self.accesses),
            bounds_valid=np.bool_(self._bounds_valid),
        )
        return {"events": len(self._kinds), "accesses": self.accesses}


#: The only globals a legacy metadata pickle may name: what an object
#: array of ``str`` pickles to (numpy 1.x and 2.x module paths).
_META_PICKLE_GLOBALS = frozenset({
    ("numpy.core.multiarray", "_reconstruct"),
    ("numpy._core.multiarray", "_reconstruct"),
    ("numpy", "ndarray"),
    ("numpy", "dtype"),
})


class _MetaUnpickler(pickle.Unpickler):
    """Rebuilds an ndarray and its dtype; refuses every other global."""

    def find_class(self, module, name):
        if (module, name) not in _META_PICKLE_GLOBALS:
            raise pickle.UnpicklingError(
                f"trace metadata may not load {module}.{name}")
        return super().find_class(module, name)


def _read_npy_header(fp):
    """``(shape, fortran_order, dtype)`` of the ``.npy`` at ``fp``,
    which is left at the start of the data."""
    fmt = np.lib.format
    version = fmt.read_magic(fp)
    if version == (1, 0):
        return fmt.read_array_header_1_0(fp)
    if version == (2, 0):
        return fmt.read_array_header_2_0(fp)
    raise ValueError(f"unsupported .npy version {version}")


def _legacy_str_array(fp) -> np.ndarray:
    """An object-dtype ``.npy`` member of ``str`` keys, unpickled by
    :class:`_MetaUnpickler`."""
    _read_npy_header(fp)
    arr = _MetaUnpickler(fp).load()
    if not (isinstance(arr, np.ndarray)
            and all(isinstance(key, str) for key in arr.flat)):
        raise ValueError("a trace key array must hold str keys")
    return arr.astype(str)


def _load_meta(meta_path: str) -> dict:
    """Every array of a trace's metadata ``.npz``, loaded without pickle.

    The key arrays are fixed-width ``str``.  Traces written before they
    were hold them as object arrays, which go through
    :class:`_MetaUnpickler`, so opening a trace never runs code it
    carries.
    """
    out = {}
    with np.load(meta_path, allow_pickle=False) as meta:
        for name in meta.files:
            try:
                out[name] = meta[name]
            except ValueError:  # an object array
                if name not in ("event_key", "seg_key"):
                    raise
                with meta.zip.open(name + ".npy") as fp:
                    out[name] = _legacy_str_array(fp)
    return out


def record_trace(workload: Workload, path: str,
                 seed: Union[int, np.random.Generator] = 42,
                 max_accesses: Optional[int] = None) -> dict:
    """Run ``workload``'s generator and save its event stream (v2).

    ``seed`` is what :func:`numpy.random.default_rng` takes: an int, or
    the generator itself (:func:`repro.sim.engine.stream_rng` gives the
    one a simulation would draw the stream from).  Returns a small
    stats dict (events, accesses).  The access arrays stream to the
    ``.npy`` sidecars as they are generated (:class:`TraceWriter`).
    """
    writer = TraceWriter(path)
    try:
        for event in workload.events(np.random.default_rng(seed)):
            writer.add(event)
            if max_accesses is not None and writer.accesses >= max_accesses:
                break
        return writer.finish(workload.total_bytes)
    finally:
        writer.close()


class _Sidecar:
    """One ``.npy`` sidecar mapped read-only, with its release cursor.

    ``array`` is a plain read-only ``ndarray`` over the mapping, at the
    data offset the header gives, so slicing it runs no per-slice hooks.
    ``released`` is the file offset below which :meth:`release` has
    dropped the pages (a page multiple); each call releases only the
    span past it.
    """

    def __init__(self, path: str):
        with open(path, "rb") as fh:
            (count,), _fortran, dtype = _read_npy_header(fh)
            self._offset = fh.tell()
            self._map = _mmap.mmap(fh.fileno(), 0, access=_mmap.ACCESS_READ)
        self.array = np.frombuffer(self._map, dtype=dtype, count=count,
                                   offset=self._offset)
        self.released = 0

    def _page_end(self, accesses: int) -> int:
        """File offset of the last page boundary at or before access
        ``accesses``: the pages before it hold only earlier accesses."""
        end = self._offset + accesses * self.array.itemsize
        return end - end % _mmap.PAGESIZE

    def rewind(self, accesses: int) -> None:
        """Start the release cursor at access ``accesses``."""
        self.released = self._page_end(accesses)

    def due(self) -> int:
        """Fewest accesses at which :meth:`release` next drops pages."""
        return -(-(self.released + RELEASE_STEP - self._offset)
                 // self.array.itemsize)

    def release(self, accesses: int) -> None:
        """Drop the pages wholly before access ``accesses`` once they
        reach :data:`RELEASE_STEP` bytes past the cursor."""
        end = self._page_end(accesses)
        if end - self.released >= RELEASE_STEP:
            self._map.madvise(_mmap.MADV_DONTNEED, self.released,
                              end - self.released)
            self.released = end


class TraceWorkload(Workload):
    """Replays a trace recorded with :func:`record_trace`.

    v2 traces replay through memory-mapped sidecars: each emitted
    :class:`AccessBatch` is a zero-copy slice of a plain read-only
    ``ndarray`` view over the mapping, and a replay position counts
    *replayed events* and is seekable in O(log E) via
    :meth:`seek_events` (the engine uses this to fast-forward a resumed
    run without regenerating skipped events).  ``mmap=False`` loads the
    sidecars into memory instead (the reference replay tests compare
    against); v1 traces always load in memory.

    ``event_accesses`` re-chunks replay granularity: access events are
    split into consecutive events of at most that many accesses
    (segments sliced across the boundary, per-access order preserved).
    Real traces — PEBS-style dumps — arrive at whatever granularity the
    collector used; this knob decouples replay cadence from it, and the
    benchmark harness uses it to model fine-grained traces.

    The engine reports the replayed events it has finished with
    (:meth:`release_events`), and the mapped pages wholly behind them
    are released with ``madvise(MADV_DONTNEED)``, so a replay's resident
    trace is the batches the engine holds plus at most
    :data:`RELEASE_STEP` bytes per sidecar, whatever the trace's length.
    Released pages re-fault from the file if read again, so no result
    depends on the release.
    """

    name = "trace"
    paper_rss_gb = 0.0
    #: Each event is a view of the mapping (~4 us to build): handing it
    #: over from a helper thread would cost more than it saves.
    prefetch_events = False

    def __init__(self, path: str, event_accesses: Optional[int] = None,
                 mmap: bool = True):
        meta_path, vpn_path, st_path = _sidecar_paths(path)
        meta = _load_meta(meta_path)
        version = (int(meta["format_version"])
                   if "format_version" in meta else 1)
        if version not in (1, TRACE_FORMAT_VERSION):
            raise ValueError(
                f"{meta_path}: unknown trace format version {version} "
                f"(this build reads 1 and {TRACE_FORMAT_VERSION})"
            )
        super().__init__(
            total_bytes=int(meta["total_bytes"]),
            total_accesses=max(1, int(meta["total_accesses"])),
        )
        if event_accesses is not None and event_accesses <= 0:
            raise ValueError(
                f"event_accesses must be positive, got {event_accesses}"
            )
        self.path = path
        self.format_version = version
        self.event_accesses = event_accesses

        self._kinds = meta["event_kind"]
        self._args = meta["event_arg"]
        self._keys = meta["event_key"]
        self._thps = meta["event_thp"]
        self._seg_key = [str(key) for key in meta["seg_key"]]
        self._seg_len = meta["seg_len"]
        self._seg_inter = meta["seg_interleave"]
        #: The mapped sidecars (v2 with ``mmap`` only), vpn then flags.
        self._sidecars = ()
        if version == 1:
            self._vpn = meta["vpn"]
            self._is_store = meta["is_store"]
        else:
            if mmap:
                self._sidecars = (_Sidecar(vpn_path), _Sidecar(st_path))
                self._vpn, self._is_store = (
                    sidecar.array for sidecar in self._sidecars)
            else:
                self._vpn = np.load(vpn_path)
                self._is_store = np.load(st_path)
            if bool(meta.get("bounds_valid", False)):
                # Offsets were verified against their regions at record
                # time; the engine's per-segment scan is redundant.
                self.needs_bounds_check = False

        # Replay index: per-event segment spans, per-segment access
        # spans, and per-event replayed-chunk counts (all O(E + S)).
        kinds = np.asarray(self._kinds)
        nseg = np.where(kinds == KIND_ACCESS,
                        np.asarray(self._args, dtype=np.int64), 0)
        self._ev_seg_start = np.concatenate(
            [[0], np.cumsum(nseg)]).astype(np.int64)
        seg_vpn_start = np.concatenate(
            [[0], np.cumsum(np.asarray(self._seg_len, dtype=np.int64))]
        ).astype(np.int64)
        ev_accesses = (
            seg_vpn_start[self._ev_seg_start[1:]]
            - seg_vpn_start[self._ev_seg_start[:-1]]
        )
        # Segment keys and offsets as Python objects: the replay loop
        # would otherwise convert a numpy scalar per segment it slices.
        self._seg_vpn_start = seg_vpn_start.tolist()
        #: Accesses before each event (one more entry: the total).
        self._ev_access_start = seg_vpn_start[self._ev_seg_start].tolist()
        if event_accesses is None:
            chunks = np.ones(len(kinds), dtype=np.int64)
        else:
            chunks = np.maximum(
                1, -(-ev_accesses // int(event_accesses)))
            chunks[kinds != KIND_ACCESS] = 1
        self._ev_chunks = chunks
        self._replay_start = np.concatenate(
            [[0], np.cumsum(chunks)]).astype(np.int64).tolist()
        #: Where the next ``events()`` call begins, in replayed events
        #: (one-shot, then resets to 0).
        self._start = 0
        self._schedule_release()

    @property
    def num_replay_events(self) -> int:
        """Total events :meth:`events` yields at this granularity."""
        return self._replay_start[-1]

    # -- cursor ------------------------------------------------------------

    def seek_events(self, num_events: int) -> None:
        """Fast-forward the next :meth:`events` call past ``num_events``
        replayed events (O(log E); nothing is generated or read)."""
        if num_events < 0:
            raise ValueError(f"cannot seek to {num_events}")
        self._start = int(num_events)

    def _access_position(self, num_events: int) -> int:
        """Accesses in the first ``num_events`` replayed events."""
        if num_events >= self.num_replay_events:
            return self._ev_access_start[-1]
        rs = self._replay_start
        i = bisect.bisect_right(rs, num_events) - 1
        return (self._ev_access_start[i]
                + (num_events - rs[i]) * (self.event_accesses or 0))

    def _events_reaching(self, accesses: int):
        """Fewest replayed events holding ``accesses`` (> 0) accesses
        (infinite past the trace's end)."""
        eas, rs = self._ev_access_start, self._replay_start
        i = bisect.bisect_left(eas, accesses)
        if i == len(eas):
            return float("inf")
        if self.event_accesses is None:
            return rs[i]
        # Every replayed chunk of event i - 1 but its last is full.
        chunks = -(-(accesses - eas[i - 1]) // self.event_accesses)
        return min(rs[i - 1] + chunks, rs[i])

    def _schedule_release(self) -> None:
        """Note the replayed event count at which a sidecar's next
        release falls due, so that reports before it cost one compare."""
        self._release_due = (
            self._events_reaching(min(s.due() for s in self._sidecars))
            if self._sidecars else float("inf"))

    def release_events(self, num_events: int) -> None:
        """The caller is done with the first ``num_events`` replayed
        events: release the mapped pages wholly behind them, in
        :data:`RELEASE_STEP` steps (a no-op for an in-memory trace)."""
        if num_events < self._release_due:
            return
        accesses = self._access_position(num_events)
        for sidecar in self._sidecars:
            sidecar.release(accesses)
        self._schedule_release()

    # -- replay ------------------------------------------------------------

    def events(self, rng: np.random.Generator) -> Iterator[object]:
        start = self._start
        self._start = 0
        if self._sidecars:
            accesses = self._access_position(start)
            for sidecar in self._sidecars:
                sidecar.rewind(accesses)
            self._schedule_release()
        if start >= self.num_replay_events and self.num_replay_events:
            return
        kinds, args = self._kinds, self._args
        keys, thps = self._keys, self._thps
        seg_key, seg_inter = self._seg_key, self._seg_inter
        ev_seg_start, svs = self._ev_seg_start, self._seg_vpn_start
        replay_start = self._replay_start
        vpn, is_store = self._vpn, self._is_store
        g = self.event_accesses

        first = max(0, bisect.bisect_right(replay_start, start) - 1)
        for i in range(first, len(kinds)):
            kind = int(kinds[i])
            if kind == KIND_ALLOC:
                yield AllocEvent(str(keys[i]), int(args[i]),
                                 thp=bool(thps[i]))
                continue
            if kind == KIND_FREE:
                yield FreeEvent(str(keys[i]))
                continue
            s0, s1 = int(ev_seg_start[i]), int(ev_seg_start[i + 1])
            a0, a1 = svs[s0], svs[s1]
            interleave = bool(seg_inter[s1 - 1]) if s1 > s0 else False
            if g is None:
                # Native granularity: reconstruct the recorded event
                # exactly (zero-length segments included).
                segments = [
                    (seg_key[j],
                     AccessBatch(vpn[svs[j]:svs[j + 1]],
                                 is_store[svs[j]:svs[j + 1]]))
                    for j in range(s0, s1)
                ]
                yield AccessEvent(segments, interleave=interleave)
            else:
                chunk0 = start - replay_start[i] if i == first else 0
                for c in range(chunk0, int(self._ev_chunks[i])):
                    lo = a0 + c * g
                    hi = min(a1, lo + g)
                    j = bisect.bisect_right(svs, lo, s0, s1 + 1) - 1
                    segments = []
                    while j < s1 and svs[j] < hi:
                        sa, sb = max(lo, svs[j]), min(hi, svs[j + 1])
                        if sb > sa:
                            segments.append(
                                (seg_key[j],
                                 AccessBatch(vpn[sa:sb], is_store[sa:sb]))
                            )
                        j += 1
                    yield AccessEvent(segments, interleave=interleave)


#: File name of a shared stream's trace inside its directory.
_STREAM_FILE = "stream"


def share_stream(live: Workload, directory: str,
                 rng: np.random.Generator) -> TraceWorkload:
    """The workload a sweep cell runs when it shares its stream.

    If no stream is published at ``directory`` yet, ``live`` is first
    recorded from ``rng`` (:func:`record_trace`, to its end) into a
    private directory made next to ``directory``, which is then renamed
    to ``directory`` in one atomic step.  If another cell published
    first, the rename fails and the copy is discarded; so is the copy
    of a recording that raises.  A killed process leaves its private
    directory behind, never a partial stream at ``directory``.

    Every cell, the recording one included, then replays the published
    stream, reporting ``live``'s name and nominal ``total_accesses``,
    so its result and progress are the live run's.
    """
    if not os.path.isdir(directory):
        private = _private_dir(directory)
        try:
            record_trace(live, os.path.join(private, _STREAM_FILE), seed=rng)
            try:
                os.rename(private, directory)
            except OSError:
                if not os.path.isdir(directory):
                    raise
                # Another cell published this stream first.
        finally:
            shutil.rmtree(private, ignore_errors=True)
    replay = TraceWorkload(os.path.join(directory, _STREAM_FILE))
    replay.name = live.name
    replay.total_accesses = live.total_accesses
    return replay


def _private_dir(directory: str) -> str:
    """Make and return a fresh ``<directory>.<pid>.<n>``."""
    for n in itertools.count():
        path = f"{directory}.{os.getpid()}.{n}"
        try:
            os.mkdir(path)
            return path
        except FileExistsError:
            continue
