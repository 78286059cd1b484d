"""The conformance matrix: the run-equality contracts, for every policy.

One home for the canonical result form (:func:`canonical`), the digest
grid (``tests/data/policy_digests.json``), :func:`checkpoint_and_resume`
and :data:`AXES`.  An axis runs a digest cell one way, asserts that the
result equals the pinned digest (``cached`` and ``macro``: the run they
are compared with), and that the path it names actually ran.
``tests/test_policy_zoo.py`` runs every axis on :data:`TIER1_CELLS`
(``pinned`` on :data:`TIER1_PINNED_CELLS`);
``scripts/conformance_grid.py`` runs every axis on the whole grid
(DESIGN.md section 17).
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import itertools
import json
import os
import shutil
import tempfile
import threading
from unittest import mock

from repro import kernels
from repro.mem.pages import BASE_PAGE_SIZE, HUGE_PAGE_SIZE
from repro.obs import Observability, Tracer
from repro.policies.registry import POLICY_REGISTRY
from repro.sim.cache import ResultCache
from repro.sim.engine import Simulation, stream_rng
from repro.sim.macro import EventCoalescer
from repro.sim.runner import RunSpec
from repro.workloads import prefetch
from repro.workloads.registry import make_workload
from repro.workloads.trace import TraceWorkload, share_stream

from conftest import TEST_SCALE

# -- the canonical result form -------------------------------------------------

#: Result fields that record the host, or how the result was obtained,
#: rather than the simulation; each maps to the value it has in the
#: canonical form of a plain run (``None``: left out).  ``tracer`` is
#: the tracer summary under ``observability``.
HOST_FIELDS = {
    "wall_seconds": None,
    "phase_ns": None,
    "from_cache": False,
    "tracer": Tracer().stats(),
}

#: The host fields every two runs differ in.
TIMING = ("wall_seconds", "phase_ns")


def canonical(result, reset=TIMING, observability=True) -> dict:
    """``result.to_dict()`` as the run-equality contracts compare it.

    Each host field in ``reset`` takes its plain-run value
    (:data:`HOST_FIELDS`); an axis resets only the fields its variant
    may change.  ``observability=False`` leaves the counters and tracer
    summary out, as ``tests/data/ntier_pinned_digests.json`` was
    recorded.
    """
    d = result.to_dict()
    for field in reset:
        plain = HOST_FIELDS[field]
        if field == "tracer":
            d["observability"]["tracer"] = plain
        elif plain is None:
            del d[field]
        else:
            d[field] = plain
    if not observability:
        del d["observability"]
    return d


def digest(result, reset=TIMING, observability=True) -> str:
    """sha256 of :func:`canonical`'s compact, key-sorted JSON."""
    blob = json.dumps(canonical(result, reset, observability),
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- the digest grid -----------------------------------------------------------

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "data", "policy_digests.json")
DIGEST_WORKLOADS = ["silo", "btree", "603.bwaves", "phaseflip"]
#: Machine label -> RunSpec fields: two two-tier ratios and the 3-tier
#: preset, so the demotion cascade is pinned too.
DIGEST_MACHINES = {
    "1:2": {"ratio": "1:2"},
    "1:8": {"ratio": "1:8"},
    "1:8-dram-cxl-nvm": {"ratio": "1:8", "machine_preset": "dram-cxl-nvm"},
}
DIGEST_CELLS = list(itertools.product(
    sorted(POLICY_REGISTRY), DIGEST_WORKLOADS, DIGEST_MACHINES))

#: The (workload, machine) cells tier-1 runs every axis on, per policy:
#: one 2-tier and one 3-tier.
TIER1_CELLS = [("silo", "1:8"), ("phaseflip", "1:8-dram-cxl-nvm")]

#: The cells tier-1 runs ``pinned`` on, per policy: :data:`TIER1_CELLS`
#: and, since a plain run is the cheapest axis, every machine for the
#: two cheapest digest workloads.
TIER1_PINNED_CELLS = [(workload, machine)
                      for workload in DIGEST_WORKLOADS
                      for machine in DIGEST_MACHINES
                      if workload in ("phaseflip", "603.bwaves")
                      or (workload, machine) in TIER1_CELLS]


def cell_id(policy, workload, machine) -> str:
    return f"{policy}-{workload}-{machine}"


def digest_spec(policy, workload, machine) -> RunSpec:
    return RunSpec(workload=workload, policy=policy, seed=11,
                   scale=TEST_SCALE, check="strict",
                   **DIGEST_MACHINES[machine])


def load_digests() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def write_digests(path=DIGESTS_PATH):
    """Record the grid's digests (run once, before a refactor)."""
    digests = {cell_id(*cell): digest(digest_spec(*cell).build().run())
               for cell in DIGEST_CELLS}
    with open(path, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- resume --------------------------------------------------------------------


def _first_middle_last(epochs):
    return {epochs[0], epochs[len(epochs) // 2], epochs[-1]}


def _middle(epochs):
    return {epochs[len(epochs) // 2]}


def checkpoint_and_resume(build, outcome, resume_from=_first_middle_last):
    """``run(N)`` against ``run(k) -> save -> load -> run(N-k)``.

    Runs ``build()`` writing a checkpoint at every epoch, then resumes a
    fresh ``build()`` from each checkpoint ``resume_from(epochs)`` picks
    (the first, middle and last).  ``outcome(sim)`` runs a simulation
    and reduces its result.  Returns the checkpointing run's outcome,
    ``{epoch: resumed outcome}`` and the number of checkpoints written.
    """
    snaps = {}
    sim = build()
    sim.snapshot_every = 1
    sim.snapshot_sink = lambda epoch, state: snaps.setdefault(epoch, state)
    captured = outcome(sim)
    epochs = sorted(snaps)
    resumed = {}
    for k in sorted(resume_from(epochs) if epochs else ()):
        sim = build()
        sim.load_state(snaps[k])
        resumed[k] = outcome(sim)
    return captured, resumed, len(epochs)


# -- the axes ------------------------------------------------------------------


def _cpus(n: int):
    """This process may use ``n`` CPUs and shares them with no other."""
    return mock.patch.multiple(prefetch, usable_cpus=lambda: n, _sharers=1)


def _spy(owner, name: str, seen: list):
    """Patch ``owner.name`` to note the calling thread's name first."""
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        seen.append(threading.current_thread().name)
        return real(*args, **kwargs)

    return mock.patch.object(owner, name, spy)


@contextlib.contextmanager
def forced_path(mode: str):
    """``kernels.forced(mode)`` that asserts, on a clean exit, that
    kernel calls ran inside it and every one took the ``mode`` path."""
    paths = []
    path_for = kernels.path_for

    def spy(size, crossover):
        paths.append(path_for(size, crossover))
        return paths[-1]

    with mock.patch.object(kernels, "path_for", spy), kernels.forced(mode):
        yield
    assert paths and set(paths) == {mode}, \
        f"kernel calls took {sorted(set(paths))}"


def _assert_page_sizes(nbytes: int, pages: int, what: str) -> None:
    """``pages`` moved pages, each 4 KiB or 2 MiB, sum to ``nbytes``."""
    huge, rest = divmod(nbytes - BASE_PAGE_SIZE * pages,
                        HUGE_PAGE_SIZE - BASE_PAGE_SIZE)
    assert rest == 0 and 0 <= huge <= pages, \
        f"{what}: {nbytes} bytes are not the sizes of {pages} pages"


def pinned(spec, want):
    """The plain run equals the pinned digest and obeys the conservation
    laws."""
    sim = spec.build()
    result = sim.run()
    assert digest(result) == want, "differs from the pinned digest"
    metrics, series = result.metrics, result.metrics.series
    assert metrics.total_accesses == sim.workload.total_accesses
    assert metrics.total_fast_hits <= metrics.total_accesses
    assert sum(series.window_accesses) == metrics.total_accesses
    assert sum(series.window_fast_hits) == metrics.total_fast_hits
    assert sum(result.phase_ns.values()) <= result.wall_seconds * 1e9
    # Every moved page is 4 KiB or 2 MiB, except that a copy-free
    # demotion (Nomad's clean shadow) counts a page and moves no bytes.
    moves = result.migration
    copy_free = int(result.policy_stats.get("copy_free_demotions", 0))
    _assert_page_sizes(moves.promoted_bytes, moves.promoted_pages,
                       "promotions")
    _assert_page_sizes(moves.demoted_bytes, moves.demoted_pages - copy_free,
                       "copied demotions")
    # A cascade moves whole pages down a tier: a subset of demotions.
    _assert_page_sizes(moves.cascade_bytes, moves.cascade_pages, "cascades")
    assert moves.cascade_pages <= moves.demoted_pages
    assert moves.cascade_bytes <= moves.demoted_bytes


def _resumes_to(spec, want, resume_from=_first_middle_last):
    captured, resumed, checkpoints = checkpoint_and_resume(
        spec.build, lambda sim: digest(sim.run()), resume_from)
    assert checkpoints, "no checkpoint was written"
    assert captured == want, "the checkpointing run differs"
    for k, got in resumed.items():
        assert got == want, f"resume from epoch {k} of {checkpoints} differs"


def resume(spec, want):
    """Checkpointing at every epoch and resuming from the first, middle
    and last checkpoint land on the pinned digest."""
    _resumes_to(spec, want)


def traced(spec, want):
    """A debug-traced run differs from the plain one only in the tracer
    summary."""
    obs = Observability.traced(level="debug")
    result = spec.build(obs=obs).run()
    assert obs.tracer.emitted > 0, "the tracer emitted no event"
    assert digest(result, reset=TIMING + ("tracer",)) == want, \
        "differs from the pinned digest"


def _forced(mode):
    def axis(spec, want):
        with forced_path(mode):
            _resumes_to(spec, want, _middle)

    axis.__doc__ = (f"Every kernel call on the {mode} path: the run that "
                    f"checkpoints every epoch, and a resume from the "
                    f"middle checkpoint, land on the pinned digest.")
    return axis


def direct(spec, want):
    """The engine iterating the stream itself (one CPU, no event helper)
    lands on the pinned digest."""
    started = []
    with _cpus(1), _spy(prefetch.RunAhead, "__init__", started):
        result = spec.build().run()
    assert not started, "the event helper ran"
    assert digest(result) == want, "differs from the pinned digest"


def cached(spec, want):
    """The hit ``RunSpec.run`` serves equals the run that filled the
    cache, but for ``from_cache`` and ``wall_seconds``.

    The unchecked spec: a checked one never reads the cache, and its
    sanitizer counters would differ from the pinned digest anyway.
    """
    spec = spec.replace(check=None)
    with tempfile.TemporaryDirectory() as directory:
        filled = spec.run(cache=ResultCache(directory))
        hit = spec.run(cache=ResultCache(directory))
    assert not filled.from_cache and hit.from_cache, \
        "the second run was not served from the cache"
    reset = ("wall_seconds", "from_cache")
    assert digest(hit, reset) == digest(filled, reset), \
        "the cache hit differs from the run that filled it"


#: Stream key -> a directory holding that stream, recorded once.
_streams = {}


def _recorded(spec) -> str:
    """A streams directory (``RunSpec.build(streams=)``) in which
    ``spec``'s stream is published."""
    key = spec.stream_key()
    if key not in _streams:
        directory = tempfile.mkdtemp(prefix="repro-conformance-streams-")
        atexit.register(shutil.rmtree, directory, True)
        share_stream(make_workload(spec.workload, spec.scale),
                     os.path.join(directory, key), stream_rng(spec.seed))
        _streams[key] = directory
    return _streams[key]


def _replay(spec) -> Simulation:
    """``spec`` built to replay its recorded stream."""
    sim = spec.build(streams=_recorded(spec))
    assert isinstance(sim.workload, TraceWorkload), \
        "the recorded stream was not replayed"
    return sim


def replayed(spec, want):
    """The recorded stream replayed at the cell's own cadence lands on
    the pinned digest."""
    assert digest(_replay(spec).run()) == want, \
        "differs from the pinned digest"


#: The cadence :func:`macro` checks a replay at: every digest workload
#: fuses two or more events into some of its batches there.
MACRO_BATCH = 65_536


def macro(spec, want):
    """At ``macro_batch`` 65536, the recorded stream replayed equals the
    live run at the same cadence."""
    spec = spec.replace(macro_batch=MACRO_BATCH)
    live = spec.build().run()
    fused = []
    fuse = EventCoalescer._fuse

    def spy(pending):
        fused.append(len(pending))
        return fuse(pending)

    with mock.patch.object(EventCoalescer, "_fuse", staticmethod(spy)):
        replay = _replay(spec).run()
    assert max(fused, default=0) >= 2, "no batch fused two or more events"
    assert digest(replay) == digest(live), \
        "the replay differs from the live run"


#: Axis name -> ``check(spec, pinned digest)``; raises AssertionError.
AXES = {
    "pinned": pinned,
    "resume": resume,
    "traced": traced,
    "scalar": _forced(kernels.SCALAR),
    "vectorized": _forced(kernels.VECTORIZED),
    "direct": direct,
    "cached": cached,
    "replayed": replayed,
    "macro": macro,
}


def check(axis, cell, digests):
    """Run ``axis`` on the digest cell ``(policy, workload, machine)``
    against ``digests`` (:func:`load_digests`)."""
    AXES[axis](digest_spec(*cell), digests[cell_id(*cell)])
