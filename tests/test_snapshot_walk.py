"""The checkpoint walk (``repro.snapshot.walk``): capture and restore.

Resume bit-identity over the whole registry lives in
``tests/test_policy_zoo.py`` and ``tests/test_snapshot.py``; this file
pins the walk's own rules: a checkpoint that does not fit the fresh
build is refused before anything is written, the restore writes in
place and keeps shared objects shared, and state can only be left out
by naming it.
"""

import importlib.util
import os
import pickle

import numpy as np
import pytest

from repro import snapshot
from repro.mem.tiers import TieredMemory, cxl_spec, dram_spec, nvm_spec
from repro.sim.runner import RunSpec
from repro.snapshot.walk import capture, fields, restore

from conformance import canonical
from conftest import MB, TEST_SCALE


class _Box:
    """A component with one array, one list and one nested object."""

    def __init__(self, n=4, dtype=np.int64):
        self.values = np.zeros(n, dtype=dtype)
        self.queue = []
        self.inner = _Inner()


class _Inner:
    def __init__(self):
        self.count = 0


class _Wired(_Box):
    _CHECKPOINT_EXCLUDE = frozenset({"hook"})

    def __init__(self):
        super().__init__()
        self.hook = print


def _bytes(components):
    """Canonical bytes of the components' captured state."""
    return pickle.dumps(capture(components))


def _refused(fresh, state, match):
    """``restore`` raises ValueError and leaves ``fresh`` untouched."""
    before = _bytes(fresh)
    with pytest.raises(ValueError, match=match):
        restore(fresh, state)
    assert _bytes(fresh) == before


def _spec(**overrides):
    base = dict(workload="silo", policy="memtis", ratio="1:8", seed=11,
                max_accesses=60_000, scale=TEST_SCALE)
    base.update(overrides)
    return RunSpec(**base)


def _ran(spec):
    sim = spec.build()
    sim.run(max_accesses=spec.max_accesses)
    return sim


# -- a checkpoint that does not fit is refused ---------------------------------


class TestRefusesMisfit:
    def _tiers(self, *kinds):
        return TieredMemory.build(*(kind(64 * MB) for kind in kinds))

    def test_tier_count_differs(self):
        saved = self._tiers(dram_spec, cxl_spec, nvm_spec)
        saved.fast.alloc(4096)
        state = capture({"tiers": saved})
        fresh = {"tiers": self._tiers(dram_spec, nvm_spec)}
        _refused(fresh, state, "3 entries, this build has 2")

    def test_tier_count_differs_on_a_whole_simulation(self):
        state = _ran(_spec(machine_preset="dram-cxl-nvm")).state_dict()
        fresh = _spec().build()
        before = pickle.dumps(fresh.state_dict())
        with pytest.raises(ValueError):
            fresh.load_state(state)
        assert pickle.dumps(fresh.state_dict()) == before

    def test_array_shape_differs(self):
        state = capture({"box": _Box(n=4)})
        _refused({"box": _Box(n=5)}, state, r"int64\(4,\).*int64\(5,\)")

    def test_array_dtype_differs(self):
        state = capture({"box": _Box(dtype=np.int64)})
        _refused({"box": _Box(dtype=np.int32)}, state, "int64.*int32")

    def test_attribute_missing_from_the_build(self):
        state = capture({"box": _Box()})
        fresh = _Box()
        del fresh.queue
        _refused({"box": fresh}, state, r"only in the checkpoint: \['queue'\]")

    def test_attribute_extra_in_the_build(self):
        state = capture({"box": _Box()})
        fresh = _Box()
        fresh.added = 1
        _refused({"box": fresh}, state, r"only in this build: \['added'\]")

    def test_object_type_differs(self):
        state = capture({"box": _Box()})
        _refused({"box": _Wired()}, state, "holds a _Box, this build a _Wired")

    def test_component_missing(self):
        state = capture({"box": _Box()})
        with pytest.raises(ValueError, match="components"):
            restore({"box": _Box(), "other": _Box()}, state)

    def test_misfit_deep_in_the_graph_writes_nothing_earlier(self):
        """The check runs over the whole checkpoint before the first
        write: a good component listed first stays untouched."""
        good = _Box()
        good.values[:] = 7
        good.queue.append(3)
        state = capture({"good": good, "bad": _Box(n=4)})
        _refused({"good": _Box(), "bad": _Box(n=6)}, state, "int64")


# -- the restore writes in place ------------------------------------------------


class TestInPlace:
    def test_arrays_and_objects_keep_their_identity(self):
        saved = _Box()
        saved.values[:] = [1, 2, 3, 4]
        saved.queue.extend([5, 6])
        saved.inner.count = 9
        fresh = _Box()
        values, queue, inner = fresh.values, fresh.queue, fresh.inner
        restore({"box": fresh}, capture({"box": saved}))
        assert fresh.values is values and fresh.queue is queue
        assert fresh.inner is inner
        assert fresh.values.tolist() == [1, 2, 3, 4]
        assert fresh.queue == [5, 6] and fresh.inner.count == 9

    def test_restore_does_not_alias_the_checkpoint(self):
        saved = _Box()
        state = capture({"box": saved})
        first, second = _Box(), _Box()
        first.values = None  # built new from the checkpoint
        restore({"box": first}, state)
        first.values[0] = 42
        restore({"box": second}, state)
        assert second.values[0] == 0

    def test_excluded_wiring_survives_and_is_not_saved(self):
        state = capture({"w": _Wired()})
        assert "hook" not in fields(_Wired())
        fresh = _Wired()
        fresh.hook = len
        restore({"w": fresh}, state)
        assert fresh.hook is len

    def test_callable_state_must_be_named(self):
        box = _Box()
        box.inner.fn = print
        with pytest.raises(TypeError, match="_Inner.fn.*_CHECKPOINT_EXCLUDE"):
            capture({"box": box})

    def test_method_overrides_are_wiring(self):
        """An instance attribute replacing a method (a profiler's
        wrapper) is neither saved nor required of the build."""
        box = _Box()
        box.inner.count = 3
        box.inner.__repr__ = lambda: "traced"
        state = capture({"box": box})
        assert "__repr__" not in fields(box.inner)
        fresh = _Box()
        restore({"box": fresh}, state)
        assert fresh.inner.count == 3

    def test_simulation_keeps_shared_objects_shared(self):
        """Instruments the daemons hold, the regions the engine and the
        address space share, and the fold kernel's views of the page
        arrays are the same objects after a resume."""
        state = _ran(_spec()).state_dict()
        sim = _spec().build()
        ks = sim.policy.ksampled
        samples = ks._c_samples
        page_tier = sim.space.page_tier
        sim.load_state(state)
        assert sim.space.page_tier is page_tier
        assert ks._fold_params.page_tier is page_tier
        assert ks._fold_state.sub_count is ks.meta.sub_count
        assert ks._c_samples is samples
        assert sim.obs.counters.get("ksampled/samples") is samples
        assert samples.value > 0
        assert sim._regions
        for key, region in sim._regions.items():
            assert sim.space._regions[region.region_id] is region

    def test_rng_restored_through_its_state(self):
        src = _ran(_spec())
        state = src.state_dict()
        sim = _spec().build()
        rng = sim.rng
        sim.load_state(state)
        assert sim.rng is rng
        assert rng.bit_generator.state == src.rng.bit_generator.state
        assert sim.ctx.rng.bit_generator.state \
            == src.ctx.rng.bit_generator.state


def test_manifest_reads_the_engine_position(tmp_path):
    """The store's manifest takes the engine position from the
    checkpoint's named components."""
    store = snapshot.SnapshotStore(tmp_path / "store")
    spec = _spec(snapshot_every=1)
    spec.execute(snapshots=store)
    record = store.load(spec)
    assert record.manifest["events_consumed"] \
        == record.state["events_consumed"] > 0
    assert record.manifest["now_ns"] == record.state["now_ns"] > 0


def _perfbench_layers():
    """``perfbench/layers.py``, the layer profiler, loaded by path."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "layers.py")
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_profiled_simulation_checkpoints_and_resumes():
    """A simulation whose layers the profiler wrapped (instance
    attributes over the metrics', address space's, TLB's, policy's and
    daemons' methods) checkpoints, and a resume from its checkpoint --
    traced or not -- equals the uninterrupted run."""
    layers = _perfbench_layers()
    spec = _spec(max_accesses=150_000)

    def build(traced):
        sim = spec.build()
        sim.metrics.timeline_interval_ns = 1e6
        if traced:
            layers.instrument_simulation(layers.SpanRecorder(), sim)
        return sim

    def outcome(sim):
        return canonical(sim.run(max_accesses=spec.max_accesses))

    full = outcome(build(traced=False))
    snaps = {}
    sim = build(traced=True)
    sim.snapshot_every = 1
    sim.snapshot_sink = lambda epoch, state: snaps.setdefault(
        epoch, pickle.dumps(state))
    assert outcome(sim) == full
    assert len(snaps) >= 3
    middle = snaps[sorted(snaps)[len(snaps) // 2]]
    for traced in (False, True):
        sim = build(traced)
        sim.load_state(pickle.loads(middle))
        assert outcome(sim) == full
