"""Macro-batch engine: coalescer semantics and differential bit-identity.

The contract of :mod:`repro.sim.macro` (see its module docstring):

* ``macro_batch = 0`` coalesces at target 1 -- one workload event per
  engine batch, each passed through unchanged;
* ``macro_batch = N > 0`` is a different (coarser) cadence, part of the
  spec's cache identity, but the *access stream* the engine sees is a
  pure re-grouping of the workload's event stream;
* at either cadence the staged fusion (``vectorized`` kernel mode) is
  bit-identical to the reference fusion (``scalar``) -- per
  ``SimResult.to_dict()`` minus wall-clock fields -- under
  ``REPRO_CHECK=strict`` and through the snapshot kill/resume matrix;
* an error raised while batch k+1 is fused reaches the engine after
  batch k is recorded, and never when the run stops at k;
* the batch just simulated is freed before the next one is fused.
"""

import dataclasses
import threading
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels, snapshot
from repro.check import FaultConfig, FaultInjector, SimulationKilled
from repro.pebs.events import AccessBatch
from repro.policies.registry import make_policy
from repro.policies.static import AllFastPolicy
from repro.sim import macro
from repro.sim.engine import Simulation
from repro.sim.machine import MachineSpec
from repro.sim.runner import RunSpec
from repro.workloads import prefetch
from repro.workloads.base import AccessEvent, AllocEvent, FreeEvent
from repro.workloads.registry import make_workload
from repro.workloads.trace import TraceWorkload, record_trace

from conformance import canonical, checkpoint_and_resume
from conftest import TEST_SCALE
from test_engine import ScriptedWorkload, machine

MB = 1024 * 1024
EPOCH_NS = 1e6
#: Small enough that a 150k-access run spans several macro-batches.
MACRO = 65_536


def _spec(**overrides):
    base = dict(
        workload="silo", policy="memtis", ratio="1:8", seed=11,
        max_accesses=150_000, scale=TEST_SCALE, macro_batch=MACRO,
    )
    base.update(overrides)
    return RunSpec(**base)


def _build(spec, faults=None):
    sim = spec.build(faults=faults)
    sim.metrics.timeline_interval_ns = EPOCH_NS
    return sim


def _run(spec, mode):
    with kernels.forced(mode):
        return canonical(_build(spec).run(max_accesses=spec.max_accesses))


class _BatchRecorder(AllFastPolicy):
    """Keeps the vpn order of every batch the engine hands the policy."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def on_batch(self, obs):
        self.seen.append(obs.batch.vpn.copy())
        return super().on_batch(obs)


# -- coalescer unit behaviour --------------------------------------------------


def _access(n, key="r"):
    return AccessEvent.single(key, AccessBatch.loads(np.arange(n)))


class TestEventCoalescer:
    def test_groups_to_target(self):
        events = [_access(10) for _ in range(7)]
        items = list(macro.EventCoalescer(iter(events), target=30))
        assert [item.events_fused for item in items] == [3, 3, 1]
        assert [item.event.num_accesses for item in items] == [30, 30, 10]
        # Per-access order is the per-event order.
        fused = AccessBatch.concat(
            [b for item in items for _k, b in item.event.segments]
        )
        original = AccessBatch.concat(
            [b for ev in events for _k, b in ev.segments]
        )
        assert np.array_equal(fused.vpn, original.vpn)

    def test_alloc_free_are_barriers(self):
        events = [
            AllocEvent("a", 4096), _access(10, "a"), _access(10, "a"),
            FreeEvent("a"), AllocEvent("b", 4096), _access(10, "b"),
        ]
        items = list(macro.EventCoalescer(iter(events), target=1000))
        kinds = [type(item.event).__name__ for item in items]
        assert kinds == ["AllocEvent", "AccessEvent", "FreeEvent",
                        "AllocEvent", "AccessEvent"]
        # The pending group flushed *before* the free, not after.
        assert items[1].events_fused == 2

    def test_trailing_flush_passes_lone_event_through(self):
        lone = _access(5)
        items = list(macro.EventCoalescer(iter([lone]), target=1000))
        assert len(items) == 1 and items[0].events_fused == 1
        assert items[0].event is lone  # unfused: same object, no copy

    def test_interleave_is_sticky(self):
        plain = _access(10)
        shuffled = AccessEvent.single("r", AccessBatch.loads(np.arange(10)))
        shuffled.interleave = True
        items = list(macro.EventCoalescer(iter([plain, shuffled]), target=15))
        assert items[0].event.interleave

    def test_target_one_yields_every_event_alone(self):
        """An empty access event is not held back for the next one."""
        empty = AccessEvent([], interleave=True)
        events = [AllocEvent("r", 4096), empty, _access(3), _access(3)]
        items = list(macro.EventCoalescer(iter(events), target=1))
        assert [item.event for item in items] == events
        assert all(item.events_fused == 1 for item in items)

    def test_rejects_bad_target_and_unknown_events(self):
        with pytest.raises(ValueError):
            macro.EventCoalescer(iter([]), target=0)
        with pytest.raises(TypeError):
            list(macro.EventCoalescer(iter([object()]), target=10))

    def test_mode_resolution(self, monkeypatch):
        """Fusion follows the one kernel-mode switch."""
        monkeypatch.delenv("REPRO_SCALAR_KERNELS", raising=False)
        assert kernels.active_mode() == kernels.AUTO
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "0")
        assert kernels.active_mode() == kernels.AUTO
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "vectorized")
        assert kernels.active_mode() == kernels.VECTORIZED
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "1")
        assert kernels.active_mode() == kernels.SCALAR
        monkeypatch.setenv("REPRO_SCALAR_KERNELS", "validate")
        assert kernels.active_mode() == kernels.VALIDATE
        with kernels.forced(kernels.VECTORIZED):
            assert kernels.active_mode() == kernels.VECTORIZED
        with pytest.raises(ValueError):
            with kernels.forced("bogus"):
                pass


# -- spec identity -------------------------------------------------------------


class TestSpecIdentity:
    def test_macro_batch_omitted_when_zero(self):
        legacy = _spec(macro_batch=0)
        assert "macro_batch" not in legacy.to_dict()
        assert _spec().to_dict()["macro_batch"] == MACRO

    def test_macro_batch_changes_cache_key(self):
        """A different cadence is a different result: distinct keys."""
        assert _spec().cache_key() != _spec(macro_batch=0).cache_key()
        assert _spec().cache_key() != _spec(macro_batch=MACRO * 2).cache_key()

    def test_zero_macro_batch_preserves_legacy_key(self):
        """macro_batch=0 serialises exactly like a pre-macro spec, so
        historical cache entries and snapshot layouts stay valid."""
        d = _spec(macro_batch=0).to_dict()
        roundtrip = RunSpec.from_dict(d)
        assert roundtrip == _spec(macro_batch=0)
        assert RunSpec.from_dict(_spec().to_dict()) == _spec()

    def test_negative_macro_batch_rejected(self):
        with pytest.raises(ValueError):
            _spec(macro_batch=-1)
        sim = _spec(macro_batch=0).build()
        with pytest.raises(ValueError):
            Simulation(sim.workload, sim.policy, sim.machine,
                       macro_batch=-4)


# -- fusion and interleave exactness -------------------------------------------


def _frozen(batch):
    """``batch`` with read-only arrays: any write into it raises."""
    batch.vpn.flags.writeable = False
    batch.is_store.flags.writeable = False
    return batch


#: Random engine batches: ``(region base, part length)`` per part.  Bases
#: come from a small pool so zero bases, non-zero bases and the same
#: region repeated all occur; lengths include empty parts.
_PARTS = st.lists(
    st.tuples(st.sampled_from([0, 0, 512, 4096, 1 << 20]),
              st.integers(0, 40)),
    min_size=0, max_size=12,
)


def _parts(spec, seed):
    rng = np.random.default_rng(seed)
    regions, rels = [], []
    pool = {}
    for base, n in spec:
        # One region object per base: a repeated base is the same region.
        regions.append(pool.setdefault(base, SimpleNamespace(base_vpn=base)))
        rels.append(_frozen(AccessBatch(rng.integers(0, 1 << 16, n),
                                        rng.random(n) < 0.3)))
    return regions, rels


def _shuffled_reference(batch, rng):
    """The interleave's specification: one ``rng.permutation`` applied to
    both arrays."""
    order = rng.permutation(len(batch))
    return batch.vpn[order], batch.is_store[order]


class TestFusionExactness:
    @settings(max_examples=200, deadline=None)
    @given(spec=_PARTS, seed=st.integers(0, 2**32 - 1))
    def test_staged_equals_reference(self, spec, seed):
        """Zero and non-zero bases, empty parts, one part, a region
        repeated: both fusions give the same arrays and neither writes a
        part (the parts are read-only)."""
        regions, rels = _parts(spec, seed)
        staged = Simulation._fuse_staged(regions, rels)
        ref = Simulation._fuse_reference(regions, rels)
        assert staged.vpn.dtype == ref.vpn.dtype == np.int64
        assert np.array_equal(staged.vpn, ref.vpn)
        assert np.array_equal(staged.is_store, ref.is_store)

    @settings(max_examples=100, deadline=None)
    @given(spec=_PARTS, seed=st.integers(0, 2**32 - 1))
    def test_interleave_in_place_equals_copying(self, spec, seed):
        """Shuffling in the fused buffer gives the arrays and RNG state
        of shuffling a copy, and both equal one ``rng.permutation``."""
        regions, rels = _parts(spec, seed)
        sim = Simulation(ScriptedWorkload([]), AllFastPolicy(), machine(),
                         seed=seed)
        fused = Simulation._fuse_staged(regions, rels)
        expect_vpn, expect_st = _shuffled_reference(
            fused, np.random.default_rng(seed))
        sim.rng = np.random.default_rng(seed)
        copied = sim._interleave(_frozen(AccessBatch(fused.vpn.copy(),
                                                     fused.is_store)),
                                 True, False, sim.rng)
        copy_state = sim.rng.bit_generator.state
        sim.rng = np.random.default_rng(seed)
        owned = AccessBatch(fused.vpn.copy(), fused.is_store.copy())
        owned.is_store.flags.writeable = False
        in_place = sim._interleave(owned, True, True, sim.rng)
        assert sim.rng.bit_generator.state == copy_state
        for got in (copied, in_place):
            assert np.array_equal(got.vpn, expect_vpn)
            assert np.array_equal(got.is_store, expect_st)

    @pytest.mark.parametrize("macro_batch", [0, 1, 4096])
    def test_read_only_parts_run_interleaved(self, macro_batch):
        """A workload's arrays are never written: read-only parts (one
        at base 0, one rebased, several fused) run to the result of the
        same script with writable arrays."""
        def script(freeze):
            rng = np.random.default_rng(5)
            wrap = _frozen if freeze else (lambda b: b)
            events = [AllocEvent("a", 64 * 4096), AllocEvent("b", 64 * 4096)]
            for i in range(12):
                key = "ab"[i % 2] if i < 6 else "a"
                n = 300 if i % 3 else 0
                batch = wrap(AccessBatch(rng.integers(0, 64, n),
                                         rng.random(n) < 0.4))
                events.append(AccessEvent([(key, batch)], interleave=True))
            return events

        def run(freeze):
            policy = _BatchRecorder()
            sim = Simulation(ScriptedWorkload(script(freeze)), policy,
                             machine(), seed=9, macro_batch=macro_batch)
            sim.run()
            return policy.seen, sim.rng.bit_generator.state

        frozen_seen, frozen_state = run(True)
        plain_seen, plain_state = run(False)
        assert frozen_state == plain_state
        assert len(frozen_seen) == len(plain_seen) > 0
        for got, want in zip(frozen_seen, plain_seen):
            assert np.array_equal(got, want)


# -- differential bit-identity -------------------------------------------------


class TestStagedVsReference:
    @pytest.mark.parametrize("mode", [kernels.VECTORIZED, kernels.SCALAR])
    @pytest.mark.parametrize("workload", ["silo", "603.bwaves"])
    def test_staged_matches_reference(self, mode, workload, monkeypatch):
        """Same cadence, staged vs reference fusion pinned whatever the
        kernel mode would pick: identical ``to_dict()`` in both kernel
        modes under strict checking, at one event per batch and at a
        fused cadence.  ``603.bwaves`` covers alloc/free flush barriers
        mid-run."""
        monkeypatch.setenv("REPRO_CHECK", "strict")

        def run_fused(spec, fuse):
            chosen = Simulation.__dict__[fuse]
            with monkeypatch.context() as patch:
                patch.setattr(Simulation, "_fuse_staged", chosen)
                patch.setattr(Simulation, "_fuse_reference", chosen)
                return _run(spec, mode)

        for macro_batch in (0, MACRO):
            spec = _spec(workload=workload, macro_batch=macro_batch,
                         check="strict")
            assert run_fused(spec, "_fuse_staged") \
                == run_fused(spec, "_fuse_reference"), \
                f"fusions diverged at macro_batch={macro_batch}"

    def test_vectorized_matches_scalar(self):
        """Each kernel mode's own fusion -- staged when vectorized, the
        reference when scalar -- gives one result at one event per
        batch."""
        spec = _spec(macro_batch=0)
        assert _run(spec, kernels.VECTORIZED) == _run(spec, kernels.SCALAR)

    def test_validate_mode_runs_clean(self):
        """validate computes both fusions per batch and must not trip."""
        result = _run(_spec(), kernels.VALIDATE)
        assert result == _run(_spec(), kernels.VECTORIZED)

    def test_validate_mode_detects_divergence(self, monkeypatch):
        """A corrupted staged fusion is caught on the first batch."""
        original = Simulation._fuse_staged

        def corrupted(regions, rels):
            batch = original(regions, rels)
            if len(batch):
                batch.vpn[0] += 1
            return batch

        monkeypatch.setattr(Simulation, "_fuse_staged",
                            staticmethod(corrupted))
        with kernels.forced(kernels.VALIDATE):
            with pytest.raises(AssertionError, match="diverged"):
                _build(_spec()).run(max_accesses=20_000)

    def test_macro_preserves_access_stream_totals(self):
        """Coalescing re-groups the full stream without dropping
        accesses.  (With a ``max_accesses`` budget the totals *may*
        differ: the budget check is batch-granular, and macro batches
        are bigger -- that is the documented cadence change.)"""
        per_event = _build(_spec(macro_batch=0)).run()
        fused = _build(_spec()).run()
        assert fused.metrics.total_accesses == per_event.metrics.total_accesses

    @pytest.mark.parametrize("macro_batch", [0, 1])
    def test_empty_interleaved_event_draws_no_permutation(self, macro_batch):
        """At one event per batch an empty interleaved event shuffles
        nothing: the engine RNG and the access order match a run that
        never drew a permutation."""
        plain = [_access(8), _access(8)]
        script = [AllocEvent("r", 16 * 4096),
                  AccessEvent([], interleave=True), *plain]
        policy = _BatchRecorder()
        sim = Simulation(ScriptedWorkload(script), policy, machine(),
                         seed=3, macro_batch=macro_batch)
        sim.run()
        untouched = np.random.default_rng(3).bit_generator.state
        assert sim.rng.bit_generator.state == untouched
        base = sim._regions["r"].base_vpn
        assert len(policy.seen) == len(plain)
        for got, event in zip(policy.seen, plain):
            assert np.array_equal(got, event.segments[0][1].vpn + base)

    def test_gen_ns_phase_is_reported(self):
        result = _build(_spec()).run(max_accesses=50_000)
        assert "gen_ns" in result.phase_ns
        assert result.phase_ns["gen_ns"] > 0

    def test_events_consumed_counts_workload_events(self):
        """Fused items advance the counter by their constituent count:
        per-event and macro full runs agree on events consumed."""
        sim_pe = _build(_spec(macro_batch=0))
        sim_pe.run()
        sim_ma = _build(_spec())
        sim_ma.run()
        assert sim_ma._events_consumed == sim_pe._events_consumed


# -- kill/resume through the macro path ---------------------------------------


class TestMacroResume:
    @pytest.mark.parametrize("macro_batch", [0, MACRO])
    def test_resume_matches_uninterrupted_run(self, macro_batch):
        """Epoch checkpoints sliced out of a run resume to the exact
        uninterrupted result (first/mid/last epoch) at either cadence."""
        spec = _spec(macro_batch=macro_batch)
        full, resumed, checkpoints = checkpoint_and_resume(
            lambda: _build(spec),
            lambda sim: canonical(sim.run(max_accesses=spec.max_accesses)))
        assert checkpoints >= 3, "scenario too small to be meaningful"
        for k, result in resumed.items():
            assert result == full, f"resume from epoch {k} diverged"

    @pytest.mark.parametrize("mode", [kernels.VECTORIZED, kernels.SCALAR],
                             ids=["staged", "reference"])
    def test_kill_then_resume_is_bit_identical(self, tmp_path, mode):
        """Fault-injected kill mid-macro-run, resume from the store."""
        with kernels.forced(mode):
            spec = _spec(snapshot_every=1)
            clean = canonical(spec.execute(snapshots=None))
            store = snapshot.SnapshotStore(tmp_path / "store")
            injector = FaultInjector(FaultConfig(kill_at_epoch=1, seed=5))
            with pytest.raises(SimulationKilled):
                spec.execute(faults=injector, snapshots=store)
            assert store.latest_epoch(spec) == 1
            resumed = canonical(
                spec.replace(resume=True).execute(snapshots=store)
            )
            assert resumed == clean

    def test_kill_under_fault_injection(self, tmp_path):
        """Chaos row with every injector active through the macro path."""
        cfg = FaultConfig(drop_sample_prob=0.05, dup_sample_prob=0.05,
                          alloc_fail_prob=0.02, tick_delay_prob=0.10, seed=9)
        spec = _spec(snapshot_every=1)
        clean = canonical(spec.execute(faults=FaultInjector(cfg),
                                    snapshots=None))
        store = snapshot.SnapshotStore(tmp_path / "store")
        killer = dataclasses.replace(cfg, kill_at_epoch=1)
        with pytest.raises(SimulationKilled):
            spec.execute(faults=FaultInjector(killer), snapshots=store)
        resumed = canonical(spec.replace(resume=True).execute(
            faults=FaultInjector(cfg), snapshots=store
        ))
        assert resumed == clean

    def test_macro_checkpoint_is_cadence_scoped(self, tmp_path):
        """macro and per-event runs of the same workload keep separate
        snapshot lineages (different cache keys): resuming one never
        picks up the other's checkpoints."""
        store = snapshot.SnapshotStore(tmp_path / "store")
        spec_macro = _spec(snapshot_every=1)
        spec_macro.execute(snapshots=store)
        spec_legacy = _spec(macro_batch=0, snapshot_every=1)
        assert store.epochs(spec_macro)
        assert not store.epochs(spec_legacy)


# -- errors and memory in stream order -----------------------------------------


class _Direct(ScriptedWorkload):
    """A scripted stream the engine reads directly (no event helper)."""

    prefetch_events = False


def _big(key, base=0):
    """One interleaved access event of ``MACRO`` accesses: a batch."""
    vpn = base + np.arange(MACRO, dtype=np.int64) % 512
    return AccessEvent([(key, AccessBatch.loads(vpn))], interleave=True)


@pytest.mark.parametrize("bad", [
    pytest.param(_big("ghost"), id="unknown-region"),
    pytest.param(_big("heap", base=4096), id="out-of-bounds")])
@pytest.mark.parametrize("cpus", [1, 2])
def test_error_in_the_next_batch_surfaces_after_this_one(bad, cpus,
                                                         monkeypatch):
    """With one CPU or a spare one, every batch is prepared on the
    engine thread, and an error in batch k+1 surfaces after batch k."""
    monkeypatch.setattr(prefetch, "_sharers", 1)
    monkeypatch.setattr(prefetch, "usable_cpus", lambda: cpus)
    preparers = []
    prepare = Simulation._prepare_batch

    def spy(self, event):
        preparers.append(threading.current_thread())
        return prepare(self, event)

    monkeypatch.setattr(Simulation, "_prepare_batch", spy)
    script = [AllocEvent("heap", 4 * MB)] + [_big("heap")] * 3 + [bad]
    sim = Simulation(_Direct(script), AllFastPolicy(), machine(),
                     macro_batch=MACRO)
    with pytest.raises((KeyError, IndexError)) as excinfo:
        sim.run()
    assert isinstance(excinfo.value,
                      KeyError if bad.segments[0][0] == "ghost"
                      else IndexError)
    assert sim.metrics.total_accesses == 3 * MACRO
    assert sim._batches_processed == 3
    assert sim._events_consumed == 4
    # Stopped by the budget at the batch before, the run never sees it.
    stopped = Simulation(_Direct(script), AllFastPolicy(), machine(),
                         macro_batch=MACRO)
    result = stopped.run(max_accesses=3 * MACRO)
    assert result.metrics.total_accesses == 3 * MACRO
    assert len(preparers) >= 7
    assert all(t is threading.main_thread() for t in preparers)


def test_stream_error_after_the_last_batch_surfaces_after_it():
    """An error the stream raises after its last batch reaches the
    engine once that batch is recorded, and not at all when the budget
    stops the run there."""
    error = RuntimeError("stream failed")

    class Failing(_Direct):
        def events(self, rng):
            yield from self.script
            raise error

    script = [AllocEvent("heap", 4 * MB)] + [_big("heap")] * 3
    sim = Simulation(Failing(script), AllFastPolicy(), machine(),
                     macro_batch=MACRO)
    with pytest.raises(RuntimeError) as excinfo:
        sim.run()
    assert excinfo.value is error
    assert sim.metrics.total_accesses == 3 * MACRO
    stopped = Simulation(Failing(script), AllFastPolicy(), machine(),
                         macro_batch=MACRO)
    stopped.run(max_accesses=3 * MACRO)


def test_the_simulated_batch_is_freed_before_the_next_is_fused(
        tmp_path, monkeypatch):
    """At ``replay_macro``'s cadence: only one 256k-access batch is
    alive at a time."""
    path = str(tmp_path / "silo.npz")
    record_trace(make_workload("silo", TEST_SCALE), path, seed=7)
    workload = TraceWorkload(path)
    sim = Simulation(workload, make_policy("memtis"),
                     MachineSpec.from_ratio(workload.total_bytes,
                                            ratio="1:8"),
                     seed=7, macro_batch=macro.DEFAULT_MACRO_BATCH)
    previous, freed = [], []
    prepare = Simulation._prepare_batch

    def spy(self, event):
        if previous:
            freed.append(previous[-1]() is None)
        batch = prepare(self, event)
        previous.append(weakref.ref(batch.vpn))
        return batch

    monkeypatch.setattr(Simulation, "_prepare_batch", spy)
    sim.run()
    assert len(freed) >= 2 and all(freed), freed
