"""Epoch checkpoint/resume: differential bit-identity tests.

The contract of :mod:`repro.snapshot`: ``run(N)`` and
``run(k) -> save -> load -> run(N-k)`` produce bit-identical
``SimResult.to_dict()`` -- across kernel modes, under strict invariant
checking, after a fault-injected kill, and through the sweep executor's
checkpoint-aware retry path.  Only ``wall_seconds`` and ``phase_ns``
(host wall-clock measurements) are exempt.  Resume within each kernel
mode, for every registered policy, is the conformance matrix's
``resume``, ``scalar`` and ``vectorized`` axes (``tests/conformance.py``).
"""

import dataclasses

import pytest

from repro import kernels, snapshot
from repro.check import FaultConfig, FaultInjector, SimulationKilled
from repro.sim.runner import RunSpec
from repro.sim.sweep import run_sweep

from conformance import canonical
from conftest import TEST_SCALE

#: Virtual-time epoch length used to get several epochs out of a small
#: access budget (the default 20 ms interval yields one or two).
EPOCH_NS = 1e6


def _spec(**overrides):
    base = dict(
        workload="silo", policy="memtis", ratio="1:8", seed=11,
        max_accesses=150_000, scale=TEST_SCALE,
    )
    base.update(overrides)
    return RunSpec(**base)


def _build(spec, faults=None):
    sim = spec.build(faults=faults)
    sim.metrics.timeline_interval_ns = EPOCH_NS
    return sim


def _capture_all(spec):
    """Run ``spec`` snapshotting every epoch; (canon result, {epoch: state})."""
    snaps = {}
    sim = _build(spec)
    sim.snapshot_every = 1
    sim.snapshot_sink = lambda epoch, state: snaps.setdefault(epoch, state)
    result = sim.run(max_accesses=spec.max_accesses)
    return canonical(result), snaps


# -- core guarantee ------------------------------------------------------------


class TestResumeBitIdentity:
    def test_checkpoint_is_kernel_mode_portable(self):
        """A checkpoint taken under vectorized kernels resumes under
        scalar kernels to the scalar run's exact result (and the two
        modes agree end-to-end, so one assertion covers both)."""
        spec = _spec()
        with kernels.forced(kernels.VECTORIZED):
            full, snaps = _capture_all(spec)
            k = sorted(snaps)[len(snaps) // 2]
        with kernels.forced(kernels.SCALAR):
            sim = _build(spec)
            sim.load_state(snaps[k])
            resumed = canonical(sim.run(max_accesses=spec.max_accesses))
        assert resumed == full

    def test_resume_under_strict_checking(self, monkeypatch):
        """The invariant sanitizer stays green across a resume."""
        monkeypatch.setenv("REPRO_CHECK", "strict")
        spec = _spec(check="strict")
        full, snaps = _capture_all(spec)
        k = sorted(snaps)[-1]
        sim = _build(spec)
        sim.load_state(snaps[k])
        assert canonical(sim.run(max_accesses=spec.max_accesses)) == full

    def test_resumed_phases_fit_in_the_resumed_wall(self):
        """A result's phases and its wall both cover the run that
        produced it: a resume does not carry the checkpointed run's
        phase times (they once summed to 4x the resumed wall)."""
        spec = _spec(workload="phaseflip", max_accesses=None)
        _full, snaps = _capture_all(spec)
        sim = _build(spec)
        sim.load_state(snaps[sorted(snaps)[-1]])
        resumed = sim.run()
        assert sum(resumed.phase_ns.values()) \
            <= resumed.wall_seconds * 1e9

    def test_state_dict_roundtrips_through_store(self, tmp_path):
        """execute() with snapshot_every persists; resume=True restores."""
        store = snapshot.SnapshotStore(tmp_path / "store")
        spec = _spec(snapshot_every=1)
        full = canonical(spec.execute(snapshots=store))
        assert store.epochs(spec), "no checkpoints were written"
        resumed = canonical(
            spec.replace(resume=True).execute(snapshots=store)
        )
        assert resumed == full


# -- kill/resume chaos ---------------------------------------------------------


class TestKillResume:
    def test_kill_then_resume_is_bit_identical(self, tmp_path):
        """Fault-injected kill at an epoch, then resume: same result."""
        spec = _spec(snapshot_every=1)
        clean = canonical(spec.execute(snapshots=None))
        store = snapshot.SnapshotStore(tmp_path / "store")
        injector = FaultInjector(FaultConfig(kill_at_epoch=1, seed=5))
        with pytest.raises(SimulationKilled):
            spec.execute(faults=injector, snapshots=store)
        # The kill hook fires *after* the checkpoint: the kill epoch is
        # always resumable.
        assert store.latest_epoch(spec) == 1
        resumed = canonical(spec.replace(resume=True).execute(snapshots=store))
        assert resumed == clean

    @pytest.mark.parametrize("cfg", [
        FaultConfig(drop_sample_prob=0.05, seed=9),
        FaultConfig(dup_sample_prob=0.05, seed=9),
        FaultConfig(alloc_fail_prob=0.02, seed=9),
        FaultConfig(tick_delay_prob=0.10, seed=9),
        FaultConfig(drop_sample_prob=0.05, dup_sample_prob=0.05,
                    alloc_fail_prob=0.02, tick_delay_prob=0.10, seed=9),
    ], ids=["drop", "dup", "alloc", "tick", "all"])
    def test_kill_under_active_fault_injection(self, tmp_path, cfg):
        """Kill+resume chaos matrix, one row per injector: the
        injector's RNG is checkpointed, so the fault schedule of the
        resumed run matches the uninterrupted one exactly."""
        spec = _spec(snapshot_every=1)
        clean = canonical(spec.execute(
            faults=FaultInjector(cfg), snapshots=None
        ))
        store = snapshot.SnapshotStore(tmp_path / "store")
        killer = dataclasses.replace(cfg, kill_at_epoch=1)
        with pytest.raises(SimulationKilled):
            spec.execute(faults=FaultInjector(killer), snapshots=store)
        resume = spec.replace(resume=True)
        resumed = canonical(resume.execute(
            faults=FaultInjector(cfg), snapshots=store
        ))
        assert resumed == clean

    def test_kill_validates_epoch(self):
        with pytest.raises(ValueError):
            FaultConfig(kill_at_epoch=0)

    def test_resume_with_no_checkpoint_falls_back_to_fresh_run(self, tmp_path):
        store = snapshot.SnapshotStore(tmp_path / "empty")
        spec = _spec(resume=True)
        assert canonical(spec.execute(snapshots=store)) == \
            canonical(spec.replace(resume=False).execute(snapshots=None))


# -- store behaviour -----------------------------------------------------------


class TestSnapshotStore:
    def test_manifest_and_versioning(self, tmp_path):
        store = snapshot.SnapshotStore(tmp_path / "store")
        spec = _spec(snapshot_every=1)
        spec.execute(snapshots=store)
        record = store.load(spec)
        assert record is not None
        from repro.sim.runner import SPEC_SCHEMA_VERSION

        assert record.manifest["format"] == snapshot.SNAPSHOT_FORMAT_VERSION
        assert record.manifest["schema"] == SPEC_SCHEMA_VERSION
        assert record.manifest["spec_key"] == spec.cache_key()
        assert record.manifest["spec"] == spec.to_dict()
        manifests = store.manifests()
        assert [m["epoch"] for m in manifests] == store.epochs(spec)

    def test_schema_mismatch_refuses_resume(self, tmp_path, monkeypatch):
        store = snapshot.SnapshotStore(tmp_path / "store")
        spec = _spec(snapshot_every=1)
        spec.execute(snapshots=store)
        assert store.load(spec) is not None
        monkeypatch.setattr("repro.sim.runner.SPEC_SCHEMA_VERSION", -1)
        assert store.load(spec) is None

    def test_format_1_entry_refused_and_kept(self, tmp_path):
        """Checkpoints in the older entry formats are refused, left in
        place, and a resume falls back to a fresh, bit-identical run:
        v1 (two-tier ``fast``/``capacity`` tier state) and v2 (one
        hand-written dict per component, before the checkpoint walk)."""
        import hashlib
        import pickle

        store = snapshot.SnapshotStore(tmp_path / "store")
        spec = _spec(snapshot_every=1)
        spec.execute(snapshots=store)
        epoch = store.latest_epoch(spec)
        path = store._entry_path(spec.cache_key(), epoch)
        fresh = spec.replace(snapshot_every=0).run(cache=None, snapshots=None)
        used = [{"used_bytes": 0}, {"used_bytes": 0}]
        layouts = {
            1: {"fast": used[0], "capacity": used[-1]},
            2: {"tiers": used},
        }
        for old_format, tiers in layouts.items():
            with open(path, "rb") as fh:
                entry = pickle.load(fh)
            payload = pickle.dumps({"now_ns": 0.0, "tiers": tiers})
            entry["state"] = payload
            entry["manifest"].update(
                format=old_format,
                state_sha256=hashlib.sha256(payload).hexdigest())
            with open(path, "wb") as fh:
                pickle.dump(entry, fh)

            assert store.load(spec) is None
            assert epoch in store.epochs(spec)
            resumed = spec.replace(resume=True).run(cache=None,
                                                    snapshots=store)
            assert canonical(resumed) == canonical(fresh)
            assert store.stats.loads == 0

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        store = snapshot.SnapshotStore(tmp_path / "store")
        spec = _spec(snapshot_every=1)
        spec.execute(snapshots=store)
        epoch = store.latest_epoch(spec)
        path = store._entry_path(spec.cache_key(), epoch)
        with open(path, "r+b") as fh:
            fh.seek(40)
            fh.write(b"\xde\xad\xbe\xef")
        assert store.load(spec, epoch) is None
        assert epoch not in store.epochs(spec)

    def test_snapshot_fields_outside_cache_identity(self):
        spec = _spec()
        assert spec.cache_key() == \
            spec.replace(snapshot_every=4, resume=True).cache_key()
        assert spec.replace(snapshot_every=4) != spec  # but distinct specs

    def test_spec_roundtrip_with_snapshot_fields(self):
        import json

        spec = _spec(snapshot_every=3, resume=True)
        assert RunSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) \
            == spec

    def test_negative_snapshot_every_rejected(self):
        with pytest.raises(ValueError):
            _spec(snapshot_every=-1)


# -- sweep integration ---------------------------------------------------------


class TestSweepResume:
    def test_killed_cell_completes_from_checkpoint(self, monkeypatch):
        """A cell killed mid-run is retried with resume=True and
        completes without recomputing finished epochs."""
        spec = _spec(snapshot_every=1)
        clean = canonical(spec.execute(snapshots=None))

        executed = []
        original_execute = RunSpec.execute

        def chaotic_execute(self, obs=None, faults=None,
                            snapshots=snapshot.DEFAULT, **kwargs):
            executed.append(self)
            if not self.resume:
                faults = FaultInjector(FaultConfig(kill_at_epoch=1, seed=3))
            return original_execute(
                self, obs=obs, faults=faults, snapshots=snapshots, **kwargs
            )

        monkeypatch.setattr(RunSpec, "execute", chaotic_execute)

        events = []
        outcomes = run_sweep(
            [spec], jobs=1, cache=None, retries=1,
            progress=lambda e: events.append(e.status),
        )
        outcome = outcomes[spec]
        assert outcome.ok and outcome.attempts == 2
        assert canonical(outcome.result) == clean
        assert events == ["retry", "done"]
        # The retry ran the resume variant of the same cell.
        assert [s.resume for s in executed] == [False, True]
        assert executed[1] == spec.replace(resume=True)

    def test_failed_cell_without_snapshots_retries_fresh(self, monkeypatch):
        """No snapshot_every -> the legacy retry path: same spec again."""
        spec = _spec()
        calls = []
        original_execute = RunSpec.execute

        def flaky_execute(self, obs=None, faults=None,
                          snapshots=snapshot.DEFAULT, **kwargs):
            calls.append(self)
            if len(calls) == 1:
                raise ValueError("transient")
            return original_execute(
                self, obs=obs, faults=faults, snapshots=snapshots, **kwargs
            )

        monkeypatch.setattr(RunSpec, "execute", flaky_execute)
        outcomes = run_sweep([spec], jobs=1, cache=None, retries=1)
        assert outcomes[spec].ok and outcomes[spec].attempts == 2
        assert [s.resume for s in calls] == [False, False]
