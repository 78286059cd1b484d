"""Related-work policy zoo: registry wiring, strict runs, snapshot identity.

Coverage contract for the registry and the four zoo additions
(TierBPF, Nomad, HybridTier, ARMS):

* the figure policy lists stay consistent with the registry, so zoo
  growth cannot silently break figure experiments;
* every registered policy reproduces its pinned result digest on a
  grid of workloads and machines, strict-sanitizer-clean
  (``tests/data/policy_digests.json``); the zoo policies do so in both
  kernel modes;
* every registered policy passes the resume bit-identity matrix
  (``run(N) == run(k) -> save -> load -> run(N-k)``) on a 2-tier and
  a 3-tier machine, in both kernel modes;
* the characteristic mechanisms actually engage (admission rejections,
  transactional aborts + shadows, sketch bounds, drift resets).
"""

import hashlib
import itertools
import json
import os

import numpy as np
import pytest

from repro import kernels
from repro.policies.arms import ARMSPolicy
from repro.policies.hybridtier import HybridTierPolicy
from repro.policies.nomad import NomadPolicy
from repro.policies.registry import FIG5_POLICIES, POLICY_REGISTRY, make_policy
from repro.policies.tierbpf import TierBPFPolicy
from repro.sim.runner import RunSpec
from repro.workloads.registry import (
    PAPER_ORDER,
    WORKLOAD_REGISTRY,
    make_workload,
    workload_names,
)

from conftest import TEST_SCALE

ZOO = ["tierbpf", "nomad", "hybridtier", "arms"]

#: Virtual-time epoch length; small enough that the tiny access budget
#: spans several checkpointable epochs (mirrors tests/test_snapshot.py).
EPOCH_NS = 1e6


def _spec(policy, **overrides):
    base = dict(
        workload="silo", policy=policy, ratio="1:8", seed=11,
        max_accesses=150_000, scale=TEST_SCALE,
    )
    base.update(overrides)
    return RunSpec(**base)


def _build(spec):
    sim = spec.build()
    sim.metrics.timeline_interval_ns = EPOCH_NS
    return sim


def _canon(result):
    d = result.to_dict()
    d.pop("wall_seconds")
    d.pop("phase_ns")
    return d


# -- per-policy digest grid ------------------------------------------------------

DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "data",
                            "policy_digests.json")
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


def _cell_id(policy, workload, machine):
    return f"{policy}-{workload}-{machine}"


def _digest_spec(policy, workload, machine):
    return RunSpec(workload=workload, policy=policy, seed=11,
                   scale=TEST_SCALE, check="strict",
                   **DIGEST_MACHINES[machine])


def policy_digest(result) -> str:
    """sha256 of ``to_dict()`` minus the wall-clock fields.

    ``observability`` stays in, so every policy and daemon counter is
    pinned along with the results.
    """
    blob = json.dumps(_canon(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _run_digest(policy, workload, machine):
    spec = _digest_spec(policy, workload, machine)
    return policy_digest(spec.build().run())


def _load_digests():
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def write_digests(path=DIGESTS_PATH):
    """Record the grid's digests (run once, before a refactor)."""
    digests = {_cell_id(*cell): _run_digest(*cell) for cell in DIGEST_CELLS}
    with open(path, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- registry wiring (satellite: FIG5 comment/list consistency) ----------------


class TestRegistryWiring:
    def test_fig5_policies_subset_of_registry(self):
        assert set(FIG5_POLICIES) <= set(POLICY_REGISTRY)

    def test_fig5_is_six_baselines_plus_memtis(self):
        # The comment above FIG5_POLICIES promises exactly this shape.
        assert len(FIG5_POLICIES) == 7
        assert FIG5_POLICIES[-1] == "memtis"
        assert len(set(FIG5_POLICIES)) == 7

    @pytest.mark.parametrize("name,cls", [
        ("tierbpf", TierBPFPolicy),
        ("nomad", NomadPolicy),
        ("hybridtier", HybridTierPolicy),
        ("arms", ARMSPolicy),
    ])
    def test_zoo_registered(self, name, cls):
        policy = make_policy(name)
        assert isinstance(policy, cls)
        assert policy.name == name
        assert policy.uses_pebs and policy.sampler_config() is not None

    def test_phaseflip_workload_registered(self):
        assert "phaseflip" in WORKLOAD_REGISTRY
        assert "phaseflip" not in PAPER_ORDER
        assert workload_names() == PAPER_ORDER + ["phaseflip"]


def test_digest_grid_covers_the_registry():
    assert sorted(_load_digests()) == sorted(
        _cell_id(*cell) for cell in DIGEST_CELLS)


@pytest.mark.parametrize("policy,workload,machine", DIGEST_CELLS,
                         ids=[_cell_id(*cell) for cell in DIGEST_CELLS])
def test_policy_digest(policy, workload, machine):
    """A full strict-checked run reproduces the pinned digest exactly,
    and its counts obey the conservation laws.

    The kernel mode is whatever the environment selects; scalar and
    vectorized runs share one digest file.
    """
    pinned = _load_digests()[_cell_id(policy, workload, machine)]
    sim = _digest_spec(policy, workload, machine).build()
    result = sim.run()
    assert policy_digest(result) == pinned
    metrics, series = result.metrics, result.metrics.series
    assert metrics.total_accesses == sim.workload.total_accesses
    assert metrics.total_fast_hits <= metrics.total_accesses
    assert sum(series.window_accesses) == metrics.total_accesses
    assert sum(series.window_fast_hits) == metrics.total_fast_hits
    assert sum(result.phase_ns.values()) <= result.wall_seconds * 1e9


# -- strict sanitizer, both kernel modes ---------------------------------------


@pytest.mark.parametrize("mode", [kernels.VECTORIZED, kernels.SCALAR])
@pytest.mark.parametrize("policy", ZOO)
def test_zoo_strict_clean_in_both_kernel_modes(policy, mode):
    """Strict checking raises InvariantViolation on any drift; each
    forced kernel mode must also land on the grid's pinned digest."""
    cell = (policy, "silo", "1:8")
    with kernels.forced(mode):
        digest = _run_digest(*cell)
    assert digest == _load_digests()[_cell_id(*cell)]


# -- resume == uninterrupted, over the whole registry --------------------------

#: The conformance matrix's resume axis in tier-1: a 2-tier and a 3-tier
#: cell per policy (CI's resume job runs the full digest grid through the
#: same :func:`checkpoint_and_resume`, ``scripts/resume_grid.py``).
RESUME_CELLS = {
    "silo-1:8": {"workload": "silo"},
    "phaseflip-1:8-dram-cxl-nvm": {"workload": "phaseflip",
                                   "machine_preset": "dram-cxl-nvm"},
}


def checkpoint_and_resume(build, outcome):
    """``run(N)`` against ``run(k) -> save -> load -> run(N-k)``.

    Runs ``build()`` writing a checkpoint at every epoch, then resumes a
    fresh ``build()`` from the first, middle and last checkpoint.
    ``outcome(sim)`` runs a simulation and reduces its result.  Returns
    the checkpointing run's outcome, ``{epoch: resumed outcome}`` and
    the number of checkpoints written.
    """
    snaps = {}
    sim = build()
    sim.snapshot_every = 1
    sim.snapshot_sink = lambda epoch, state: snaps.setdefault(epoch, state)
    captured = outcome(sim)
    epochs = sorted(snaps)
    resumed = {}
    for k in sorted({epochs[0], epochs[len(epochs) // 2], epochs[-1]}
                    if epochs else ()):
        sim = build()
        sim.load_state(snaps[k])
        resumed[k] = outcome(sim)
    return captured, resumed, len(epochs)


@pytest.mark.parametrize("mode", [kernels.VECTORIZED, kernels.SCALAR])
@pytest.mark.parametrize("policy", sorted(POLICY_REGISTRY))
def test_registry_resume_bit_identity(policy, mode):
    """run(N) == run(k) -> save -> load -> run(N-k) for first/mid/last k,
    for every registered policy on a 2-tier and a 3-tier machine."""
    with kernels.forced(mode):
        for cell, fields in RESUME_CELLS.items():
            spec = _spec(policy, **fields)

            def outcome(sim):
                return _canon(sim.run(max_accesses=spec.max_accesses))

            full = outcome(_build(spec))
            captured, resumed, checkpoints = checkpoint_and_resume(
                lambda: _build(spec), outcome)
            assert captured == full, \
                f"{cell}: snapshotting perturbed the trajectory"
            assert checkpoints >= 3, "scenario too small to be meaningful"
            for k, result in resumed.items():
                assert result == full, \
                    f"{policy} {cell}: resume from epoch {k} diverged"


# -- characteristic mechanisms engage ------------------------------------------


def _run_stats(policy, workload="silo", **overrides):
    spec = _spec(policy, workload=workload, **overrides)
    result = _build(spec).run(max_accesses=spec.max_accesses)
    return result.policy_stats


class TestMechanisms:
    def test_tierbpf_admission_filter_rejects(self):
        stats = _run_stats("tierbpf")
        # The defect on display: the backward-looking predictor turns
        # genuine candidates away.
        assert stats["rejected_benefit"] + stats["rejected_budget"] > 0

    def test_tierbpf_zero_margin_admits_more(self):
        strict_stats = _run_stats("tierbpf")
        lax = _spec("tierbpf", policy_kwargs={"benefit_margin": 0.0})
        lax_stats = _build(lax).run(max_accesses=lax.max_accesses).policy_stats
        assert lax_stats["admitted"] >= strict_stats["admitted"]
        assert lax_stats["rejected_benefit"] == 0

    def test_nomad_transactions_and_shadows(self):
        stats = _run_stats("nomad")
        assert stats["commits"] > 0
        # Shadow accounting never goes negative and stays within the
        # slow tier (checked live by _shadow_pressure; here we at least
        # see the mechanism used).
        assert stats["shadow_bytes"] >= 0
        assert stats["copy_free_demotions"] + stats["copied_demotions"] >= 0

    def test_nomad_aborts_charge_but_do_not_move(self):
        from conftest import make_context

        policy = NomadPolicy()
        ctx = make_context(with_sampler=True)
        policy.bind(ctx)
        space, migrator = ctx.space, ctx.migrator
        region = space.alloc_region(2 * 1024 * 1024, thp=False,
                                    tier_chooser=lambda n: 1)
        vpn = int(region.base_vpn)
        policy._pending.add(vpn)
        policy._dirty[vpn] = True  # concurrent write raced the copy
        before_bg = migrator.stats.background_ns
        policy.on_tick(1e9)
        assert policy.aborts == 1
        assert int(space.page_tier[vpn]) == 1  # rolled back, never moved
        assert migrator.stats.background_ns > before_bg  # bus time paid
        assert migrator.stats.promoted_pages == 0

    def test_hybridtier_sketch_is_bounded_and_deterministic(self):
        policy = HybridTierPolicy(width=256, depth=4)
        assert policy._sketch.shape == (4, 256)
        heads = np.array([0, 512, 1024, 99840], dtype=np.int64)
        b1 = policy._buckets(heads)
        b2 = policy._buckets(heads)
        assert np.array_equal(b1, b2)
        assert b1.min() >= 0 and b1.max() < 256
        with pytest.raises(ValueError):
            HybridTierPolicy(width=100)  # not a power of two

    def test_hybridtier_estimate_never_undercounts(self):
        policy = HybridTierPolicy(width=256, depth=4)
        heads = np.repeat(np.array([0, 512, 1024], dtype=np.int64), 5)
        buckets = policy._buckets(heads)
        for d in range(policy.depth):
            np.add.at(policy._sketch[d], buckets[d], 1)
        est = policy._estimate(np.array([0, 512, 1024], dtype=np.int64))
        assert (est >= 5).all()

    def test_arms_resets_on_phase_flip_not_stationary(self):
        from repro.sim.machine import ScaleSpec

        dense = ScaleSpec(
            bytes_per_paper_gb=2 * 1024 * 1024,
            accesses_per_paper_gb=100_000,
            min_bytes=64 * 1024 * 1024,
            min_accesses_per_page=100,
        )
        flip = _spec("arms", workload="phaseflip", ratio="1:2",
                     scale=dense, max_accesses=None, seed=7)
        flip_stats = _build(flip).run().policy_stats
        stationary = _spec("arms", scale=dense, max_accesses=None, seed=7)
        stat_stats = _build(stationary).run().policy_stats
        assert flip_stats["phase_resets"] > 0
        assert flip_stats["phase_resets"] > stat_stats["phase_resets"]


# -- phaseflip workload sanity -------------------------------------------------


class TestPhaseFlipWorkload:
    def test_phases_touch_disjoint_hot_heads(self):
        workload = make_workload("phaseflip", TEST_SCALE)
        rng = np.random.default_rng(3)
        events = list(workload.events(rng))
        batches = [e for e in events if hasattr(e, "segments")]
        assert sum(e.num_accesses for e in batches) == workload.total_accesses
        phases = workload.flips + 1
        per_phase = len(batches) // phases
        first = np.concatenate(
            [e.segments[0][1].vpn for e in batches[:per_phase]])
        last = np.concatenate(
            [e.segments[0][1].vpn for e in batches[-per_phase:]])
        # The hottest page of each phase sits in a different window.
        first_mode = np.bincount(first).argmax()
        last_mode = np.bincount(last).argmax()
        assert first_mode != last_mode


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_policy_zoo.py  rewrites the pinned
    # digest grid; do it only at a commit whose results are trusted.
    write_digests()
