"""Related-work policy zoo and the conformance matrix over the registry.

* the figure policy lists stay consistent with the registry, so zoo
  growth cannot silently break figure experiments;
* the conformance matrix (``tests/conformance.py``): every registered
  policy reproduces its pinned digest, strict-sanitizer-clean and
  within the conservation laws (``pinned``), on a 2-tier and a 3-tier
  cell and on every machine for the two cheapest digest workloads, and
  passes every other axis on the 2-tier and the 3-tier cell
  (``scripts/conformance_grid.py`` runs the whole grid);
* the characteristic mechanisms actually engage (admission rejections,
  transactional aborts + shadows, sketch bounds, drift resets).
"""

import numpy as np
import pytest

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

import conformance
from conformance import DIGEST_CELLS, TIER1_CELLS, TIER1_PINNED_CELLS, cell_id
from conftest import TEST_SCALE

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


# -- the conformance matrix ----------------------------------------------------


def test_digest_grid_covers_the_registry():
    assert sorted(conformance.load_digests()) == sorted(
        cell_id(*cell) for cell in DIGEST_CELLS)


@pytest.fixture(scope="module")
def digests():
    return conformance.load_digests()


PINNED_CELLS = [(policy, workload, machine)
                for policy in sorted(POLICY_REGISTRY)
                for workload, machine in TIER1_PINNED_CELLS]


@pytest.mark.parametrize("policy,workload,machine", PINNED_CELLS,
                         ids=[cell_id(*cell) for cell in PINNED_CELLS])
def test_policy_digest(policy, workload, machine, digests):
    """The ``pinned`` axis: a strict-checked run reproduces the pinned
    digest exactly, and its counts obey the conservation laws."""
    conformance.check("pinned", (policy, workload, machine), digests)


TIER1_AXES = [
    (axis, policy, workload, machine)
    for policy in sorted(POLICY_REGISTRY)
    for workload, machine in TIER1_CELLS
    for axis in conformance.AXES
    if axis != "pinned"
]


@pytest.mark.parametrize("axis,policy,workload,machine", TIER1_AXES,
                         ids=[f"{axis}-{cell_id(*cell)}"
                              for axis, *cell in TIER1_AXES])
def test_conformance(axis, policy, workload, machine, digests):
    conformance.check(axis, (policy, workload, machine), digests)


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
                                    preferred=1)
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
    conformance.write_digests()
