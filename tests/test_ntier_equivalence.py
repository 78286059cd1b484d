"""The 2-tier equivalence guarantee of the N-tier machine redesign.

The machine model holds an ordered list of tiers; the paper's two-tier
configurations must remain a *pure special case*.  These tests enforce
the guarantee three ways:

* **Pinned digests**: a small grid of historical ``RunSpec``s must keep
  their exact ``cache_key()`` and reproduce byte-identical
  ``SimResult.to_dict()`` digests recorded from the pre-redesign seed,
  in both kernel modes (every kernel call checked to take the forced
  path), with the invariant sanitizer at ``strict``.
* **Constructor equivalence**: a machine built via the legacy
  ``MachineSpec(fast_bytes=..., capacity_bytes=...)`` form and the same
  machine built as ``MachineSpec.from_tiers([dram, nvm])`` produce
  bit-identical results (including the serialized machine layout), in
  both kernel modes.
* **N-tier behaviour**: presets, neighbour addressing, tier labels and
  the cross-tier demotion cascade on a 3-tier DRAM/CXL/NVM machine,
  which must complete strict-clean.
"""

import json
import os

import pytest

from repro import kernels
from repro.check.invariants import CheckLevel
from repro.mem.tiers import (
    FASTEST_TIER,
    TIER_UNMAPPED,
    UNMAPPED_LABEL,
    TieredMemory,
    cxl_spec,
    dram_spec,
    nvm_spec,
    remote_spec,
    tier_label,
)
from repro.policies.registry import make_policy
from repro.sim.engine import Simulation
from repro.sim.machine import MACHINE_PRESETS, MachineSpec
from repro.sim.runner import RunSpec
from repro.workloads.registry import make_workload

from conformance import digest, forced_path
from conftest import TEST_SCALE

MB = 1024 * 1024

#: Recorded before results carried ``observability``: compared with
#: ``digest(result, observability=False)``.
PINNED_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "ntier_pinned_digests.json")
with open(PINNED_PATH) as fh:
    PINNED = json.load(fh)


class TestPinnedDigests:
    """Historical specs reproduce their pre-redesign results exactly."""

    @pytest.mark.parametrize(
        "entry", PINNED["entries"],
        ids=[f'{e["spec"]["policy"]}-{e["spec"]["workload"]}-'
             f'{e["spec"]["ratio"]}-{e["spec"]["capacity_kind"]}'
             for e in PINNED["entries"]],
    )
    @pytest.mark.parametrize("mode", [kernels.VECTORIZED, kernels.SCALAR])
    def test_bit_identical_to_seed(self, entry, mode):
        spec = RunSpec(**entry["spec"], check="strict")
        # check/snapshot/resume are excluded from the key by design.
        assert spec.cache_key() == entry["cache_key"]
        with forced_path(mode):
            result = spec.build().run(max_accesses=spec.max_accesses)
        assert (digest(result, observability=False)
                == entry["digests"][mode])

    def test_cache_keys_stable(self):
        keys = [RunSpec(**e["spec"]).cache_key() for e in PINNED["entries"]]
        assert keys == [e["cache_key"] for e in PINNED["entries"]]


class TestConstructorEquivalence:
    """Legacy two-tier ctor == explicit list-of-2-tiers, bit for bit."""

    @pytest.mark.parametrize("capacity_kind,cap_ctor", [
        ("nvm", nvm_spec), ("cxl", cxl_spec),
    ])
    @pytest.mark.parametrize("mode", [kernels.VECTORIZED, kernels.SCALAR])
    def test_results_bit_identical(self, capacity_kind, cap_ctor, mode):
        legacy = MachineSpec(fast_bytes=8 * MB, capacity_bytes=64 * MB,
                             capacity_kind=capacity_kind)
        listed = MachineSpec.from_tiers(
            [dram_spec(8 * MB), cap_ctor(64 * MB)]
        )
        assert legacy.tier_specs == listed.tier_specs
        assert legacy.to_dict() == listed.to_dict()
        workload = make_workload("silo", TEST_SCALE)
        digests = []
        for machine in (legacy, listed):
            with forced_path(mode):
                sim = Simulation(workload, make_policy("memtis"), machine,
                                 check=CheckLevel.STRICT)
                digests.append(digest(sim.run(max_accesses=80_000),
                                      observability=False))
        assert digests[0] == digests[1]

    def test_legacy_serialized_layout_preserved(self):
        machine = MachineSpec(fast_bytes=8 * MB, capacity_bytes=64 * MB)
        assert machine.to_dict() == {
            "fast_bytes": 8 * MB,
            "capacity_bytes": 64 * MB,
            "capacity_kind": "nvm",
            "cores": 20,
            "app_threads": 20,
        }
        # Non-legacy shapes serialize the full tier list.
        three = MachineSpec.from_tiers(
            [dram_spec(8 * MB), cxl_spec(16 * MB), nvm_spec(64 * MB)]
        )
        assert [t["name"] for t in three.to_dict()["tiers"]] == [
            "DRAM", "CXL", "NVM"
        ]


class TestNTierModel:
    def test_neighbor_addressing(self):
        tiers = TieredMemory.build(
            dram_spec(4 * MB), cxl_spec(8 * MB), nvm_spec(16 * MB)
        )
        assert len(tiers) == 3
        assert tiers.promote_target(0) is None
        assert tiers.promote_target(2) == 1
        assert tiers.demote_target(0) == 1
        assert tiers.demote_target(2) is None
        assert tiers.slowest_index == 2
        assert tiers.fallback_order(1) == [1, 2, 0]

    def test_tier_labels(self):
        tiers = TieredMemory.build(dram_spec(4 * MB), nvm_spec(16 * MB))
        assert tier_label(FASTEST_TIER, tiers) == "DRAM"
        assert tier_label(1, tiers) == "NVM"
        assert tier_label(TIER_UNMAPPED, tiers) == UNMAPPED_LABEL
        assert tier_label(TIER_UNMAPPED) == UNMAPPED_LABEL

    @pytest.mark.parametrize("preset", sorted(MACHINE_PRESETS))
    def test_presets_build(self, preset):
        machine = MachineSpec.from_preset(preset, rss_bytes=256 * MB)
        names = [spec.name for spec in machine.tier_specs]
        assert names[0] == "DRAM"
        assert len(names) == len(preset.split("-"))
        tiers = machine.build_tiers()
        # Latencies are strictly increasing down the hierarchy.
        lat = [t.spec.load_latency_ns for t in tiers]
        assert lat == sorted(lat) and len(set(lat)) == len(lat)

    def test_three_tier_run_strict_clean_with_cascade(self):
        """DRAM/CXL/NVM run completes under strict checks and exercises
        the cross-tier demotion cascade (demotions into a full CXL tier
        overflow onward to NVM)."""
        workload = make_workload("silo", TEST_SCALE)
        small = max(2 * MB, workload.total_bytes // 8)
        machine = MachineSpec.from_tiers([
            dram_spec(small), cxl_spec(small),
            nvm_spec(2 * workload.total_bytes),
        ])
        sim = Simulation(workload, make_policy("memtis"), machine,
                         check=CheckLevel.STRICT)
        result = sim.run(max_accesses=200_000)
        assert result.migration.cascade_pages > 0
        assert result.migration.cascade_bytes > 0
        d = result.to_dict()
        assert d["migration"]["cascade_pages"] == result.migration.cascade_pages
        assert len(d["machine"]["tiers"]) == 3

    def test_two_tier_results_omit_cascade_keys(self):
        """2-tier runs cannot cascade; the keys stay out of the dict so
        historical serialized results remain byte-identical."""
        workload = make_workload("silo", TEST_SCALE)
        machine = MachineSpec.from_ratio(workload.total_bytes, ratio="1:8")
        sim = Simulation(workload, make_policy("memtis"), machine)
        result = sim.run(max_accesses=60_000)
        assert result.migration.cascade_pages == 0
        assert "cascade_pages" not in result.to_dict()["migration"]

    def test_four_tier_preset_runs(self):
        workload = make_workload("silo", TEST_SCALE)
        machine = MachineSpec.from_preset(
            "dram-cxl-nvm-remote", workload.total_bytes
        )
        assert machine.tier_specs[-1].name == "Remote"
        sim = Simulation(workload, make_policy("memtis"), machine,
                         check=CheckLevel.END)
        result = sim.run(max_accesses=60_000)
        assert result.metrics.total_accesses >= 60_000
