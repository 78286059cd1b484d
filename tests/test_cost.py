"""Cost model: latency tables, MLP scaling, component math."""

import numpy as np
import pytest

from repro.mem.tiers import (
    TieredMemory,
    cxl_spec,
    dram_spec,
    nvm_spec,
    remote_spec,
)
from repro.sim.cost import CostModel

MB = 1024 * 1024


def bound(kind="nvm", **kw):
    spec = {"nvm": nvm_spec, "cxl": cxl_spec}[kind]
    tiers = TieredMemory.build(dram_spec(8 * MB), spec(64 * MB))
    return CostModel(**kw).bind(tiers)


class TestMemoryCost:
    def test_fast_cheaper_than_capacity(self):
        cost = bound()
        fast = cost.memory_ns(np.zeros(100, dtype=np.int8),
                              np.zeros(100, dtype=bool))
        cap = cost.memory_ns(np.ones(100, dtype=np.int8),
                             np.zeros(100, dtype=bool))
        assert cap > 3 * fast

    def test_mlp_scales_stall_time(self):
        serial = bound(mlp_factor=1.0)
        overlapped = bound(mlp_factor=4.0)
        tiers = np.ones(10, dtype=np.int8)
        stores = np.zeros(10, dtype=bool)
        assert serial.memory_ns(tiers, stores) == pytest.approx(
            4 * overlapped.memory_ns(tiers, stores)
        )

    def test_nvm_store_asymmetry(self):
        cost = bound()
        tiers = np.ones(10, dtype=np.int8)
        loads = cost.memory_ns(tiers, np.zeros(10, dtype=bool))
        stores = cost.memory_ns(tiers, np.ones(10, dtype=bool))
        assert stores > loads

    def test_cxl_narrows_the_gap(self):
        nvm = bound("nvm")
        cxl = bound("cxl")
        tiers = np.ones(100, dtype=np.int8)
        stores = np.zeros(100, dtype=bool)
        assert cxl.memory_ns(tiers, stores) < nvm.memory_ns(tiers, stores)

    def test_mixed_batch_sums_per_access(self):
        cost = bound(mlp_factor=1.0)
        tiers = np.array([0, 1], dtype=np.int8)
        stores = np.zeros(2, dtype=bool)
        total = cost.memory_ns(tiers, stores)
        assert total == pytest.approx(80.0 + 300.0)


#: 2-, 3- and 4-tier stacks, fastest first.
STACKS = {
    "dram-nvm": (dram_spec, nvm_spec),
    "dram-cxl-nvm": (dram_spec, cxl_spec, nvm_spec),
    "dram-cxl-nvm-remote": (dram_spec, cxl_spec, nvm_spec, remote_spec),
}


def _per_access_ns(cost, tiers, stores):
    """``memory_ns`` restated access by access: each access's latency
    from the load or store table, summed per tier, then the bandwidth
    inflation of every non-fastest tier."""
    per_access = np.where(stores, cost.store_table[tiers],
                          cost.load_table[tiers])
    total = 0.0
    components = []
    for i in range(len(cost.tiers)):
        comp = float(per_access[tiers == i].sum())
        components.append(comp)
        total += comp
    if cost.model.bandwidth_model:
        for i in range(1, len(cost.tiers)):
            n_i = int(np.count_nonzero(tiers == i))
            if n_i == 0 or components[i] <= 0:
                continue
            rho = min(cost.model.max_utilization,
                      n_i * cost.model.access_bytes / components[i]
                      / cost.tiers[i].spec.bandwidth_gbps)
            total += components[i] * (1.0 / (1.0 - rho) - 1.0)
    return total


class TestMemoryCostFormula:
    """The per-tier counting equals the per-access sum it replaced."""

    @pytest.mark.parametrize("bandwidth_model", [False, True],
                             ids=["plain", "bandwidth"])
    @pytest.mark.parametrize("stack", sorted(STACKS))
    @pytest.mark.parametrize("case", ["empty", "one", "loads", "stores",
                                      "mixed"])
    def test_equals_per_access_sum(self, stack, bandwidth_model, case):
        tiers_mem = TieredMemory.build(*[spec(64 * MB)
                                         for spec in STACKS[stack]])
        cost = CostModel(bandwidth_model=bandwidth_model).bind(tiers_mem)
        rng = np.random.default_rng(len(tiers_mem))
        n = {"empty": 0, "one": 1}.get(case, 5_000)
        tiers = rng.integers(0, len(tiers_mem), n).astype(np.int8)
        stores = {"loads": np.zeros(n, dtype=bool),
                  "stores": np.ones(n, dtype=bool)}.get(
                      case, rng.random(n) < 0.3)
        got = cost.memory_ns(tiers, stores)
        expected = _per_access_ns(cost, tiers, stores)
        if bandwidth_model:
            assert got == pytest.approx(expected, rel=1e-12)
        else:
            # Half-nanosecond latencies sum exactly in any order.
            assert got == expected


class TestBandwidthModel:
    """Opt-in capacity-tier saturation: rho from the capacity window."""

    def test_off_by_default(self):
        cost = bound()
        assert cost.model.bandwidth_model is False

    def test_rho_uses_capacity_component_window(self):
        """Demand must be measured against the *capacity-tier* stall
        time, not the whole batch: a batch padded with fast-tier
        accesses stretches total time without occupying the capacity
        tier's channels, so the inflation must not change."""
        cost = bound(bandwidth_model=True, mlp_factor=1.0)
        n_cap = 100
        cap_only = cost.memory_ns(
            np.ones(n_cap, dtype=np.int8), np.zeros(n_cap, dtype=bool)
        )
        mixed_tiers = np.concatenate([
            np.ones(n_cap, dtype=np.int8),
            np.zeros(10_000, dtype=np.int8),
        ])
        mixed = cost.memory_ns(mixed_tiers, np.zeros(len(mixed_tiers), dtype=bool))
        plain = bound(mlp_factor=1.0)
        fast_part = plain.memory_ns(
            np.zeros(10_000, dtype=np.int8), np.zeros(10_000, dtype=bool)
        )
        assert mixed == pytest.approx(cap_only + fast_part)

    def test_inflation_formula(self):
        """total + cap_component * (1/(1-rho) - 1), rho = demand/bw."""
        cost = bound(bandwidth_model=True, mlp_factor=1.0)
        n = 50
        tiers = np.ones(n, dtype=np.int8)
        stores = np.zeros(n, dtype=bool)
        cap_component = n * float(cost.load_table[1])
        demand_gbps = n * cost.model.access_bytes / cap_component
        rho = min(cost.model.max_utilization,
                  demand_gbps / cost.tiers.slowest.spec.bandwidth_gbps)
        expected = cap_component + cap_component * (1.0 / (1.0 - rho) - 1.0)
        assert cost.memory_ns(tiers, stores) == pytest.approx(expected)

    def test_rho_capped_at_max_utilization(self):
        """Cacheline-per-access demand at this window exceeds the tier
        bandwidth, so rho must clamp instead of going singular."""
        cost = bound(bandwidth_model=True, mlp_factor=1.0, access_bytes=8192)
        n = 100
        tiers = np.ones(n, dtype=np.int8)
        stores = np.ones(n, dtype=bool)
        cap_component = n * float(cost.store_table[1])
        demand = n * cost.model.access_bytes / cap_component
        assert demand / cost.tiers.slowest.spec.bandwidth_gbps > \
            cost.model.max_utilization  # scenario actually saturates
        expected = cap_component / (1.0 - cost.model.max_utilization)
        assert cost.memory_ns(tiers, stores) == pytest.approx(expected)

    def test_all_fast_batch_unaffected(self):
        on = bound(bandwidth_model=True)
        off = bound()
        tiers = np.zeros(100, dtype=np.int8)
        stores = np.zeros(100, dtype=bool)
        assert on.memory_ns(tiers, stores) == off.memory_ns(tiers, stores)


class TestOtherComponents:
    def test_compute_linear_in_accesses(self):
        cost = bound()
        assert cost.compute_ns(100) == pytest.approx(10 * cost.compute_ns(10))

    def test_walk_scaled_by_stride(self):
        cost = bound()
        assert cost.walk_ns(8, stride=16) == pytest.approx(
            16 * cost.walk_ns(8, stride=1)
        )

    def test_fault_cost(self):
        cost = bound()
        assert cost.fault_ns(3) == pytest.approx(3 * cost.model.hint_fault_ns)
