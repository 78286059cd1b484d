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
    from the load or store table, summed per tier."""
    per_access = np.where(stores, cost.store_table[tiers],
                          cost.load_table[tiers])
    total = 0.0
    for i in range(len(cost.tiers)):
        total += float(per_access[tiers == i].sum())
    return total


class TestMemoryCostFormula:
    """The per-tier counting equals the per-access sum it replaced."""

    @pytest.mark.parametrize("stack", sorted(STACKS))
    @pytest.mark.parametrize("case", ["empty", "one", "loads", "stores",
                                      "mixed"])
    def test_equals_per_access_sum(self, stack, case):
        tiers_mem = TieredMemory.build(*[spec(64 * MB)
                                         for spec in STACKS[stack]])
        cost = CostModel().bind(tiers_mem)
        rng = np.random.default_rng(len(tiers_mem))
        n = {"empty": 0, "one": 1}.get(case, 5_000)
        tiers = rng.integers(0, len(tiers_mem), n).astype(np.int8)
        stores = {"loads": np.zeros(n, dtype=bool),
                  "stores": np.ones(n, dtype=bool)}.get(
                      case, rng.random(n) < 0.3)
        # Half-nanosecond latencies sum exactly in any order.
        assert cost.memory_ns(tiers, stores) == _per_access_ns(
            cost, tiers, stores)


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
