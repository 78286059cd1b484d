"""Fault injection: config validation, record perturbation, the tier
admission gate, and chaos runs under the strict sanitizer."""

import numpy as np
import pytest

from repro import kernels
from repro.check import FaultConfig, FaultInjector
from repro.sim.runner import RunSpec

from conformance import digest
from conftest import TEST_SCALE, make_context

MB = 1024 * 1024


class TestFaultConfig:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(drop_sample_prob=1.5)
        with pytest.raises(ValueError):
            FaultConfig(alloc_fail_prob=-0.1)

    def test_active(self):
        assert not FaultConfig().active
        assert FaultConfig(tick_delay_prob=0.1).active

    def test_bind_is_selective(self):
        # A config with only tick delays must not install the sample
        # hook or the tier gate.
        ctx = make_context()
        class Sampler:
            fault_hook = None
        sampler = Sampler()
        inj = FaultInjector(FaultConfig(seed=1, tick_delay_prob=0.5))
        inj.bind(tiers=ctx.tiers, sampler=sampler)
        assert ctx.tiers.fast.fault_gate is None
        assert sampler.fault_hook is None


class TestPerturbRecords:
    def run_once(self, config, n=1000):
        inj = FaultInjector(config)
        vpn = np.arange(n, dtype=np.int64)
        is_store = (np.arange(n) % 3 == 0)
        return inj, *inj.perturb_records(vpn, is_store)

    def test_drop_shrinks_and_counts(self):
        inj, vpn, is_store = self.run_once(
            FaultConfig(seed=1, drop_sample_prob=0.2))
        assert 0 < len(vpn) < 1000
        assert len(vpn) == len(is_store)
        assert inj.stats["dropped_samples"] == 1000 - len(vpn)
        # Survivors keep their order and pairing.
        assert np.all(np.diff(vpn) > 0)
        assert np.array_equal(is_store, vpn % 3 == 0)

    def test_dup_emits_adjacent_copies(self):
        inj, vpn, is_store = self.run_once(
            FaultConfig(seed=2, dup_sample_prob=0.2))
        ndup = inj.stats["duplicated_samples"]
        assert 0 < ndup < 1000
        assert len(vpn) == 1000 + ndup
        dup_positions = np.flatnonzero(np.diff(vpn) == 0)
        assert len(dup_positions) == ndup
        assert np.array_equal(is_store, vpn % 3 == 0)

    def test_drop_everything(self):
        _, vpn, is_store = self.run_once(
            FaultConfig(seed=3, drop_sample_prob=1.0))
        assert len(vpn) == 0 and len(is_store) == 0

    def test_empty_input(self):
        inj = FaultInjector(FaultConfig(seed=1, drop_sample_prob=0.5))
        vpn, is_store = inj.perturb_records(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))
        assert len(vpn) == 0

    def test_deterministic_per_seed(self):
        config = FaultConfig(seed=7, drop_sample_prob=0.3,
                             dup_sample_prob=0.3)
        _, a, _ = self.run_once(config)
        _, b, _ = self.run_once(config)
        assert np.array_equal(a, b)
        _, c, _ = self.run_once(FaultConfig(seed=8, drop_sample_prob=0.3,
                                            dup_sample_prob=0.3))
        assert not np.array_equal(a, c)


class TestTierGate:
    def test_gate_blocks_admission_not_accounting(self):
        ctx = make_context()
        fast = ctx.tiers.fast
        blocked = {"on": False}
        fast.fault_gate = lambda: blocked["on"]

        assert fast.avail_bytes == fast.free_bytes > 0
        assert fast.can_alloc(MB)
        blocked["on"] = True
        assert fast.avail_bytes == 0
        assert not fast.can_alloc(MB)
        # Committed allocations still move real bytes: admission is the
        # only thing an outage fakes.
        before = fast.used_bytes
        fast.alloc(MB)
        assert fast.used_bytes == before + MB
        blocked["on"] = False
        assert fast.avail_bytes == fast.free_bytes

    def test_batch_frozen_pulses(self):
        inj = FaultInjector(FaultConfig(seed=3, alloc_fail_prob=0.5))
        answers = set()
        for _ in range(20):
            inj.begin_batch()
            # Every query within the batch agrees with the frozen draw.
            assert inj.fast_alloc_blocked() == inj.fast_alloc_blocked()
            answers.add(inj.fast_alloc_blocked())
        assert answers == {True, False}
        assert inj.stats["alloc_outage_batches"] > 0


#: Injector matrix: configs verified to actually fire at this scale
#: (TEST_SCALE silo runs ~5 batches at a 150k access budget).
CHAOS_CASES = {
    "drop": (FaultConfig(seed=1, drop_sample_prob=0.2), "dropped_samples"),
    "dup": (FaultConfig(seed=2, dup_sample_prob=0.2), "duplicated_samples"),
    "alloc": (FaultConfig(seed=3, alloc_fail_prob=0.5),
              "alloc_outage_batches"),
    "tick": (FaultConfig(seed=4, tick_delay_prob=0.5), "delayed_ticks"),
}


def chaos_run(config, mode):
    spec = RunSpec("silo", "memtis", scale=TEST_SCALE,
                   max_accesses=150_000, check="strict")
    with kernels.forced(mode):
        inj = FaultInjector(config)
        sim = spec.build(faults=inj)
        result = sim.run(max_accesses=spec.max_accesses)
    return inj, result


@pytest.mark.parametrize("mode", [kernels.VECTORIZED, kernels.SCALAR])
@pytest.mark.parametrize("case", sorted(CHAOS_CASES))
class TestChaos:
    """memtis stays invariant-clean and deterministic under every
    injector, in both kernel modes, with the sanitizer at strict."""

    def test_chaos_clean_and_deterministic(self, case, mode):
        config, stat = CHAOS_CASES[case]
        inj, result = chaos_run(config, mode)
        # The fault actually fired (configs chosen so the schedule hits
        # at this scale), and the strict sanitizer raised nothing.
        assert inj.stats[stat] > 0, inj.stats
        assert result.metrics.total_accesses > 0

        inj2, result2 = chaos_run(config, mode)
        assert inj2.stats == inj.stats
        assert digest(result2) == digest(result)


def test_all_injectors_together():
    config = FaultConfig(seed=9, drop_sample_prob=0.1, dup_sample_prob=0.1,
                         alloc_fail_prob=0.3, tick_delay_prob=0.3)
    inj, result = chaos_run(config, kernels.VECTORIZED)
    assert result.metrics.total_accesses > 0
    assert sum(inj.stats.values()) > 0
