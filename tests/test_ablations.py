"""The extension experiments: ablations and the TMTS comparison."""

import pytest

from repro.experiments.common import SMOKE_SCALE, load_experiment
from repro.sim import sweep


class TestAblationsExperiment:
    def test_structure(self):
        result = load_experiment("ablations").run(
            scale=SMOKE_SCALE, workloads=["silo"],
            variants=["full", "no-split", "no-seeding"],
        )
        cell = result.data["silo"]
        assert cell["full"] == pytest.approx(1.0)
        assert set(cell) == {"full", "no-split", "no-seeding"}

    def test_split_ablation_hurts_silo(self):
        result = load_experiment("ablations").run(
            scale=SMOKE_SCALE, workloads=["silo"],
            variants=["full", "no-split"],
        )
        # Splitting earns its keep on silo (or at worst is neutral at
        # smoke scale).
        assert result.data["silo"]["no-split"] <= 1.1


    @pytest.mark.no_result_cache
    def test_jobs_match_serial(self, monkeypatch):
        """The experiment's one sweep honours the default worker count,
        and two workers render exactly what serial execution does."""
        def run():
            return load_experiment("ablations").run(
                scale=SMOKE_SCALE, workloads=["silo"],
                variants=["full", "no-split", "no-warm"],
            )

        serial = run()
        pools = []
        supervise = sweep._supervise

        def counting_supervise(queue, directory, workers, *args):
            pools.append(workers)
            return supervise(queue, directory, workers, *args)

        monkeypatch.setattr(sweep, "_supervise", counting_supervise)
        sweep.set_default_jobs(2)
        try:
            parallel = run()
        finally:
            sweep.set_default_jobs(None)
        assert pools == [2]  # one sweep, two worker processes
        assert parallel.text == serial.text
        assert parallel.data == serial.data


class TestTmtsExperiment:
    def test_structure(self):
        result = load_experiment("tmts").run(
            scale=SMOKE_SCALE, workloads=["xsbench"], ratios=["2:1", "1:8"]
        )
        for key in ("xsbench|2:1", "xsbench|1:8"):
            cell = result.data[key]
            assert cell["tmts"] > 0
            assert cell["memtis"] > 0

    def test_memtis_advantage_grows_with_smaller_dram(self):
        result = load_experiment("tmts").run(
            scale=SMOKE_SCALE, workloads=["xsbench"], ratios=["2:1", "1:8"]
        )
        gap_big_dram = result.data["xsbench|2:1"]["gap_pct"]
        gap_small_dram = result.data["xsbench|1:8"]["gap_pct"]
        assert gap_small_dram >= gap_big_dram - 15.0  # §8's regime claim
