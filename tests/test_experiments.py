"""Experiment harness: every module runs at smoke scale and produces the
paper-shaped structure.  Heavier shape checks are marked slow."""

import hashlib

import pytest

from repro.experiments.common import (
    EXPERIMENT_REGISTRY,
    ExperimentResult,
    SMOKE_SCALE,
    geomean,
    load_experiment,
)
from repro.sim import sweep
from repro.sim.machine import ScaleSpec


class TestCommon:
    def test_registry_complete(self):
        expected = {"table1", "table2", "table3", "overheads",
                    "ablations", "tmts", "colocation", "headtohead"} | {
            f"fig{i}" for i in (1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14)
        }
        assert set(EXPERIMENT_REGISTRY) == expected

    def test_load_unknown(self):
        with pytest.raises(KeyError):
            load_experiment("fig99")

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 0.0


class TestCheapExperiments:
    def test_table1(self):
        result = load_experiment("table1").run()
        assert isinstance(result, ExperimentResult)
        assert "memtis" in result.text
        assert len(result.data["rows"]) == 9

    def test_table2_smoke(self):
        result = load_experiment("table2").run(
            scale=SMOKE_SCALE, workloads=["silo", "btree"]
        )
        assert "silo" in result.data
        assert result.data["silo"]["sim_rhp"] > 0.9

    def test_fig2_smoke(self):
        result = load_experiment("fig2").run(
            scale=SMOKE_SCALE, workloads=["pagerank"]
        )
        assert "pagerank" in result.data
        assert len(result.data["pagerank"]["hot_mb"]) > 0

    def test_fig3_smoke(self):
        result = load_experiment("fig3").run(
            scale=SMOKE_SCALE, workloads=["silo"]
        )
        assert len(result.data["silo"]["hotness"]) > 0

    def test_fig1_smoke(self):
        result = load_experiment("fig1").run(
            scale=SMOKE_SCALE, configs=["5ms-10-1000"]
        )
        assert result.data["5ms-10-1000"]["cpu_overhead"] > 0


@pytest.mark.slow
class TestShapeClaims:
    """The paper's qualitative claims, at smoke scale."""

    def test_fig5_memtis_wins_mostly(self):
        result = load_experiment("fig5").run(
            scale=SMOKE_SCALE,
            workloads=["xsbench", "silo"],
            policies=["tpp", "hemem", "memtis"],
            ratios=["1:8"],
        )
        assert result.data["wins"] >= 1

    def test_fig10_warm_set_cuts_traffic(self):
        result = load_experiment("fig10").run(
            scale=SMOKE_SCALE, workloads=["xsbench"]
        )
        cell = result.data["xsbench"]
        assert (cell["split+warm"]["traffic"]
                <= cell["split"]["traffic"] * 1.05)

    def test_fig12_split_helps_silo(self):
        result = load_experiment("fig12").run(
            scale=SMOKE_SCALE, workloads=["silo"]
        )
        cell = result.data["silo"]
        assert cell["rhr"] >= cell["rhr_ns"] - 0.02

    def test_fig14_memtis_beats_tpp_on_cxl(self):
        result = load_experiment("fig14").run(
            scale=SMOKE_SCALE, workloads=["silo"], ratios=["1:8"]
        )
        cell = result.data["silo|1:8"]
        assert cell["memtis"] >= cell["tpp"]

    def test_fig14_three_tier_exercises_cascade(self):
        result = load_experiment("fig14").run_three_tier(
            scale=SMOKE_SCALE, workloads=["silo"]
        )
        cell = result.data["silo"]
        assert cell["tpp"] > 0 and cell["memtis"] > 0
        # DRAM demotions overflowing a full CXL tier cascade on to NVM.
        assert cell["cascade_pages"] > 0

    def test_overheads_bounded(self):
        result = load_experiment("overheads").run(
            scale=SMOKE_SCALE, workloads=["silo", "xsbench"]
        )
        assert result.data["average_usage"] < 0.05


#: sha256 of ``result.text`` for reduced runs of the RunSpec-list
#: experiments, computed with the hand-built Simulation loops they
#: replaced: the sweep must print that text at one worker and at two.
#: The fig2, fig9 and fig11 texts, which plot the per-epoch series,
#: were computed while results still kept it twice.
SWEPT_EXPERIMENTS = [
    ("fig2", dict(workloads=["xsbench"]),
     "7357120e8a7720e48fec84a82502de79d70fab7ebfcfbb542a30e20c3cf081f9"),
    ("fig9", dict(workloads=["liblinear"], ratios=["1:8"]),
     "4e052b261ef267034f964236c9d8073d2fd17e4fa83f3681fd9809284c054231"),
    ("fig11", dict(workloads=["silo"]),
     "3607bd6120da9aa10b8ed45bb20b8d85880c17ffa4c4aaa48d9046e28a1d3d02"),
    ("fig6", dict(rss_points=[128], policies=["hemem", "memtis"]),
     "eaad08aef9ae8bf378838d70e48cb06f770b65f366fccd2e4902060e90523181"),
    ("fig8", dict(workloads=["silo"]),
     "3151a110db135cfe3f3355813eb01618223a8362d9af1305f428b2cf949cb92c"),
    ("colocation", dict(pairs=[("silo", "liblinear")]),
     "4d314ef4c3931ece5619d88af7cb324d63897f327e7ccbdf9c9566e7a91289a8"),
    # Longer traces than SMOKE_SCALE's, so MEMTIS cools during the
    # phase-flip run and its resets/coolings cell is not 0.
    ("headtohead", dict(scale=ScaleSpec(bytes_per_paper_gb=1 << 20,
                                        accesses_per_paper_gb=30_000,
                                        min_bytes=48 << 20,
                                        min_accesses_per_page=200),
                        workloads=["silo"], ratios=["1:8"],
                        policies=["memtis", "hemem", "arms"]),
     "716ab604bae9053709f1e528fe2e47c5ef1db42c122e1f33e97c81bf8279eae6"),
]


@pytest.mark.slow
@pytest.mark.no_result_cache
@pytest.mark.parametrize("experiment_id,kwargs,digest", SWEPT_EXPERIMENTS,
                         ids=[e for e, _, _ in SWEPT_EXPERIMENTS])
def test_swept_experiment_text_is_pinned_at_one_and_two_workers(
        experiment_id, kwargs, digest, monkeypatch):
    texts = []
    for jobs in (1, 2):
        monkeypatch.setattr(sweep, "_default_jobs", jobs)
        texts.append(load_experiment(experiment_id).run(
            **{"scale": SMOKE_SCALE, **kwargs}).text)
    assert texts[0] == texts[1]
    assert hashlib.sha256(texts[0].encode()).hexdigest() == digest
