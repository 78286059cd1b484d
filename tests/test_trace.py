"""Trace recording/replay and the top-level CLI."""

import hashlib
import zipfile

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.policies.static import AllFastPolicy
from repro.sim.engine import Simulation, stream_rng
from repro.sim.machine import MachineSpec
from repro.workloads.registry import make_workload
from repro.workloads.trace import TraceWorkload, record_trace

from conftest import TEST_SCALE

MB = 1024 * 1024


class TestTraceRoundtrip:
    def test_replay_matches_original(self, tmp_path):
        path = str(tmp_path / "trace.npz")
        original = make_workload("silo", TEST_SCALE)
        # Record the stream a seed-7 simulation draws, so live and
        # replayed runs are bit-identical.
        stats = record_trace(original, path, seed=stream_rng(7))
        assert stats["accesses"] > 0

        def run(workload):
            machine = MachineSpec.from_ratio(workload.total_bytes, ratio="1:8")
            return Simulation(workload, AllFastPolicy(), machine, seed=7).run()

        a = run(make_workload("silo", TEST_SCALE))
        b = run(TraceWorkload(path))
        assert a.metrics.total_accesses == b.metrics.total_accesses
        assert a.runtime_ns == pytest.approx(b.runtime_ns)
        assert a.fast_hit_ratio == pytest.approx(b.fast_hit_ratio)

    def test_replay_preserves_alloc_free(self, tmp_path):
        path = str(tmp_path / "bwaves.npz")
        record_trace(make_workload("603.bwaves", TEST_SCALE), path, seed=3)
        workload = TraceWorkload(path)
        from repro.workloads.base import AllocEvent, FreeEvent

        events = list(workload.events(np.random.default_rng(0)))
        allocs = [e for e in events if isinstance(e, AllocEvent)]
        frees = [e for e in events if isinstance(e, FreeEvent)]
        assert len(frees) >= 1
        assert len(allocs) > len(frees)

    def test_max_accesses_truncates(self, tmp_path):
        path = str(tmp_path / "short.npz")
        stats = record_trace(make_workload("silo", TEST_SCALE), path,
                             max_accesses=50_000)
        assert 50_000 <= stats["accesses"] <= 100_000

    @pytest.mark.parametrize("name,max_accesses,digests", [
        ("603.bwaves", None, (
            "67025a58f9b24dd1d8649a194cd6e8f6cb52f7b20e40450b3d7cfa6ead5dc35f",
            "3dbb3f1394c14261cdab3486562cf914cab640e8809181bd8845d2ba4ef7d9fb",
            "0dc2e0cdc9e95a64ad868e46af60423c940f97deb322bfde83c2d63a995ce951",
        )),
        ("btree", 30_000, (
            "cc62593c95d7ed007a5fdadefc57d62b95eedb4ddf7c12d05dd7343a49df1545",
            "bef69949efa6579b702410c49f3a66b447c1b0cf70d469ebdd8a652adad92154",
            "2ea4191aa6620549e3f19cbd9a0993638aadadb43e8fb4f19fdef719bdab035c",
        )),
    ])
    def test_recorded_files_are_pinned(self, tmp_path, name, max_accesses,
                                       digests):
        """``record_trace`` writes the same three files as the standalone
        writer loop it replaced, but for the key arrays, which are
        fixed-width ``str`` (no pickle) since they were object arrays.
        The ``.npz`` is hashed member by member: its zip headers carry
        the write time."""
        path = str(tmp_path / name)
        record_trace(make_workload(name, TEST_SCALE), path, seed=9,
                     max_accesses=max_accesses)
        meta = hashlib.sha256()
        with zipfile.ZipFile(path + ".npz") as archive:
            for info in archive.infolist():
                meta.update(info.filename.encode())
                meta.update(archive.read(info))
        sidecars = []
        for suffix in (".vpn.npy", ".st.npy"):
            with open(path + suffix, "rb") as fh:
                sidecars.append(hashlib.sha256(fh.read()).hexdigest())
        assert (meta.hexdigest(), *sidecars) == digests


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "memtis" in out
        assert "silo" in out

    def test_run_quick(self, capsys):
        code = cli_main(["run", "silo", "all-capacity", "--quick",
                         "--no-baseline"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fast-tier hit ratio" in out

    def test_trace_record_and_replay(self, tmp_path, capsys):
        path = str(tmp_path / "t.npz")
        assert cli_main(["trace", "--workload", "silo", "--quick",
                         "--record", path]) == 0
        assert cli_main(["trace", "--replay", path, "--policy",
                         "all-capacity", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "replayed" in out

    def test_trace_requires_mode(self, capsys):
        assert cli_main(["trace"]) == 2

    def test_no_command_prints_help(self, capsys):
        assert cli_main([]) == 0
        assert "usage" in capsys.readouterr().out
