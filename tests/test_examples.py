"""Examples: each one compiles, is documented, and runs with --quick."""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
EXAMPLES = [
    "quickstart.py",
    "split_study.py",
    "cxl_vs_nvm.py",
    "custom_policy.py",
    "hotset_timeline.py",
]


class TestExamplesExist:
    @pytest.mark.parametrize("name", EXAMPLES)
    def test_present_and_compiles(self, name):
        path = os.path.join(EXAMPLES_DIR, name)
        assert os.path.exists(path)
        source = open(path).read()
        compile(source, path, "exec")
        assert '"""' in source  # documented
        assert "--quick" in source  # supports the fast demo mode


#: Text each example prints once it has run to the end.
EXPECTED_OUTPUT = {
    "quickstart.py": "Normalised performance",
    "split_study.py": "Skewness-aware splitting",
    "cxl_vs_nvm.py": "NVM vs CXL capacity tier",
    "custom_policy.py": "memtis",
    "hotset_timeline.py": "hit ratio",
}


@pytest.mark.slow
class TestExampleRuns:
    @pytest.mark.parametrize("name", EXAMPLES)
    def test_quick_run(self, name, tmp_path):
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"))
        proc = subprocess.run(
            [sys.executable, os.path.join(EXAMPLES_DIR, name), "--quick"],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert EXPECTED_OUTPUT[name] in proc.stdout
