"""The repository's pytest settings: a failing property test is reported
as one failure and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

DEMO = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
'''


def test_failing_given_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_demo.py").write_text(DEMO)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "--hypothesis-seed=0", "test_demo.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
