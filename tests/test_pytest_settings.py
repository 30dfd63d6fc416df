"""The repository's pytest settings, run on a small test file of their own."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAIL_AND_PASS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(k):
    assert k < 5


def test_passes():
    pass
'''


def test_a_failing_hypothesis_example_lets_the_run_go_on(tmp_path):
    # hypothesis reports a failing example through libcst, whose import
    # warns; under warnings-as-errors that stopped pytest with an internal
    # error, and the tests after it never ran
    (tmp_path / "test_two.py").write_text(FAIL_AND_PASS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-q",
         "-p", "no:cacheprovider", str(tmp_path / "test_two.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
