"""The project's pytest settings: a failing property test is reported as a
failure and the run goes on to the next test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

MODULE = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_property_that_fails(n):
    assert n < 0


def test_one_that_passes():
    pass
"""


def test_a_failing_property_does_not_stop_the_run(tmp_path):
    """With every warning an error, hypothesis writing the failing example's
    patch (through libcst) must not end the session in an internal error."""
    (tmp_path / "test_module.py").write_text(MODULE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_module.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
