"""The suite's pytest settings report a failing hypothesis property as a failure.

``pyproject.toml`` makes every warning an error.  Hypothesis's own failure
report raises a ``DeprecationWarning``; as an error it would turn the failed
property into an INTERNALERROR and stop the run before the tests after it.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SUITE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(n):
    assert n < 0


def test_after_it():
    pass
'''


def test_a_failing_property_fails_and_the_next_test_still_runs(tmp_path):
    shutil.copy2(ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    (tmp_path / "test_case.py").write_text(_SUITE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider", "test_case.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "test_case.py::test_a_failing_property FAILED" in proc.stdout
    assert "test_case.py::test_after_it PASSED" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
