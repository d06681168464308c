"""The suite's own pytest configuration: warnings raised inside pytest's
plugins must not turn a test failure into an aborted session."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING_THEN_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_failing_given_test_is_an_ordinary_failure(tmp_path):
    # a failing @given test makes hypothesis import libcst to print an example
    # patch, and that import warns through mypy_extensions; the error filter
    # on DeprecationWarning must not make that an INTERNALERROR (exit 3)
    (tmp_path / "test_two.py").write_text(FAILING_THEN_PASSING, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), str(tmp_path / "test_two.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert re.search(r"\b1 failed, 1 passed\b", proc.stdout), proc.stdout
