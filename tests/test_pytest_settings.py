"""The repo's pytest settings (pyproject.toml) against a failing hypothesis test."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SAMPLE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
'''


def test_failing_hypothesis_test_reports_its_example_and_the_session_goes_on(tmp_path):
    # hypothesis's failure report warns about a deprecated TypedDict; as an error under
    # filterwarnings = ["error"] it hid the example and ended the session (INTERNALERROR)
    (tmp_path / "test_sample.py").write_text(textwrap.dedent(SAMPLE), encoding="utf-8")
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
            "--rootdir", str(tmp_path), "test_sample.py"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "Falsifying example: test_fails(" in proc.stdout and "n=10," in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
