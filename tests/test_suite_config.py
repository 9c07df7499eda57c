"""The test configuration in pyproject.toml keeps a failing property test
from ending the session: every warning is an error, except the deprecation
warning that hypothesis' report hook can raise when a @given test fails,
which pytest would turn into an INTERNALERROR that skips every later test."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

FAILING_THEN_PLAIN = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after_the_failure():
    pass
'''


def test_a_failing_given_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_child.py").write_text(FAILING_THEN_PLAIN)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_child.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout + run.stderr
