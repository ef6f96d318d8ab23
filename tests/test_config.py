"""The test configuration itself: a failing property must still be reported."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]

FAILING_PROPERTY = """
from hypothesis import Phase, given, settings, strategies as st


@settings(database=None, phases=[Phase.generate])
@given(st.just(0))
def test_always_fails(n):
    assert n != n
"""


def test_failing_property_shows_its_falsifying_example(tmp_path):
    # On failure hypothesis imports libcst, whose import warns
    # DeprecationWarning; the error:: filters must not turn that into an
    # INTERNALERROR that hides the example.
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_fails.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output, output
    assert "INTERNALERROR" not in output, output
