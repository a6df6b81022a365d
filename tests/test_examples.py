"""Every example script runs to completion.

Each example runs in a fresh interpreter inside a temporary directory,
because some write their output (``paper_figures.py`` writes
``report-example/``) into the working directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

EXAMPLES = sorted(path.name for path in (REPO_ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, tmp_path):
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / name)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
