"""The demo scripts run cleanly against this source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import entroflow

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_without_warnings(demo, tmp_path):
    """Each demo exits 0 under ``-W error`` and writes nothing to stderr."""
    src = str(Path(entroflow.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
