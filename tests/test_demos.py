"""Each demo runs to the end as a script and prints its results."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICK = ("01_", "02_", "03_")   # a few seconds each; the rest train for longer


@pytest.mark.parametrize("demo", [
    pytest.param(d, id=d.stem, marks=() if d.name.startswith(QUICK) else pytest.mark.slow)
    for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
