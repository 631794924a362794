"""The README's Python tour runs as written against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)


def test_readme_has_a_python_tour():
    assert len(python_blocks()) == 1


def test_readme_tour_runs():
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", python_blocks()[0]], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert float(done.stdout.split()[0]) < 1e-9  # the unrotation witness distills exactly
