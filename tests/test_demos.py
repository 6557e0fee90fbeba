"""Smoke test: every demo script runs to completion and prints something."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_run():
    assert len(DEMOS) == 5
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Demos", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^python3 (demos/\S+\.py)$", block, re.M)
    assert listed == [f"demos/{demo.name}" for demo in DEMOS]
    env = dict(os.environ, PYTHONPATH="src")
    for demo in DEMOS:
        proc = subprocess.run(
            [sys.executable, str(demo)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, (demo.name, proc.stderr)
        assert proc.stdout.strip(), demo.name
