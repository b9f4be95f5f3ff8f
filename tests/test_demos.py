"""Smoke test: every script under demos/ runs to completion against src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=tmp_path,
                         timeout=300)
    assert out.returncode == 0, out.stderr
