"""Every demo script runs to completion against the package in src/."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_demo(demo, **env):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env)
    return subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    proc = _run_demo(demo)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_output_does_not_depend_on_the_hash_seed(demo):
    # string hashing orders sets of ids; a demo prints none unsorted
    first, second = (_run_demo(demo, PYTHONHASHSEED=seed) for seed in ("0", "1"))
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
