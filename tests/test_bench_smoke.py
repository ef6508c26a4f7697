"""The benchmark harness under bench/ still runs against the package.

Tier-1 collects only tests/, so this calls the harness's own smoke check:
one round of every workload at tiny sizes, untraced and traced. It
asserts no timings.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

SMOKE = Path(__file__).resolve().parent.parent / "bench" / "smoke.py"


def test_bench_harness_smoke():
    spec = importlib.util.spec_from_file_location("bench_smoke", SMOKE)
    smoke = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(smoke)
    smoke.test_smoke()
