"""Smoke check of the benchmark harness at tiny input sizes.

    python3 bench/smoke.py        (or: python3 -m pytest bench/smoke.py)

Runs one round of every workload, untraced and traced, and checks that
each reports exactly the metrics `BENCHMARK.json` declares and that no op
failed. It asserts no timings.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402

TINY = {
    "STAR_SIZES": (3, 6),
    "FULL_RUN_MAX": 3,
    "STEP_BUDGET": 6,
    "CFG_SIZES": {shape: (7,) for shape in inputs.SHAPES},
    "MUTANT_SIZES": (7,),
    "ORACLE_STAR_SIZES": (3,),
    "ORACLE_LIST_SIZES": (3,),
}


def test_smoke() -> None:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    expected = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    saved = {name: getattr(inputs, name) for name in TINY}
    try:
        for name, value in TINY.items():
            setattr(inputs, name, value)
        for workload in run.WORKLOADS:
            for traced in (False, True):
                result = run.measure(workload, seed=1, seconds=0, traced=traced)["result"]
                assert result["failed"] == 0, (workload, result)
                assert result["correct"] is True
                assert result["attempted"] >= 1
                assert set(result["metrics"]) == expected[traced], workload
    finally:
        for name, value in saved.items():
            setattr(inputs, name, value)


if __name__ == "__main__":
    test_smoke()
    print("smoke: ok")
