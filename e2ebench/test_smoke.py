"""Smoke test of the end-to-end benchmark.

One timed iteration per workload with every output check on; the
printed metric names must equal ``BENCHMARK.json``'s, and the exact
per-layer counts of two traced runs of one seed must be identical.
Run from the repository root::

    python3 -m pytest e2ebench/test_smoke.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, seed: int = 1) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--iterations", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload: str) -> None:
    metrics = run(workload, trace=0)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload: str) -> None:
    first, second = run(workload, trace=1)["metrics"], run(workload, trace=1)["metrics"]
    assert sorted(first) == sorted(m["name"] for m in SPEC["per_layer"])
    for spec in SPEC["per_layer"]:
        assert first[spec["name"]]["unit"] == spec["unit"]
    # Everything but host times (and their ratio, trace_overhead) is exact.
    exact = [
        n for n, m in first.items()
        if m["unit"] not in ("ms", "s") and n != "trace_overhead"
    ]
    assert exact
    for name in exact:
        assert first[name]["value"] == second[name]["value"], name


def test_fails_without_program_sources(tmp_path: Path) -> None:
    bare = tmp_path / "checkout"
    (bare / "e2ebench").mkdir(parents=True)
    for f in BENCH_DIR.glob("*.py"):
        (bare / "e2ebench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
