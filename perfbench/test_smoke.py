"""Smoke check of the benchmark itself: every workload on its reduced
("smoke") inputs, untraced and traced, must match all its pins and emit
every metric that BENCHMARK.json names.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int, seed: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", "smoke"],
        cwd=str(cwd), capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, trace):
    # seed 1 is not the default, so the oracle cross-checks run as well
    proc = run_bench(ROOT, workload, trace, seed=1)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["attempted"] >= 1
    assert report["failed"] / report["attempted"] == 0, proc.stderr
    assert report["correct"] is True
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(report["metrics"]) == {m["name"] for m in named}
    for m in named:
        got = report["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0, seed=0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
