"""Smoke test of the benchmark: ``python3 -m pytest perfbench/test_smoke.py``.

Runs every workload once at the smallest sizes, untraced and traced, and
checks that every metric is reported with its unit, that the outputs
verify (seed invariance included), and that ``BENCHMARK.json`` declares the
same metrics the harness reports.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _run(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True,
                          timeout=170, cwd=cwd)


def test_benchmark_json_declares_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["exhaust", "found", "replay"]


@pytest.mark.parametrize("workload", ["exhaust", "found", "replay"])
def test_smoke_reports_every_metric(workload):
    proc = _run("--workload", workload, "--smoke", "--seed", "7")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1
    for name, unit in {**run.END_TO_END, **run.EXTRA, **run.PER_LAYER}.items():
        assert last["metrics"][name]["unit"] == unit, name
        assert isinstance(last["metrics"][name]["value"], (int, float)), name


def test_refuses_outside_a_source_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "exhaust", "--seconds", "1", "--seed", "0", "--trace", "0",
                cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
