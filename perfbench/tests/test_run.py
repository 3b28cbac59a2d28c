"""One short run of each workload at seed 0: the last line of output names
every metric of BENCHMARK.json with its unit.

These runs take a few minutes at the seed; run from the root of a checkout
with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*BENCH["command"], "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _metrics(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    return result["metrics"]


def test_benchmark_json_lists_the_per_layer_metrics():
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in BENCH["workloads"]] == sorted(run.WORKLOADS, key=["certify", "families",
                                                                                 "battery"].index)


@pytest.mark.parametrize("workload", ["certify", "families", "battery"])
def test_end_to_end_metrics(workload):
    metrics = _metrics(_run(ROOT, workload, 0))
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert all(v["value"] > 0 for v in metrics.values())


def test_per_layer_metrics():
    metrics = _metrics(_run(ROOT, "battery", 1))
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert metrics["trace.rounds"]["value"] >= 1 and metrics["ordertype.terms"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "certify", 0)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
