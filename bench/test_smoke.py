"""Smoke test of the benchmark on a cheap subset of every workload.

Run from the repository root:  python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, detail["problems"]
    assert detail["failed_ratio"] == 0
    return detail, result


def units(result) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    detail, result = result_of(bench(workload, 0))
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert detail["samples_above_p90"] >= 10
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_accounts_for_request_time_and_repeats_counters(workload):
    detail, result = result_of(bench(workload, 1))
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    self_s = sum(m["value"] for name, m in result["metrics"].items() if name.endswith(".self_s"))
    # Layer self times partition the top-level cli.run spans, and those cover
    # the request wall time up to the cost of one wrapper call per request.
    assert 0.97 * detail["traced_request_s"] <= self_s <= detail["traced_request_s"]
    again, _ = result_of(bench(workload, 1))
    assert again["counters"] == detail["counters"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_rationale_names_every_metric_and_workload():
    rationale = json.loads((BENCH / "rationale.json").read_text())
    assert set(rationale["workloads"]) == set(WORKLOADS)
    assert set(rationale["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    layers = [name.split(" ")[0] for name in rationale["per_layer"]["<layer>.calls, <layer>.self_s"]["layers"]]
    named = set(rationale["per_layer"]) | {f"{l}.{k}" for l in layers for k in ("calls", "self_s")}
    assert {m["name"] for m in SPEC["per_layer"]} <= named
