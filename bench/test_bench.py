"""Smoke test of the benchmark at its smallest setting: 2x2, one operation.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("recover", "complete", "factorize", "naturality")


def run(workload, trace, seed=1, cwd=ROOT, script=BENCH / "run.py"):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=120)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def section(proc, name):
    return next(line for line in proc.stdout.splitlines() if line.startswith("{") and json.loads(line).get("section") == name)


def declared(kind):
    return {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out = result(run(workload, 0))
    assert out["correct"] is True and out["attempted"] == 1 and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    out = result(run(workload, 1))
    assert out["correct"] is True and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared("per_layer")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly(workload):
    first, second = run(workload, 1, seed=7), run(workload, 1, seed=7)
    assert section(first, "counters") == section(second, "counters")


def test_declared_workloads_exist():
    assert [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]] == list(WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("recover", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
