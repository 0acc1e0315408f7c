"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/smoke_test.py

Every workload completes with no failed op, prints every metric that
BENCHMARK.json names with its unit, and the exact counts hold: the traced
step count equals the configured steps, and counts repeat between two
traced runs.
"""
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import COUNT_UNITS  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"], detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"], detail


def _check_names(metrics, specs):
    assert sorted(metrics) == sorted(m["name"] for m in specs)
    for spec in specs:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert isinstance(metrics[spec["name"]]["value"], (int, float))


def test_benchmark_json_names_these_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics, detail = _run(workload, trace=0)
    _check_names(metrics, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())
    assert detail["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_exact_counts(workload):
    first, _ = _run(workload, trace=1)
    second, _ = _run(workload, trace=1)
    _check_names(first, SPEC["per_layer"])
    steps = sum(s["config"]["evolution"]["steps"] for s in build(workload, 3, tiny=True))
    assert first["evolvers.step_calls"]["value"] == steps
    for name, metric in first.items():
        if metric["unit"] in COUNT_UNITS:
            assert metric["value"] == second[name]["value"], name


def test_missing_sources_exit_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(HERE, name)).read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
