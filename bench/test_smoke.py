"""Smoke check of the benchmark itself: every workload at its smallest size.

It asserts that each run completes, passes its own correctness checks and
reports every metric that BENCHMARK.json declares. Timings are not checked.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


@pytest.fixture(scope="module")
def results() -> dict:
    """Every workload, untraced and traced, run side by side."""
    procs = {
        (workload, trace): subprocess.Popen(
            [
                sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
                "--seconds", "0", "--trace", str(trace), "--scale", "smoke",
            ],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for workload in WORKLOADS
        for trace in (0, 1)
    }
    out = {}
    for key, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=300)
        out[key] = (proc.returncode, stdout, stderr)
    return out


def _result(results, workload: str, trace: int) -> dict:
    code, stdout, stderr = results[(workload, trace)]
    assert code == 0, stderr[-3000:]
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correctly_and_reports_every_metric(results, workload):
    traced = _result(results, workload, 1)
    assert traced["correct"] is True
    assert traced["failed"] == 0 and traced["attempted"] >= 1
    assert set(traced["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    assert traced["metrics"]["trace.absent"]["value"] == 0

    plain = _result(results, workload, 0)
    assert plain["correct"] is True
    metrics = plain["metrics"]
    assert set(metrics) == {m["name"] for m in DECLARED["end_to_end"]}
    for declared in DECLARED["end_to_end"]:
        assert metrics[declared["name"]]["unit"] == declared["unit"]
        assert metrics[declared["name"]]["value"] > 0
    assert metrics["task_ok_share"]["value"] == 1.0
    assert metrics["contract_ok_share"]["value"] == 1.0
