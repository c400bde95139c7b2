"""Smoke test of the benchmark itself: each workload at a tiny size must
emit every named metric, fail no case, and give the same verdict digest on
two runs with one seed and on the traced run.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = sorted(w["name"] for w in SPEC["workloads"])


def run(workload, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
        "--seconds", "0", "--trace", str(trace), "--size", "1",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=170)
    lines = proc.stdout.splitlines()
    info = dict(line.split(": ", 1) for line in lines[:-1] if ": " in line)
    return info, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload):
    info, result = run(workload, 0)
    again, _ = run(workload, 0)
    traced_info, traced = run(workload, 1)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert float(info["fail_share"]) == 0
    for q in (50, 95):
        assert float(info[f"verdict_p{q}_ms"].removesuffix(" ms")) > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0

    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]

    assert info["verdict_digest"] == again["verdict_digest"]
    assert info["verdict_digest"] == traced_info["verdict_digest"]
