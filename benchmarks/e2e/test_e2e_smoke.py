"""The whole benchmark at tiny size: every workload, every metric, checks."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=300)


def test_smoke_runs_all_four_workloads_in_under_a_minute(tmp_path):
    out = tmp_path / "set.json"
    started = time.monotonic()
    done = run("--workload", "all", "--smoke", "--seconds", "1", "--seed",
               "5", "--out", str(out))
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 60
    runs = json.loads(out.read_text())["sets"][0]["runs"]
    assert sorted(runs) == sorted(w["name"] for w in SPEC["workloads"])
    for results in runs.values():
        (result,) = results
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1 and len(result["digest"]) == 64
        assert set(result["metrics"]) == {m["name"]
                                          for m in SPEC["end_to_end"]}
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_trace_reports_every_per_layer_metric():
    done = run("--workload", "sim-compute", "--smoke", "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # Simulator shares partition GPU.run time (clamping can only add).
    assert sum(metrics[f"{layer}.self_share"] for layer in (
        "sim.gpu", "sim.events", "core.cta_schedulers", "sim.sm",
        "core.warp_schedulers", "mem.cache.l1", "mem.subsystem", "mem.dram",
        "workloads.programs")) >= 1 - 1e-9
    assert metrics["trace.overhead_x"] > 1
    assert metrics["harness.engine.cold.calls"] == 0   # not exercised
