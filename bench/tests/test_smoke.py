"""Smoke passes: one traced pass in process, one timed CLI run, and the
refusal to run without the program's source."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from bench import child, harness, workloads


def test_tiny_traced_llc_sweep_pass(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(workloads, "LLC_WINDOW", 2_000)
    result = child._pass("llc-sweep", 7, traced=True)
    assert result["cache_isolated"]
    assert result["missing_spans"] == []
    assert result["self_time_error"] is None
    metrics = result["metrics"]
    assert metrics["uarch.columnar.calls"] == len(
        workloads.LLC_WORKLOADS) * len(workloads.LLC_SIZES_MB)
    assert metrics["trace.capture.calls"] == len(workloads.LLC_WORKLOADS)
    assert result["uops"] == metrics["uarch.columnar.uops"] > 0
    again = child._pass("llc-sweep", 7, traced=False)
    assert again["output_sha256"] == result["output_sha256"]


def _measure(cwd, seconds="1"):
    return subprocess.run(
        [sys.executable, "-m", "bench", "measure", "--workload",
         "llc-sweep", "--seed", "3", "--seconds", seconds, "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_measure_prints_the_result_object_last():
    proc = _measure(harness.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 2 and result["failed"] == 0
    spec = harness.load_spec()
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not harness.TMP_ROOT.exists()


def test_measure_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(harness.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.SPEC_PATH, tmp_path / "BENCHMARK.json")
    proc = _measure(tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "cannot run the program" in proc.stderr
