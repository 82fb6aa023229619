"""Smoke test of the benchmark itself, at tiny size.

Checks the shape of the result line and that every catalogued metric is
reported with its unit. It sets no timing bounds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from metrics import END_TO_END, PER_LAYER

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["ingest", "qa"])
def test_result_line_reports_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    env_line, result_line = done.stdout.splitlines()[-2:]
    env = json.loads(env_line.removeprefix("env: "))
    assert {"python", "numpy", "nproc", "latency_samples", "latency_tail_percentile"} <= set(env)
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    catalogue = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [m.name for m in catalogue]
    for metric in catalogue:
        reported = result["metrics"][metric.name]
        assert reported["unit"] == metric.unit
        assert math.isfinite(reported["value"])
        if not trace:
            assert reported["value"] > 0, metric.name


def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == ["ingest", "qa"]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "qa", 0)
    assert done.returncode != 0
    assert done.stdout == ""
