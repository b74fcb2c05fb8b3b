"""Smoke test of the pipeline benchmark.

Runs every workload of BENCHMARK.json at minimum size (``--smoke``),
untraced and traced, and checks that the run is correct and that every
metric BENCHMARK.json names is present, finite, and carries its unit.
Also checks that the benchmark refuses, without a result, a directory
that holds the benchmark but not the program.

    python3 -m pytest perfbench/test_smoke.py

The ``shootout-peak`` cases take about 25 s each: even at minimum size
the optimized tier's set-up clones the libc's printf core through
safe-O2.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
TIMEOUT = 300


def run_benchmark(cwd: str, workload: str, trace: int,
                  smoke: bool = True) -> subprocess.CompletedProcess:
    command = list(SPEC["command"]) + [
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_finite_with_unit(workload, trace):
    proc = run_benchmark(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in wanted}
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert math.isfinite(reported["value"]), metric["name"]
        if not trace:
            assert reported["value"] > 0, metric["name"]


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(str(tmp_path), WORKLOADS[0], 0, smoke=False)
    assert proc.returncode != 0
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    assert not last.startswith("{")


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
