"""Tests of the benchmark itself, run at smoke sizes so each takes seconds."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench_trace import self_time_by_name, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, kind):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    # The untimed output checks ran and passed.
    checks = next(line for line in lines if line.startswith("checks: "))
    passed, attempted = checks.split()[1].split("/")
    assert passed == attempted == str(result["attempted"])
    untimed = "clean loss vs lstsq" if workload.startswith("select") else "sweep CSV 1 vs"
    assert untimed in checks


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, None],
        ["solver.fit_masks", 1.0, 5.0, 0, 0, None],
        ["selection.select", 5.0, 9.0, 0, 0, None],
        ["mechanisms.pick", 6.0, 7.5, 2, 0, None],
    ]
    assert self_times(spans) == [2.0, 4.0, 2.5, 1.5]
    assert self_time_by_name(spans + [["solver.fit_masks", 11.0, 12.0, -1, 1, None]]) == {
        "cli.main": 2.0, "solver.fit_masks": 5.0, "selection.select": 2.5, "mechanisms.pick": 1.5,
    }
