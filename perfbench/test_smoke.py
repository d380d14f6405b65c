"""Smoke test of the benchmark harness on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed, by name and with
its unit, for every workload, together with the error rate and the run
environment; and that the benchmark refuses to run without the sources.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV_KEYS = {"nproc", "loadavg_start", "loadavg_end", "python", "commit"}


def run_all(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(trace, section):
    proc = run_all(trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert [line.split()[1] for line in lines if line.startswith("workload ")] == workloads

    units = {m["name"]: m["unit"] for m in SPEC[section]}
    results = [json.loads(line) for line in lines if line.startswith('{"correct"')]
    assert len(results) == len(workloads)
    for result in results:
        assert result["correct"] is True
        assert result["failed"] == 0 < result["attempted"]
        assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    for name, unit in units.items():
        printed = [line for line in lines if line.startswith(f"{name} = ")]
        assert len(printed) == len(workloads), name
        assert all(line.endswith(f" {unit}") for line in printed), name

    assert sum(line.startswith("error_rate = 0.0 ratio") for line in lines) == len(workloads)
    envs = [json.loads(line[4:]) for line in lines if line.startswith("env ")]
    assert len(envs) == len(workloads)
    assert all(set(env) == ENV_KEYS for env in envs)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "exhaustive7", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
