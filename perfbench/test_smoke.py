"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench -q

Runs every workload shrunk (``--tiny``) with and without tracing and
asserts that every named metric is printed with its unit, that every
output check passes, that the exact work counts repeat from run to
run, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
CATALOGUE = json.loads((HERE / "metrics.json").read_text())
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def tiny_run(trace: int, seed: int = 3) -> tuple:
    proc = bench(
        "--workload", "all", "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--tiny",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def tables(lines: list) -> dict:
    """Workload name -> {metric: unit} from the printed tables."""
    out: dict = {}
    current = None
    for line in lines:
        if line.startswith("== "):
            current = out.setdefault(line.split()[1], {})
        elif current is not None and not line.lstrip().startswith("["):
            fields = line.split()
            if len(fields) == 3 and fields[0] in CATALOGUE["metrics"]:
                current[fields[0]] = fields[2]
    return out


def test_benchmark_json_matches_the_catalogue():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert "setup_s" in [m["name"] for m in BENCHMARK["end_to_end"]]
    for kind in ("end_to_end", "per_layer"):
        for entry in BENCHMARK[kind]:
            described = CATALOGUE["metrics"][entry["name"]]
            assert described["kind"] == kind
            assert described["unit"] == entry["unit"]
            assert described["better"] == entry["better"]
            assert described["in_BENCHMARK_json"]
    assert CATALOGUE["held_out_seed"] not in CATALOGUE["development_seeds"]
    assert sorted(CATALOGUE["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit_and_checks_pass(trace):
    lines, result = tiny_run(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert not [line for line in lines if "[FAIL]" in line]
    kind = "per_layer" if trace else "end_to_end"
    for workload in WORKLOADS:
        for entry in BENCHMARK[kind]:
            metric = result["metrics"][f"{workload}/{entry['name']}"]
            assert metric["unit"] == entry["unit"]
            assert isinstance(metric["value"], (int, float))
    printed = tables(lines)
    assert sorted(printed) == sorted(WORKLOADS)
    for name, described in CATALOGUE["metrics"].items():
        if described["kind"] != kind:
            continue
        for workload in described["workloads"]:
            assert printed[workload].get(name) == described["unit"], (workload, name)
    if not trace:
        assert result["metrics"]["paper_sweep/setup_s"]["value"] > 0


def test_work_counts_repeat_exactly_across_runs():
    exact = [
        entry["name"] for entry in BENCHMARK["per_layer"]
        if entry["unit"] in ("count", "cycle")
    ]
    _, first = tiny_run(1)
    _, second = tiny_run(1)
    for workload in WORKLOADS:
        for name in exact:
            key = f"{workload}/{name}"
            assert first["metrics"][key] == second["metrics"][key], key


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(
        "--workload", "traffic_mix", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
