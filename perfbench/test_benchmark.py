"""Checks of the benchmark's own output.

    python3 -m pytest perfbench/test_benchmark.py

Runs every workload once untraced and once traced (several minutes on
two cores), from the root of the checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((Path(__file__).parent / "layers.json").read_text())["metrics"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Exact at the commit that introduced the benchmark.
PAIR_MATRIX_CALLS = {"singular_quadrature": 75, "wide_overlap": 723,
                     "scaling_study": 225}
PCG_ITERATIONS = {"singular_quadrature": 32, "wide_overlap": 32,
                  "scaling_study": 47}


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=180)


def result(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    return out


def expected_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_tracer_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    t = Tracer(clock=lambda: next(ticks))
    leaf = t.wrap("leaf", lambda: None)
    root = t.wrap("root", lambda: (leaf(), leaf()))
    root()
    assert t.self_times() == {"root": 5.0, "leaf": 5.0}
    assert t.durations("root") == [10.0]


def test_layer_map_names_every_per_layer_metric():
    assert set(LAYERS) == set(expected_units("per_layer"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out = result(workload, 0)
    units = expected_units("end_to_end")
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    metrics = result(workload, 1)["metrics"]
    units = expected_units("per_layer")
    assert {k: v["unit"] for k, v in metrics.items()} == units
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["assembly.pair_matrix_calls"] == PAIR_MATRIX_CALLS[workload]
    assert value["sparse_linalg.pcg_iterations"] == PCG_ITERATIONS[workload]
    layers = sum(value[k] for k, m in LAYERS.items() if m["kind"] == "self_time")
    total = value["trace.time_to_solution_s"]
    assert abs(layers - total) <= 0.05 * total


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
