"""The benchmark's traced worker still finds every name it wraps.

``perfbench/worker.py`` wraps harness, FETI and linear-algebra functions
and reads attributes of their results by name; a renamed function or
field would make a traced run fail or count nothing.  This runs one
traced repetition of two workloads and checks their counts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced_layers(workload: str, tmp_path) -> dict:
    """The per-layer metrics of one traced repetition of ``workload``,
    which must end with no error and no failed check."""
    out = tmp_path / "r.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", workload, "--trace", "1", "--result", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["error"] is None
    assert result["failed"] == 0
    return result["layers"]


def test_traced_worker_counts_the_singular_quadrature_solve(tmp_path):
    """Peridynamic n=32, delta=2h, 3 x 3: 46 pair classes, 18
    factorizations and 32 dual iterations."""
    layers = _traced_layers("singular_quadrature", tmp_path)
    assert layers["sparse_linalg.pcg_iterations"] == 32
    assert layers["assembly.pair_matrix_calls"] == 46
    assert layers["sparse_linalg.factorizations"] == 18
    assert layers["feti.apply_F_calls"] == 34


def test_traced_worker_counts_the_scaling_study(tmp_path):
    """Fractional n=64, delta=2h, rungs 1 x 1, 2 x 2 and 4 x 4, summed:
    the 1 x 1 rung is the only benchmarked solve with no multiplier."""
    layers = _traced_layers("scaling_study", tmp_path)
    assert layers["assembly.pair_matrix_calls"] == 46
    assert layers["sparse_linalg.factorizations"] == 27
    assert layers["sparse_linalg.pcg_iterations"] == 47
    assert layers["feti.apply_F_calls"] == 53
