"""The benchmark's traced worker still finds every name it wraps.

``perfbench/worker.py`` wraps harness, FETI and linear-algebra functions
and reads attributes of their results by name; a renamed function or
field would make a traced run fail or count nothing.  This runs one
traced repetition of its smallest workload and checks its counts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_worker_counts_the_singular_quadrature_solve(tmp_path):
    """Peridynamic n=32, delta=2h, 3 x 3: 46 pair classes and 32 dual
    iterations, with no error and no failed check."""
    out = tmp_path / "r.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", "singular_quadrature", "--trace", "1",
         "--result", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["error"] is None
    assert result["failed"] == 0
    assert result["layers"]["sparse_linalg.pcg_iterations"] == 32
    assert result["layers"]["assembly.pair_matrix_calls"] == 46
