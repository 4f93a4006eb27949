"""One repetition of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --trace 0|1 --result FILE

Runs the workload's harness call once, checks every solve against a
sparse direct solve and the L2 error recorded for the configuration,
and writes one JSON object to FILE.  ``src`` of the checkout must be on
PYTHONPATH; ``run.py`` starts this script and sets it.

Untraced, only ``harness.run_single`` and ``feti.feti_solve`` are
wrapped: their start times split ``time_to_solution_s`` into set-up and
the rest.  Traced, every layer's public functions are wrapped at the
attribute their caller looks up (``feti`` imports ``factorize`` and
``projected_pcg`` by name, so those are patched on ``nlfeti.feti``).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer


@dataclass(frozen=True)
class Workload:
    entry: str      # harness function: run_single or run_study
    config: dict    # ExperimentConfig fields
    l2_error: dict  # subdomain grid label -> L2 error at the seed commit


# L2 errors were recorded at the commit that introduced the benchmark.
# They differ between the strong-scaling rungs only at the dual
# tolerance (1e-10), far below the O(h^2) test bounds.
WORKLOADS = {
    "singular_quadrature": Workload(
        "run_single",
        dict(family="peridynamic", n=32, delta=0.0625, k1=3, k2=3,
             solver="feti"),
        {"3x3": 2.6925851699632854e-04}),
    "wide_overlap": Workload(
        "run_single",
        dict(family="constant", n=64, delta=0.125, k1=4, k2=4,
             solver="feti"),
        {"4x4": 9.037693241025635e-05}),
    "scaling_study": Workload(
        "run_study",
        dict(family="fractional", s=0.4, n=64, delta=0.03125,
             study="strong_scaling", solver="feti"),
        {"1x1": 9.033075108609527e-05, "2x2": 9.033075112177402e-05,
         "4x4": 9.033075076686579e-05}),
}

ENERGY_TOL = 1e-7   # FETI against the direct solve, relative energy norm
L2_RTOL = 1e-6      # L2 error against the recorded value, relative

# Span name -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "harness.run_study": "harness.self_s",
    "harness.run_single": "harness.self_s",
    "mesh.build_structured_mesh": "mesh.build_s",
    "assembly.pair_matrix": "assembly.quadrature_s",
    "assembly.assemble_global": "assembly.global_s",
    "subdivision.build_subdivision": "subdivision.build_s",
    "subdivision.verify_coverage": "subdivision.coverage_s",
    "feti.build_feti_system": "feti.coarse_s",
    "feti.assemble_subdomain": "feti.subdomain_assembly_s",
    "sparse_linalg.factorize": "sparse_linalg.factorize_s",
    "feti.feti_solve": "feti.recover_s",
    "sparse_linalg.projected_pcg": "sparse_linalg.pcg_s",
    "feti.apply_F": "feti.apply_F_s",
    "feti.apply_P": "feti.apply_P_s",
    "feti.apply_Minv": "feti.apply_Minv_s",
    "feti.gather_solution": "feti.gather_s",
}


class Probe:
    """Wrappers installed for one run, and the counts they collect."""

    def __init__(self, traced: bool):
        import numpy as np
        from nlfeti import assembly, feti, harness, subdivision

        self.tracer = Tracer()
        self.solves: list = []
        self.counts: Counter = Counter()

        def add(counts: dict) -> None:
            self.counts.update({k: int(v) for k, v in counts.items()})

        t = self.tracer
        t.patch(harness, "run_single", "harness.run_single",
                lambda out, _: self.solves.append(_solve_summary(out)))
        t.patch(harness, "feti_solve", "feti.feti_solve")
        if not traced:
            return
        t.patch(harness, "run_study", "harness.run_study")
        t.patch(harness, "build_structured_mesh", "mesh.build_structured_mesh")
        t.patch(assembly, "pair_matrix", "assembly.pair_matrix",
                lambda r, _: add({"assembly.pair_matrix_calls": 1,
                                  "assembly.nonzero_classes": np.any(r[0])}))
        t.patch(harness, "assemble_global", "assembly.assemble_global",
                lambda r, _: add({"assembly.global_nnz": r.A.nnz}))
        t.patch(harness, "build_subdivision", "subdivision.build_subdivision",
                lambda r, _: add({"subdivision.subdomains": r.K,
                                  "subdivision.floating": r.floating.sum()}))
        t.patch(subdivision, "verify_coverage", "subdivision.verify_coverage")
        t.patch(harness, "build_feti_system", "feti.build_feti_system",
                lambda r, _: add({"feti.multipliers": r.constraints.B.shape[0],
                                  "feti.coarse_dim": r.G.shape[1]}))
        t.patch(feti, "assemble_subdomain", "feti.assemble_subdomain",
                lambda r, _: add({"feti.subdomain_nnz": r.A_OO.nnz
                                  + 2 * r.A_OG.nnz + r.A_GG.nnz}))
        t.patch(feti, "factorize", "sparse_linalg.factorize",
                lambda r, _: add({"sparse_linalg.factorizations": 1,
                                  "sparse_linalg.factor_nnz": r.lu.nnz}))
        t.patch(feti, "projected_pcg", "sparse_linalg.projected_pcg",
                lambda r, _: add({"sparse_linalg.pcg_iterations": r[1]}))
        t.patch(feti.FetiSystem, "apply_F", "feti.apply_F",
                lambda r, _: add({"feti.apply_F_calls": 1}))
        t.patch(feti.FetiSystem, "apply_P", "feti.apply_P")
        t.patch(feti.FetiSystem, "apply_Minv", "feti.apply_Minv")
        t.patch(harness, "gather_solution", "feti.gather_solution")

    def setup_seconds(self) -> float:
        """Sum over solves of the time from the solve's start to the
        start of its dual iteration (entry to ``feti_solve``)."""
        spans = self.tracer.spans
        total = 0.0
        for name, start, _, parent in spans:
            if name != "feti.feti_solve":
                continue
            while spans[parent][0] != "harness.run_single":
                parent = spans[parent][3]
            total += start - spans[parent][1]
        return total

    def layer_metrics(self) -> dict:
        """Per-layer metrics of a traced run (a study sums its rungs)."""
        from nlfeti.assembly import Assembler

        out = {m: 0.0 for m in SELF_TIME_METRICS.values()}
        for name, secs in self.tracer.self_times().items():
            out[SELF_TIME_METRICS[name]] += secs
        c = self.counts
        sub = self.tracer.durations("feti.assemble_subdomain")
        out["feti.subdomain_assembly_max_s"] = max(sub, default=0.0)
        out["feti.dual_solve_s"] = sum(self.tracer.durations("feti.feti_solve"))
        out["feti.overlap_nnz_ratio"] = (c["feti.subdomain_nnz"]
                                         / c["assembly.global_nnz"])
        out["assembly.classes"] = sum(
            len(Assembler(s["assembled"].mesh, s["assembled"].spec).classes())
            for s in self.solves)
        out["assembly.nonzero_class_ratio"] = (
            c["assembly.nonzero_classes"] / c["assembly.pair_matrix_calls"])
        for key in ("assembly.pair_matrix_calls", "assembly.global_nnz",
                    "subdivision.subdomains", "subdivision.floating",
                    "feti.multipliers", "feti.coarse_dim",
                    "sparse_linalg.factorizations", "sparse_linalg.factor_nnz",
                    "sparse_linalg.pcg_iterations", "feti.apply_F_calls"):
            out[key] = c[key]
        out["trace.spans"] = len(self.tracer.spans)
        return out


def _solve_summary(out) -> dict:
    """References to what the check needs from one solve, taken inside
    the timed region without copying; the rest of the output (FETI
    system, factorizations) is released as it would be without the
    benchmark."""
    rec = next(r for r in out.records if r.solver == "feti")
    return dict(K=rec.K, l2_error=rec.l2_error, iterations=rec.iterations,
                assembled=out.assembled, solution=out.solution)


def check(workload: Workload, solves: list[dict]) -> list[dict]:
    """Compare each solve with a sparse direct solve of the same reduced
    system and with the recorded L2 error.  A grid with no solve (it
    raised) is reported as failed."""
    import numpy as np
    import scipy.sparse.linalg as spla

    results = []
    by_grid = {s["K"]: s for s in solves}
    for grid, ref in workload.l2_error.items():
        s = by_grid.get(grid)
        if s is None:
            results.append(dict(K=grid, ok=False, error="no solution"))
            continue
        a = s["assembled"]
        A = a.A
        direct = spla.spsolve(A.tocsc(), a.rhs)
        diff = s["solution"][a.interior_dofs] - direct
        energy = float(np.sqrt(diff @ (A @ diff) / (direct @ (A @ direct))))
        l2_dev = abs(s["l2_error"] - ref) / ref
        results.append(dict(
            K=grid, ok=bool(energy <= ENERGY_TOL and l2_dev <= L2_RTOL),
            energy_error=energy, l2_error=s["l2_error"], l2_reference=ref,
            iterations=s["iterations"]))
    return results


def blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded in this process."""
    paths = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split()[-1]
            if "openblas" in path and ".so" in path:
                paths.add(path)
    out = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                out[Path(path).name] = int(getattr(lib, sym)())
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    with open("/proc/self/status") as status:
        threads = next(int(line.split()[1]) for line in status
                       if line.startswith("Threads:"))
    with open("/proc/self/personality") as personality:
        flags = personality.read().strip()
    return dict(nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
                threads=threads, personality=flags,
                hash_seed=os.environ.get("PYTHONHASHSEED"),
                python=platform.python_version(),
                numpy=numpy.__version__, scipy=scipy.__version__,
                blas_threads=blas_threads())


def peak_rss_mb() -> float:
    """Peak resident set of this process and of children it waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def run(name: str, traced: bool) -> dict:
    from nlfeti import harness

    workload = WORKLOADS[name]
    config = harness.ExperimentConfig(**workload.config)
    probe = Probe(traced)
    error = None
    t0 = time.perf_counter()
    try:
        getattr(harness, workload.entry)(config)
    except Exception as exc:  # noqa: BLE001 - a failed solve is counted
        error = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    peak = peak_rss_mb()
    probe.tracer.restore()

    checks = check(workload, probe.solves)
    result = dict(
        workload=name, traced=traced, error=error,
        attempted=len(checks), failed=sum(not c["ok"] for c in checks),
        checks=checks, time_to_solution_s=t1 - t0,
        setup_s=probe.setup_seconds(), peak_rss_mb=peak, env=environment())
    if traced:
        result["layers"] = probe.layer_metrics()
        result["spans"] = probe.tracer.spans
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True, type=Path)
    args = p.parse_args(argv)
    result = run(args.workload, bool(args.trace))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
