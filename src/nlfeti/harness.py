"""Experiment driver: single solves, convergence and scalability studies.

Configurations come from flat ``key = value`` text files with CLI
overrides; results are emitted as CSV rows with a fixed schema so runs
can be diffed and post-processed without touching the solver code.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .assembly import AssembledSystem, assemble_global
from .feti import (FetiSystem, build_feti_system, feti_solve, gather_solution)
from .kernels import KernelSpec
from .mesh import Mesh, build_structured_mesh, l2_error
from .problems import manufactured_problem
from .sparse_linalg import (ConvergenceFailure, projected_pcg,
                            write_matrix_market)
from .subdivision import build_subdivision, dump_subdivision

CSV_HEADER = "study,kernel,K,h,delta,solver,iterations,residual,l2_error,roc,seconds"


# ---------------------------------------------------------------------------
# Configuration


_CONFIG_KEYS = {
    "kernel.family": ("family", str),
    "kernel.delta": ("delta", float),
    "kernel.s": ("s", float),
    "mesh.n": ("n", int),
    "partition.k1": ("k1", int),
    "partition.k2": ("k2", int),
    "solver": ("solver", str),
    "study": ("study", str),
    "feti.tol": ("tol", float),
    "feti.maxit": ("maxit", int),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully-specified run (kernel, mesh, partition, solver)."""

    family: str = "constant"
    delta: float = 0.0625
    s: float = 0.4
    n: int = 32
    k1: int = 2
    k2: int = 2
    solver: str = "feti"
    study: str = "single"
    tol: float = 1e-10
    maxit: int = 20_000

    def __post_init__(self):
        if self.solver not in ("feti", "cg", "both"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.study not in ("single", "fixed_horizon", "fixed_ratio",
                              "strong_scaling"):
            raise ValueError(f"unknown study {self.study!r}")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError("feti.tol must be finite and positive, "
                             f"got {self.tol}")
        if self.maxit < 1:
            raise ValueError("feti.maxit must be at least 1, "
                             f"got {self.maxit}")
        self.kernel_spec()  # validates family, delta and s

    def kernel_spec(self) -> KernelSpec:
        s = self.s if self.family == "fractional" else None
        return KernelSpec(self.family, self.delta, s)


def parse_config(text: str) -> dict:
    """Parse flat ``key = value`` lines ('#' starts a comment)."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {ln}: unknown config key {key!r}")
        name, cast = _CONFIG_KEYS[key]
        out[name] = cast(val)
    return out


def load_config(path, overrides: list[str] = ()) -> ExperimentConfig:
    """Read a config file and apply ``key=value`` overrides (flags win)."""
    fields = parse_config(Path(path).read_text()) if path else {}
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not key=value")
        key, val = (part.strip() for part in item.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        name, cast = _CONFIG_KEYS[key]
        fields[name] = cast(val)
    return ExperimentConfig(**fields)


# ---------------------------------------------------------------------------
# Records


@dataclass
class RunRecord:
    """One CSV row of a study."""

    study: str
    kernel: str
    K: str
    h: float
    delta: float
    solver: str
    iterations: int
    residual: float
    l2_error: float
    roc: float | None = None
    seconds: float = 0.0

    def csv_row(self) -> str:
        roc = "" if self.roc is None else f"{self.roc:.4f}"
        return (
            f"{self.study},{self.kernel},{self.K},{self.h:.10g},"
            f"{self.delta:.10g},{self.solver},{self.iterations},"
            f"{self.residual:.6e},{self.l2_error:.12e},{roc},"
            f"{self.seconds:.3f}"
        )


def write_csv(path, records: list[RunRecord]) -> None:
    lines = [CSV_HEADER] + [r.csv_row() for r in records]
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Single solves


@dataclass
class SolveOutput:
    """Everything a single run produces."""

    records: list[RunRecord]
    solution: np.ndarray            # full nodal coefficient vector
    assembled: AssembledSystem
    feti_system: FetiSystem | None = None


def baseline_cg_solve(assembled: AssembledSystem, tol: float,
                      maxit: int) -> tuple[np.ndarray, int, float]:
    """Jacobi-preconditioned CG on the reduced global system; returns
    the solution, the iteration count and the relative residual reached."""
    A = assembled.A
    rhs = assembled.rhs
    dinv = 1.0 / A.diagonal()
    trace: list[float] = []
    try:
        u, iters = projected_pcg(lambda v: A @ v, lambda v: v, rhs,
                                 np.zeros_like(rhs),
                                 apply_Minv=lambda r: dinv * r,
                                 tol=tol, maxit=maxit, trace=trace)
        res = trace[-1] if trace else 0.0
    except ConvergenceFailure as fail:
        u, iters, res = fail.x, fail.iterations, fail.residuals[-1]
    return u, iters, res


def _full_vector(assembled: AssembledSystem, u: np.ndarray) -> np.ndarray:
    out = np.zeros(assembled.mesh.n_vertices * assembled.spec.components)
    out[assembled.interior_dofs] = u
    out[assembled.collar_dofs] = assembled.g
    return out


def _record_error(mesh: Mesh, spec: KernelSpec, full: np.ndarray,
                  exact) -> float:
    c = spec.components
    nodal = full.reshape(-1, c) if c == 2 else full
    return l2_error(mesh, nodal, exact)


def run_single(config: ExperimentConfig, study: str | None = None) -> SolveOutput:
    """Assemble and solve one configuration with the requested solver(s)."""
    spec = config.kernel_spec()
    prob = manufactured_problem(config.family)
    mesh = build_structured_mesh(config.n, config.delta)
    assembled = assemble_global(mesh, spec, prob.forcing, prob.exact)
    study = study or config.study
    label = f"{config.k1}x{config.k2}"
    records: list[RunRecord] = []
    solution = None
    feti_system = None
    solutions = []

    if config.solver in ("cg", "both"):
        assembled.rhs  # assembles the global system, which is not timed
        t0 = time.perf_counter()
        u, iters, res = baseline_cg_solve(assembled, config.tol, config.maxit)
        seconds = time.perf_counter() - t0
        full = _full_vector(assembled, u)
        err = _record_error(mesh, spec, full, prob.exact)
        records.append(RunRecord(
            study=study, kernel=config.family, K="1x1", h=mesh.spacing,
            delta=config.delta, solver="cg", iterations=iters, residual=res,
            l2_error=err, seconds=seconds))
        solution = full
        solutions.append(u)

    if config.solver in ("feti", "both"):
        t0 = time.perf_counter()
        sub = build_subdivision(mesh, config.k1, config.k2,
                                ball_norm=spec.ball_norm)
        feti_system = build_feti_system(assembled, sub)
        result = feti_solve(feti_system, config.tol, config.maxit)
        full = gather_solution(feti_system, result)
        seconds = time.perf_counter() - t0
        err = _record_error(mesh, spec, full, prob.exact)
        res = result.trace[-1] if result.trace else 0.0
        records.append(RunRecord(
            study=study, kernel=config.family, K=label, h=mesh.spacing,
            delta=config.delta, solver="feti", iterations=result.iterations,
            residual=res, l2_error=err, seconds=seconds))
        solution = full
        solutions.append(full[assembled.interior_dofs])

    if len(solutions) == 2:
        # both solvers stop near the tolerance, so their solutions agree
        # to about it in energy, whatever the discretization error is
        A = assembled.A
        u, e = solutions[0], solutions[0] - solutions[1]
        diff = np.sqrt(e @ (A @ e) / (u @ (A @ u)))
        if not diff <= 1e3 * config.tol:
            raise RuntimeError(
                f"CG and FETI solutions differ by {diff:.3e} in relative "
                f"energy norm, above {1e3 * config.tol:.1e}")

    return SolveOutput(records=records, solution=solution,
                       assembled=assembled, feti_system=feti_system)


# ---------------------------------------------------------------------------
# Studies


def _with_rates(records: list[RunRecord]) -> list[RunRecord]:
    """Fill the rate-of-convergence column per solver on h-halving."""
    last: dict[str, RunRecord] = {}
    for r in records:
        prev = last.get(r.solver)
        if prev is not None and abs(prev.h / r.h - 2.0) < 1e-9 \
                and r.l2_error > 0:
            r.roc = float(np.log2(prev.l2_error / r.l2_error))
        last[r.solver] = r
    return records


def study_rungs(config: ExperimentConfig,
                paper_scale: bool = False) -> list[ExperimentConfig]:
    """Derive the ladder of configurations for the requested study."""
    if config.study == "single":
        return [config]
    if config.study == "fixed_horizon":
        delta = 0.008 if paper_scale else config.delta
        ratios = (2,) if paper_scale else (2, 4, 8)
        return [replace(config, delta=delta, n=int(round(r / delta)))
                for r in ratios]
    if config.study == "fixed_ratio":
        rungs = [(32, 2), (64, 4), (128, 8)]
        if paper_scale:
            rungs.append((256, 16))
        return [replace(config, n=n, delta=4.0 / n, k1=k, k2=k)
                for n, k in rungs]
    if config.study == "strong_scaling":
        return [replace(config, k1=k, k2=k) for k in (1, 2, 4)]
    raise ValueError(f"unknown study {config.study!r}")


def run_study(config: ExperimentConfig, out_csv=None,
              paper_scale: bool = False) -> list[RunRecord]:
    """Execute every rung of the study and emit the CSV report.

    A failing rung is recorded as one row per solver (iterations -1,
    error NaN), labelled as a successful rung's rows would be, and the
    remaining rungs are still attempted.  Only the rows of a rung are
    kept, so its FETI system, blocks and factors are freed before the
    next rung assembles.
    """
    records: list[RunRecord] = []
    for rung in study_rungs(config, paper_scale):
        try:
            records.extend(run_single(rung, study=config.study).records)
        except Exception as exc:  # noqa: BLE001 - recorded, not fatal
            grids = {"cg": "1x1", "feti": f"{rung.k1}x{rung.k2}"}
            records.extend(RunRecord(
                study=config.study, kernel=rung.family, K=grids[solver],
                h=1.0 / rung.n, delta=rung.delta, solver=solver,
                iterations=-1, residual=float("nan"), l2_error=float("nan"),
                seconds=0.0)
                for solver in grids if rung.solver in (solver, "both"))
            print(f"rung n={rung.n} K={rung.k1}x{rung.k2} failed: {exc}",
                  file=sys.stderr)
    _with_rates(records)
    if out_csv:
        write_csv(out_csv, records)
    return records


# ---------------------------------------------------------------------------
# Artifacts


def solution_csv(mesh: Mesh, components: int, solution: np.ndarray) -> str:
    """Nodal solution as CSV (node, x, y, value components)."""
    vals = solution.reshape(-1, components)
    header = "node,x,y," + ",".join(f"u{i+1}" for i in range(components))
    lines = [header]
    for i, (xy, v) in enumerate(zip(mesh.vertices, vals)):
        lines.append(
            f"{i},{xy[0]:.17g},{xy[1]:.17g},"
            + ",".join(f"{c:.17g}" for c in v)
        )
    return "\n".join(lines) + "\n"


def export_artifacts(out: SolveOutput, directory) -> list[Path]:
    """Write the assembled matrices and vectors of a run.

    Files: ``A.mtx`` (reduced stiffness), ``B.mtx`` (constraint
    coupling), ``rhs.csv``, ``solution.csv``, and ``subdivision.csv``
    when a FETI system is present.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        write_matrix_market(directory / "A.mtx", out.assembled.A)
        written.append(directory / "A.mtx")
        write_matrix_market(directory / "B.mtx", out.assembled.B_coupling)
        written.append(directory / "B.mtx")
        rhs = out.assembled.rhs
        (directory / "rhs.csv").write_text(
            "\n".join(f"{v:.17g}" for v in rhs) + "\n")
        written.append(directory / "rhs.csv")
        if out.solution is not None:
            (directory / "solution.csv").write_text(
                solution_csv(out.assembled.mesh,
                             out.assembled.spec.components, out.solution))
            written.append(directory / "solution.csv")
        if out.feti_system is not None:
            (directory / "subdivision.csv").write_text(
                dump_subdivision(out.feti_system.sub))
            written.append(directory / "subdivision.csv")
    except OSError as exc:
        raise OSError(f"failed writing artifacts under {directory}: {exc}"
                      ) from exc
    return written
