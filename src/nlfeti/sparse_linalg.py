"""Sparse factorizations, Krylov solvers, and matrix exchange formats.

Everything here is deterministic: factorizations use a fixed
fill-reducing ordering and the iterative solvers use plain sequential
reductions, so repeated runs on the same inputs are bitwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SingularMatrixError(RuntimeError):
    """A factorization hit a (numerically) zero pivot."""


class ConvergenceFailure(RuntimeError):
    """An iterative solver exhausted its iteration budget."""

    def __init__(self, message: str, x: np.ndarray, iterations: int,
                 residuals: list[float]):
        super().__init__(message)
        self.x = x
        self.iterations = iterations
        self.residuals = residuals


@dataclass
class Factorization:
    """LU factorization handle for a sparse symmetric positive matrix."""

    lu: spla.SuperLU

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.lu.solve(b)


def factorize(A: sp.spmatrix) -> Factorization:
    """Factorize a sparse matrix with a minimum-degree column ordering.

    Raises SingularMatrixError (with the offending pivot index) when a
    diagonal pivot of U vanishes.
    """
    A = sp.csc_matrix(A)
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A",
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        # SuperLU reports "Factor is exactly singular" with no index;
        # recover one from the diagonal structure.
        raise SingularMatrixError(f"sparse factorization failed: {exc}") from exc
    du = np.abs(lu.U.diagonal())
    # reading U builds CSC copies of both factors, which the SuperLU
    # object keeps beside its own storage for its lifetime (64 MB at the
    # peak of a constant n=64, delta=8h, 4x4 FETI build); solves never
    # read them, so they are emptied
    for M in (lu.L, lu.U):
        M.data, M.indices = np.empty(0), np.empty(0, M.indices.dtype)
        M.indptr = np.zeros(M.shape[1] + 1, M.indptr.dtype)
    scale = du.max() if du.size else 1.0
    bad = np.flatnonzero(du <= 1e-14 * max(scale, 1.0))
    if bad.size:
        raise SingularMatrixError(
            f"zero pivot at elimination index {int(bad[0])}"
        )
    return Factorization(lu=lu)


def projected_pcg(apply_F, apply_P, d: np.ndarray, lambda0: np.ndarray,
                  apply_Minv, trace: list[float], tol: float = 1e-10,
                  maxit: int = 10_000,
                  constraint_check=None) -> tuple[np.ndarray, int]:
    """Projected preconditioned CG for constrained dual problems.

    Solves ``P F lambda = P d`` starting from ``lambda0`` (which must
    already satisfy the affine constraint; ``constraint_check(lambda0)``
    is invoked when given and must raise on violation).  Search
    directions are projected before and after preconditioning, so all
    iterates stay on the constraint manifold.  The relative residual of
    every iteration is appended to ``trace``.
    """
    lam = np.asarray(lambda0, dtype=float).copy()
    if constraint_check is not None:
        constraint_check(lam)
    r = apply_P(d - apply_F(lam))
    z = apply_P(apply_Minv(r))
    p = z.copy()
    rz = float(r @ z)
    norm0 = max(np.sqrt(abs(rz)), 1e-50)
    if norm0 <= 1e-50:
        return lam, 0
    for it in range(1, maxit + 1):
        Fp = apply_F(p)
        pFp = float(p @ Fp)
        if pFp <= 0.0:
            raise ConvergenceFailure(
                f"projected operator indefinite at iteration {it}"
                f" (p^T F p = {pFp:.3e})", lam, it, [1.0] + trace)
        alpha = rz / pFp
        lam = lam + alpha * p
        r = r - alpha * apply_P(Fp)
        z = apply_P(apply_Minv(r))
        rz_new = float(r @ z)
        res = np.sqrt(abs(rz_new)) / norm0
        trace.append(res)
        if res < tol:
            return lam, it
        p = z + (rz_new / rz) * p
        rz = rz_new
    residuals = [1.0] + trace
    raise ConvergenceFailure(
        f"projected CG did not reach tol={tol:g} in {maxit} iterations "
        f"(last residual {residuals[-1]:.3e})", lam, maxit, residuals)


# ---------------------------------------------------------------------------
# Matrix Market exchange


def write_matrix_market(path, A: sp.spmatrix) -> None:
    """Write a sparse matrix in coordinate format, symmetric when it is."""
    import scipy.io  # only here: a solve never pays for its import

    A = sp.coo_matrix(A)
    sym = "general"
    if A.shape[0] == A.shape[1]:
        diff = abs(A - A.T)
        if diff.nnz == 0 or abs(diff).max() <= 1e-14 * max(abs(A).max(), 1.0):
            sym = "symmetric"
    scipy.io.mmwrite(str(path), A, symmetry=sym)
