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


# Growth |x|_inf max|a_ij| / |b|_inf of the check solve beyond which a
# factorization is taken as singular.  The growth bounds the condition
# number from below: the subdomain factorizations of the desk fixed-ratio
# ladders reach 3.1e5, the unpinned matrices of floating subdomains 1e14.
GROWTH_BOUND = 1e10


def solve_growth(lu: spla.SuperLU, A: sp.csc_matrix) -> float:
    """|x|_inf max|a_ij| / |b|_inf for x = A^-1 b, b standard normal from
    a fixed seed; inf when x is not finite.  Reads no factor: max|a_ij|
    comes from ``A.data`` with no copy of it."""
    if not A.nnz:
        return 0.0
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    x = lu.solve(b)
    if not np.isfinite(x).all():
        return np.inf
    scale = max(A.data.max(), -A.data.min())
    return float(np.abs(x).max() * scale / np.abs(b).max())


def factorize(A: sp.spmatrix) -> Factorization:
    """Factorize a sparse matrix with a minimum-degree column ordering.

    Singularity is decided by one solve (``solve_growth``), so a healthy
    factorization never reads ``lu.L`` or ``lu.U``: SuperLU builds CSC
    copies of both factors on that read.  Raises SingularMatrixError
    when the growth exceeds ``GROWTH_BOUND``, naming the smallest pivot
    of U.
    """
    A = sp.csc_matrix(A)
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A",
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        # SuperLU reports "Factor is exactly singular" with no index
        raise SingularMatrixError(f"sparse factorization failed: {exc}") from exc
    if solve_growth(lu, A) > GROWTH_BOUND:
        du = np.abs(lu.U.diagonal())
        raise SingularMatrixError(
            f"zero pivot at elimination index {int(np.argmin(du))}"
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
