"""Direct factorizations, CG variants, and matrix exchange formats."""

import tracemalloc

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from nlfeti.assembly import assemble_global
from nlfeti.feti import assemble_subdomain
from nlfeti.kernels import KernelSpec
from nlfeti.mesh import build_structured_mesh
from nlfeti.problems import manufactured_problem
from nlfeti.sparse_linalg import (
    ConvergenceFailure,
    SingularMatrixError,
    factorize,
    projected_pcg,
    write_matrix_market,
)
from nlfeti.subdivision import build_subdivision


def test_solves_two_by_two_by_hand():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    fact = factorize(A)
    x = fact.solve(np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_healthy_factorization_copies_no_factor():
    """Factoring the K=1 Neumann matrix of fractional n=64, delta=2h
    (162 201 nonzeros, 1 035 124 factor entries) traces below 1 MB: the
    singularity check reads neither factor, whose CSC copies would take
    12 MB, nor a copy of the matrix."""
    n, delta = 64, 2 / 64
    mesh = build_structured_mesh(n, delta)
    spec = KernelSpec("fractional", delta, 0.4)
    prob = manufactured_problem("fractional")
    system = assemble_global(mesh, spec, prob.forcing, prob.exact)
    sub = build_subdivision(mesh, 1, 1, ball_norm=spec.ball_norm)
    A = assemble_subdomain(system, sub, 0)._neumann_matrix()
    assert A.nnz == 162_201
    tracemalloc.start()
    try:
        fact = factorize(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fact.lu.nnz == 1_035_124
    assert peak < 1e6, peak


def test_factorization_residual_random_spd():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(2, 200))
        R = rng.standard_normal((n, n))
        A = R @ R.T + n * np.eye(n)
        b = rng.standard_normal(n)
        x = factorize(sp.csr_matrix(A)).solve(b)
        assert np.linalg.norm(A @ x - b) <= 1e-9 * np.linalg.norm(b)


def test_singular_matrix_raises():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrixError):
        factorize(A)
    # a pivot that is tiny but not exactly zero
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0 + 4e-15]]))
    with pytest.raises(SingularMatrixError, match="zero pivot"):
        factorize(A)


def cg(apply_A, b, apply_Minv=lambda r: r, **kwargs):
    """Plain CG as the global baseline runs it: projected CG with the
    identity projection from a zero start, unpreconditioned by
    default."""
    return projected_pcg(apply_A, lambda v: v, b, np.zeros_like(b),
                         apply_Minv=apply_Minv, trace=[], **kwargs)


def test_cg_matches_direct_and_decreases_energy_error():
    rng = np.random.default_rng(3)
    n = 60
    R = rng.standard_normal((n, n))
    A = R @ R.T + n * np.eye(n)
    b = rng.standard_normal(n)
    x_star = np.linalg.solve(A, b)

    errs = []

    def apply_A(v):
        return A @ v

    # run to increasing iteration caps and record the A-norm error
    for cap in (1, 3, 10, 30):
        try:
            x, _ = cg(apply_A, b, tol=1e-30, maxit=cap)
        except ConvergenceFailure as fail:
            x = fail.x
        e = x - x_star
        errs.append(float(e @ (A @ e)))
    # CG minimizes the A-norm error over growing Krylov spaces
    assert all(b <= a * (1 + 1e-12) for a, b in zip(errs, errs[1:]))

    x, it = cg(apply_A, b, tol=1e-12, maxit=20_000)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert 0 < it <= n + 2


def test_cg_jacobi_preconditioning_reduces_iterations():
    n = 200
    # ill-scaled diagonal-dominant matrix
    d = np.geomspace(3.0, 1e4, n)
    A = sp.diags(d) + sp.diags([np.ones(n - 1), np.ones(n - 1)], [-1, 1])
    A = sp.csr_matrix(A)
    b = np.ones(n)
    dinv = 1.0 / A.diagonal()
    x_pl, it_plain = cg(lambda v: A @ v, b, tol=1e-10, maxit=5000)
    x_pc, it_prec = cg(lambda v: A @ v, b, apply_Minv=lambda r: dinv * r,
                       tol=1e-10, maxit=5000)
    assert it_prec < it_plain
    assert np.allclose(x_pl, x_pc, rtol=1e-6)


def test_cg_zero_rhs_terminates_immediately():
    x, it = cg(lambda v: 2.0 * v, np.zeros(5), tol=1e-10, maxit=20_000)
    assert it == 0 and np.all(x == 0)


def test_cg_convergence_failure_carries_iterate():
    rng = np.random.default_rng(5)
    n = 80
    R = rng.standard_normal((n, n))
    A = R @ R.T + 0.1 * np.eye(n)
    b = rng.standard_normal(n)
    with pytest.raises(ConvergenceFailure) as info:
        cg(lambda v: A @ v, b, tol=1e-14, maxit=3)
    assert info.value.iterations == 3
    assert info.value.x.shape == (n,)
    assert len(info.value.residuals) >= 1


def _toy_constrained_problem(seed=11):
    """Small dense dual problem F lam = d subject to G^T lam = e, with F
    SPD on the nullspace of G^T.  Returns everything plus the KKT
    solution computed directly."""
    rng = np.random.default_rng(seed)
    n, m = 30, 4
    R = rng.standard_normal((n, n))
    F = R @ R.T + n * np.eye(n)
    G = rng.standard_normal((n, m))
    d = rng.standard_normal(n)
    e = rng.standard_normal(m)
    # KKT oracle: [[F, G], [G^T, 0]] [lam; mu] = [d; e]
    KKT = np.block([[F, G], [G.T, np.zeros((m, m))]])
    sol = np.linalg.solve(KKT, np.concatenate([d, e]))
    lam_star = sol[:n]
    GtG = G.T @ G
    P = np.eye(n) - G @ np.linalg.solve(GtG, G.T)
    lam0 = G @ np.linalg.solve(GtG, e)
    return F, G, d, e, P, lam0, lam_star


def test_projected_pcg_solves_kkt_system():
    F, G, d, e, P, lam0, lam_star = _toy_constrained_problem()
    trace = []
    lam, it = projected_pcg(
        lambda v: F @ v, lambda v: P @ v, d, lam0, apply_Minv=lambda r: r,
        trace=trace, tol=1e-12, maxit=20_000,
    )
    assert np.linalg.norm(lam - lam_star) <= 1e-8 * np.linalg.norm(lam_star)
    assert np.linalg.norm(G.T @ lam - e) <= 1e-9 * (1 + np.linalg.norm(e))
    assert len(trace) == it
    assert trace[-1] <= 1e-12


def test_projected_pcg_keeps_iterates_on_constraint():
    F, G, d, e, P, lam0, lam_star = _toy_constrained_problem(seed=12)
    seen = []

    def checking_F(v):
        return F @ v

    # spy on the constraint through the preconditioner hook
    def spy_Minv(r):
        seen.append(r.copy())
        return r

    lam, _ = projected_pcg(lambda v: F @ v, lambda v: P @ v, d, lam0,
                           apply_Minv=spy_Minv, trace=[], tol=1e-10,
                           maxit=20_000)
    assert np.linalg.norm(G.T @ lam - e) <= 1e-9 * (1 + np.linalg.norm(e))


def test_matrix_market_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(9)
    A = sp.random(17, 13, density=0.3, random_state=4, format="csr")
    general = tmp_path / "general.mtx"
    write_matrix_market(general, A)
    B = sp.csr_matrix(scipy.io.mmread(general))
    assert (abs(A - B)).nnz == 0
    with open(general) as fh:
        assert "general" in fh.readline()
    # symmetric matrices are detected and stored once
    S = A[:13, :13]
    S = S + S.T
    sym = tmp_path / "sym.mtx"
    write_matrix_market(sym, S)
    T = sp.csr_matrix(scipy.io.mmread(sym))
    assert (abs(S - T)).nnz == 0
    with open(sym) as fh:
        assert "symmetric" in fh.readline()
