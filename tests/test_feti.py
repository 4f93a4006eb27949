"""Domain-decomposition solver: Schur operators, projections, and
equivalence with the direct global solve."""

import inspect
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

from nlfeti import feti, sparse_linalg
from nlfeti.assembly import _node_dofs, assemble_global
from nlfeti.feti import (
    CoarseConstraintError,
    ConsistencyError,
    FetiResult,
    FetiSystem,
    SubdomainSystem,
    assemble_subdomain,
    build_feti_system,
    feti_solve,
    gather_solution,
)
from nlfeti.harness import ExperimentConfig, baseline_cg_solve
from nlfeti.mesh import build_structured_mesh
from nlfeti.problems import manufactured_problem
from nlfeti.sparse_linalg import (SingularMatrixError, factorize,
                                  projected_pcg)
from nlfeti.subdivision import (SubdivisionError, build_subdivision,
                                rigid_modes, verify_coverage)

from conftest import (assert_csr_bitwise, full_mesh_load, make_spec, n_G,
                      pair_weights, strip_to_owned)

TOL, MAXIT = 1e-10, 20_000  # the ExperimentConfig defaults


def _build(family, n, delta, k1, k2, cache):
    sub = build_subdivision(cache.mesh(n, delta), k1, k2,
                            ball_norm=make_spec(family, delta).ball_norm)
    return build_feti_system(cache.system(family, n, delta), sub)


def _global_dof_map(mesh, c):
    """Position of each interior node's dofs in the global system."""
    ids = mesh.interior_nodes
    lut = {int(node): i for i, node in enumerate(ids)}
    return lut


def _local_to_global(system, k):
    """Global unknown-dof indices for subdomain k's [inner|interface]."""
    mesh, c = system.assembled.mesh, system.assembled.spec.components
    lut = _global_dof_map(mesh, c)
    sub = system.sub
    nodes = np.concatenate([sub.inner_nodes[k], sub.interface_nodes[k]])
    pos = np.array([lut[int(nd)] for nd in nodes])
    return (c * pos[:, None] + np.arange(c)[None, :]).ravel()


def test_schur_apply_matches_dense_oracle(cache):
    system = _build("constant", 16, 0.125, 2, 2, cache)
    rng = np.random.default_rng(0)
    for s in system.subsystems:
        S = s.A_GG.toarray()
        if s.n_O:
            S = S - s.A_OG.T.toarray() @ np.linalg.solve(
                s.A_OO.toarray(), s.A_OG.toarray())
        v = rng.standard_normal(s.n_O + n_G(s))
        want = np.concatenate([np.zeros(s.n_O), S @ v[s.n_O:]])
        assert np.allclose(s.schur_apply(v), want,
                           atol=1e-10 * abs(S).max())


def test_floating_schur_pseudoinverse(cache):
    # 3x3 on n=16, delta/h=2: the center subdomain floats.
    system = _build("constant", 16, 0.125, 3, 3, cache)
    s = system.subsystems[4]
    assert s.floating
    # The full matrix annihilates the rigid modes.
    A = s.full_matrix()
    assert np.abs(A @ s.modes).max() <= 1e-10 * abs(A).max()
    # S S^+ S = S column by column, with S^+ v = pinv_apply([0 | v])_G;
    # schur_apply returns [0 | S v_G].
    n_O = s.n_O
    unit = np.eye(n_O + n_G(s))[n_O:]  # the unit vectors of the G dofs
    S = np.column_stack([s.schur_apply(e)[n_O:] for e in unit])
    SpS = np.column_stack([s.pinv_apply(s.schur_apply(e))[n_O:]
                           for e in unit])
    assert np.allclose(S @ SpS, S, atol=1e-8 * abs(S).max())


def test_projection_and_coarse_space(cache):
    system = _build("constant", 16, 0.125, 3, 3, cache)
    assert system.G.shape[1] == 1  # one floating scalar subdomain
    rng = np.random.default_rng(1)
    lam = rng.standard_normal(system.constraints.B.shape[0])
    p1 = system.apply_P(lam)
    p2 = system.apply_P(p1)
    assert np.allclose(p1, p2, atol=1e-12 * max(1.0, np.abs(p1).max()))
    assert np.abs(system.G.T @ p1).max() <= 1e-10 * np.abs(lam).max()


def test_preconditioner_symmetric_positive(cache):
    system = _build("constant", 16, 0.125, 2, 2, cache)
    rng = np.random.default_rng(2)
    M_C = system.constraints.B.shape[0]
    for _ in range(5):
        r = rng.standard_normal(M_C)
        q = rng.standard_normal(M_C)
        a = r @ system.apply_Minv(q)
        b = q @ system.apply_Minv(r)
        assert np.isclose(a, b, rtol=1e-9)
        assert r @ system.apply_Minv(r) > 0.0


def test_scaled_jump_operator_identity(cache):
    # B_D B^T = I makes the preconditioned operator well scaled.
    system = _build("peridynamic", 16, 0.125, 2, 2, cache)
    cs = system.constraints
    M = (cs.B_D @ cs.B.T).toarray()
    assert np.max(np.abs(M - np.eye(M.shape[0]))) < 1e-12


@pytest.mark.parametrize("family,n,delta,k1,k2", [
    ("constant", 16, 0.125, 2, 2),
    ("constant", 16, 0.125, 3, 3),
    ("fractional", 16, 0.125, 2, 2),
    ("peridynamic", 16, 0.125, 3, 3),
])
def test_feti_matches_direct_solve(family, n, delta, k1, k2, cache):
    system = _build(family, n, delta, k1, k2, cache)
    result = feti_solve(system, TOL, MAXIT)
    u = gather_solution(system, result)
    direct = cache.direct_solution(family, n, delta)
    dofs = system.assembled.interior_dofs
    diff = np.abs(u[dofs] - direct).max()
    assert diff <= 1e-7 * max(1.0, np.abs(direct).max())


def _interior_solve(s, rhs):
    return s.fact_OO().solve(rhs) if s.n_O else np.zeros(0)


def _condensed_load(s):
    """f_G - A_GO A_OO^-1 f_O, with f = [f_O | f_G]."""
    f_O, f_G = s.f[:s.n_O], s.f[s.n_O:]
    return f_G - s.A_OG.T @ _interior_solve(s, f_O)


def _condensed_solve(system):
    """The condensed dual solve that the whole-vector one replaced, kept
    as an oracle: Schur-condensed loads, multipliers on the concatenated
    interface dofs only (the interface columns of B), rigid modes
    orthonormal over each floating subdomain's interface dofs only (Z),
    S_s^+ v = (K_s^+ [0 | v])_G, and interior unknowns by
    back-substitution."""
    cs, subs, sub = system.constraints, system.subsystems, system.sub
    mesh, c = system.assembled.mesh, system.assembled.spec.components
    B = cs.B[:, np.concatenate([np.arange(cs.offsets[k] + s.n_O,
                                          cs.offsets[k + 1])
                                for k, s in enumerate(subs)])]
    ends = np.cumsum([n_G(s) for s in subs])[:-1]

    def schur_pinv(v):
        return np.concatenate([
            s.pinv_apply(np.concatenate([np.zeros(s.n_O), w]))[s.n_O:]
            for s, w in zip(subs, np.split(v, ends))])

    f_schur = np.concatenate([_condensed_load(s) for s in subs])
    Z = sp.block_diag(
        [rigid_modes(mesh.vertices[sub.interface_nodes[k]], c)
         if s.floating else np.zeros((n_G(s), 0))
         for k, s in enumerate(subs)],
        format="csr")
    G = (B @ Z).toarray()
    GtG = G.T @ G
    e = Z.T @ f_schur
    d = B @ schur_pinv(f_schur)

    def apply_F(lam):
        return B @ schur_pinv(B.T @ lam)

    lam, iters = projected_pcg(
        apply_F, lambda v: v - G @ np.linalg.solve(GtG, G.T @ v), d,
        G @ np.linalg.solve(GtG, e), apply_Minv=system.apply_Minv,
        trace=[], tol=TOL, maxit=MAXIT)
    alpha = np.linalg.solve(GtG, G.T @ (d - apply_F(lam)))
    u_G = np.split(schur_pinv(f_schur - B.T @ lam) - Z @ alpha, ends)
    u = [np.concatenate([_interior_solve(s, s.f[:s.n_O] - s.A_OG @ u_s), u_s])
         for s, u_s in zip(subs, u_G)]
    return FetiResult(lam=lam, alpha=alpha, u=u, iterations=iters, trace=[])


@pytest.mark.parametrize("family", ["constant", "peridynamic"])
@pytest.mark.parametrize("n", [16, 32])
def test_whole_vector_dual_matches_condensed_oracle(family, n, cache):
    """The coarse load e = R^T f of the floating subdomain equals the
    condensed one, R_G^T (f_G - A_GO A_OO^-1 f_O), because K R = 0; and
    the whole-vector solve gathers the condensed solve's solution.  At
    n=16 the floating subdomain holds no inner node, at n=32 nine."""
    system = _build(family, n, 2 / n, 3, 3, cache)
    floating = [s for s in system.subsystems if s.floating]
    assert len(floating) == 1
    s = floating[0]
    assert (s.n_O > 0) == (n == 32)
    condensed = s.modes[s.n_O:].T @ _condensed_load(s)
    assert np.abs(system.e - condensed).max() <= 1e-12 * np.abs(system.e).max()
    u = gather_solution(system, feti_solve(system, TOL, MAXIT))
    oracle = gather_solution(system, _condensed_solve(system))
    assert np.abs(u - oracle).max() <= 1e-10 * np.abs(oracle).max()


def test_single_subdomain_degenerates_to_direct(cache):
    system = _build("constant", 8, 0.25, 1, 1, cache)
    assert system.constraints.B.shape[0] == 0
    result = feti_solve(system, TOL, MAXIT)
    assert result.iterations == 0
    u = gather_solution(system, result)
    direct = cache.direct_solution("constant", 8, 0.25)
    assert np.abs(u[system.assembled.interior_dofs] - direct).max() <= 1e-9


def test_single_subdomain_factors_once_and_sweeps_nothing(cache,
                                                         monkeypatch):
    """A 1 x 1 solve has no multiplier: it makes the Neumann factor only,
    never the A_OO one, and apply_F and apply_Minv return the empty
    vector without a subdomain sweep."""
    calls, real = [], feti.factorize

    def counted(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(feti, "factorize", counted)
    system = _build("constant", 8, 0.25, 1, 1, cache)
    feti_solve(system, TOL, MAXIT)
    [s] = system.subsystems
    assert s.n_O > 0
    assert len(calls) == 1
    assert s._factors.OO is None and s._factors.neumann is not None

    def no_sweep(fn, *seqs):
        raise AssertionError("the subdomains were swept")

    monkeypatch.setattr(feti, "_each_subdomain", no_sweep)
    for apply in (system.apply_F, system.apply_Minv):
        assert apply(np.zeros(0)).shape == (0,)
    assert len(calls) == 1


def test_energy_partition_is_exact(cache):
    """Weighted subdomain stiffness blocks sum to the global energy for
    any global field, which is what makes the splitting consistent."""
    for family in ("constant", "peridynamic"):
        system = _build(family, 16, 0.125, 3, 3, cache)
        A_glob = cache.system(family, 16, 0.125).A
        rng = np.random.default_rng(4)
        v = rng.standard_normal(A_glob.shape[0])
        total = 0.0
        for k, s in enumerate(system.subsystems):
            gdofs = _local_to_global(system, k)
            vloc = v[gdofs]
            total += vloc @ (s.full_matrix() @ vloc)
        ref = v @ (A_glob @ v)
        assert np.isclose(total, ref, rtol=1e-11)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(5, 13), ratio=st.sampled_from([1, 2, 3]),
       k1=st.integers(2, 4), k2=st.integers(2, 4),
       family=st.sampled_from(["constant", "peridynamic"]))
def test_energy_splitting_property(n, ratio, k1, k2, family):
    """sum_k R_k^T A_k R_k = A for subdomain grids that do not divide the
    mesh, so the subdomain windows differ in size."""
    assume(k1 != k2 and n % k1 and n % k2)
    mesh = build_structured_mesh(n, ratio / n)
    spec = make_spec(family, ratio / n)
    prob = manufactured_problem(family)
    system = assemble_global(mesh, spec, prob.forcing, prob.exact)
    A = system.A
    sub = build_subdivision(mesh, k1, k2, ball_norm=spec.ball_norm)
    c = spec.components
    total = sp.csr_matrix(A.shape)
    for k in range(sub.K):
        s = assemble_subdomain(system, sub, k)
        nodes = np.concatenate([sub.inner_nodes[k], sub.interface_nodes[k]])
        pos = np.searchsorted(mesh.interior_nodes, nodes)
        dofs = (c * pos[:, None] + np.arange(c)[None, :]).ravel()
        R = sp.csr_matrix((np.ones(len(dofs)), (np.arange(len(dofs)), dofs)),
                          shape=(len(dofs), A.shape[0]))
        total = total + R.T @ s.full_matrix() @ R
    assert abs(total - A).max() <= 1e-13 * abs(A).max()


def test_gather_rejects_inconsistent_copies(cache):
    """A corrupted interface copy is refused, and the error names its
    dof."""
    system = _build("constant", 16, 0.125, 2, 2, cache)
    result = feti_solve(system, TOL, MAXIT)
    s = system.subsystems[1]
    # corrupt subdomain 1's copy of its first interface dof
    result.u[1] = result.u[1].copy()
    result.u[1][s.n_O] += 1.0
    dof = _node_dofs(system.sub.interface_nodes[1],
                     system.assembled.spec.components)[0]
    with pytest.raises(ConsistencyError, match=rf"at dof {dof} "):
        gather_solution(system, result)


def test_gather_takes_the_lowest_index_copy(cache):
    """A copy within ``GATHER_TOL`` of the copy of the lowest-index
    subdomain holding its node is accepted, and the gathered value is the
    lowest-index copy's."""
    system = _build("constant", 16, 0.125, 2, 2, cache)
    result = feti_solve(system, TOL, MAXIT)
    subs, interface = system.subsystems, system.sub.interface_nodes
    s = subs[-1]
    node = interface[-1][0]
    low = min(k for k, nodes in enumerate(interface) if node in nodes)
    assert low < len(subs) - 1
    at = subs[low].n_O + np.searchsorted(interface[low], node)
    want = result.u[low][at]
    scale = max(np.abs(u).max() for u in result.u)
    result.u[-1] = result.u[-1].copy()
    result.u[-1][s.n_O] += 0.5 * feti.GATHER_TOL * scale
    assert result.u[-1][s.n_O] != want
    assert gather_solution(system, result)[node] == want


def test_empty_interior_schur_is_stiffness_block(cache):
    """A subdomain with no inner nodes condenses to A_GG itself."""
    sub = build_subdivision(cache.mesh(8, 0.25), 2, 2, ball_norm="l2")
    s = assemble_subdomain(cache.system("constant", 8, 0.25), sub, 0)
    assert s.n_O == 0
    v = np.ones(n_G(s))
    assert np.allclose(s.schur_apply(v), s.A_GG @ v)


def test_uncovered_pair_is_rejected_before_assembly(cache):
    """Subdomain forms weight a pair only through the subdomains holding
    both elements, so a pair that no subdomain holds would drop out of
    the split silently; coverage verification rejects such a table."""
    mesh = cache.mesh(8, 0.25)
    sub = build_subdivision(mesh, 2, 2, ball_norm="l2")
    strip_to_owned(sub, 2, 2)
    with pytest.raises(SubdivisionError, match="covered by no subdomain") as err:
        verify_coverage(sub, ball_norm="l2")
    pair = [np.array([int(v)]) for v in
            re.search(r"pair \((\d+), (\d+)\)", str(err.value)).groups()]
    assert sum(pair_weights(sub, k)(*pair)[0] for k in range(sub.K)) == 0.0
    whole = build_subdivision(mesh, 2, 2, ball_norm="l2")
    total = sum(pair_weights(whole, k)(*pair)[0] for k in range(whole.K))
    assert abs(total - 1.0) < 1e-15


def _lil_neumann(s):
    """The Neumann matrix as a LIL edit of the full matrix, as CSC."""
    A = s.full_matrix().tolil()
    if s.floating:
        for dof in s.pinned:
            A[dof, :] = 0.0
            A[:, dof] = 0.0
            A[dof, dof] = 1.0
    return A.tocsc()


def _bmat_neumann(s):
    """The Neumann matrix as the copies made it before: the full matrix
    by ``sp.bmat`` as CSR, pinned rows and columns zeroed through a row
    index array, the identity's diagonal added, then CSC."""
    A = sp.bmat([[s.A_OO, s.A_OG], [s.A_OG.T, s.A_GG]], format="csr")
    if s.floating:
        pinned = np.zeros(A.shape[0], dtype=bool)
        pinned[s.pinned] = True
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        A.data[pinned[rows] | pinned[A.indices]] = 0.0
        A.eliminate_zeros()
        A = A + sp.diags(pinned.astype(float))
    return A.tocsc()


def _assert_neumann(s):
    got = s._neumann_matrix()
    assert got.format == "csc"
    assert_csr_bitwise(got, _lil_neumann(s))
    want = _bmat_neumann(s)
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("family", ["constant", "peridynamic", "fractional"])
def test_neumann_matrix_matches_lil_edit(family, cache):
    """The Neumann matrix, written column by column from the blocks,
    equals the LIL edit of the full matrix and, byte for byte and in
    index type, the array the full-matrix copies made."""
    system = _build(family, 16, 0.125, 3, 3, cache)
    assert any(s.floating for s in system.subsystems)
    for s in system.subsystems:
        _assert_neumann(s)


def test_neumann_matrix_matches_lil_edit_on_random_spd():
    rng = np.random.default_rng(3)
    n, nO = 12, 7
    R = sp.random(n, n, density=0.4, random_state=rng, format="csr")
    A = (R @ R.T - R - R.T + n * sp.eye(n)).tocsr()
    A.eliminate_zeros()
    assert A.min() < 0
    for floating in (True, False):
        modes = np.full((n, 1 if floating else 0), n ** -0.5)
        A_OG = A[:nO, nO:]
        s = SubdomainSystem(
            A_OO=A[:nO, :nO], A_OG=A_OG, A_GO=A_OG.T, A_GG=A[nO:, nO:],
            f=np.zeros(n),
            floating=floating, modes=modes,
            pinned=(feti._pin_dofs(0, modes, np.arange(n), 1) if floating
                    else np.zeros(0, np.int64)))
        _assert_neumann(s)


def test_coarse_constraint_violation_has_its_own_error(cache):
    system = _build("constant", 16, 0.125, 3, 3, cache)
    assert system.G.shape[1] > 0
    # a wrong coarse factor puts the initial multiplier off G^T lam = e
    GtG = (system.G.T @ system.G).toarray()
    system.GtG_factor = scipy.linalg.cho_factor(2.0 * GtG, lower=True)
    with pytest.raises(CoarseConstraintError, match="coarse constraint"):
        feti_solve(system, TOL, MAXIT)
    assert not issubclass(CoarseConstraintError, SubdivisionError)


def test_rank_deficient_coarse_matrix_is_refused(cache, monkeypatch):
    """With the constraint columns of the floating subdomain zeroed, its
    rigid mode reaches no multiplier, G has a zero column and the build
    refuses the singular G^T G before factoring it."""
    build = feti.build_constraints

    def cut(sub, c):
        cs = build(sub, c)
        k = int(np.flatnonzero(sub.floating)[0])
        keep = np.ones(cs.B.shape[1])
        keep[cs.offsets[k]:cs.offsets[k + 1]] = 0.0
        cs.B = (cs.B @ sp.diags(keep)).tocsr()
        return cs

    monkeypatch.setattr(feti, "build_constraints", cut)
    with pytest.raises(SubdivisionError, match=r"coarse matrix G\^T G"):
        _build("constant", 16, 0.125, 3, 3, cache)


@pytest.mark.parametrize("family,k", [("constant", 3), ("peridynamic", 3),
                                      ("constant", 1)])
def test_coarse_matrix_is_factored_once_per_build(family, k, cache,
                                                  monkeypatch):
    """G stays sparse; G^T G is factored once by the build and never by
    the solve, also when it is 0 x 0 (one subdomain, no multiplier)."""
    calls = []
    cho_factor = scipy.linalg.cho_factor

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return cho_factor(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", counted)
    system = _build(family, 16, 0.125, k, k, cache)
    assert sp.issparse(system.G) and system.G.format == "csr"
    nm = system.G.shape[1]
    assert calls == [(nm, nm)]
    assert nm == (0 if k == 1 else 1 if family == "constant" else 3)
    feti_solve(system, TOL, MAXIT)
    assert len(calls) == 1


@pytest.mark.parametrize("family,k1,k2", [("constant", 3, 3),
                                          ("peridynamic", 3, 3),
                                          ("fractional", 2, 3)])
def test_subdomain_loads_equal_the_full_mesh_sum(family, k1, k2, cache):
    """Each subdomain's load, summed over the elements it holds, equals
    byte for byte the weighted sum over every mesh element.  With zero
    constraint data the lift adds nothing, so f holds the load's inner,
    then interface entries."""
    mesh = cache.mesh(16, 0.125)
    spec = make_spec(family, 0.125)
    asm = cache.assembler(family, 16, 0.125)
    sub = build_subdivision(mesh, k1, k2, ball_norm=spec.ball_norm)
    prob = manufactured_problem(family)
    system = build_feti_system(assemble_global(
        mesh, spec, prob.forcing,
        lambda xy: np.zeros(len(xy) * spec.components), assembler=asm), sub)
    moments = system.assembled.moments
    c = spec.components
    for k, s in enumerate(system.subsystems):
        want = full_mesh_load(asm, moments, sub, k)
        nodes = np.concatenate([sub.inner_nodes[k], sub.interface_nodes[k]])
        assert s.f.tobytes() == want[_node_dofs(nodes, c)].tobytes()


def test_build_reads_the_constraint_values_of_the_global_system(cache):
    """The constraint function is evaluated once, by ``assemble_global``
    on the collar: the build (peridynamic n=32, delta=2h, 3 x 3) takes
    every subdomain's constrained values from the assembled ``g``, and
    its solve gathers the same bytes as the cached system's."""
    n, delta = 32, 2 / 32
    spec = make_spec("peridynamic", delta)
    prob = manufactured_problem("peridynamic")
    calls = []

    def g(xy):
        calls.append(len(xy))
        return prob.exact(xy)

    assembled = assemble_global(
        cache.mesh(n, delta), spec, prob.forcing, g,
        assembler=cache.assembler("peridynamic", n, delta))
    assert len(calls) == 1
    sub = build_subdivision(assembled.mesh, 3, 3, ball_norm=spec.ball_norm)
    system = build_feti_system(assembled, sub)
    assert len(calls) == 1
    want = build_feti_system(cache.system("peridynamic", n, delta), sub)
    assert (gather_solution(system, feti_solve(system, TOL, MAXIT)).tobytes()
            == gather_solution(want, feti_solve(want, TOL, MAXIT)).tobytes())


def test_stopping_rule_comes_from_the_config_only():
    """The run's ``ExperimentConfig`` is the one owner of the stopping
    rule: the FETI system keeps no copy of it, and every solve takes it
    with no default of its own."""
    rule = {"tol", "maxit"}
    assert not rule & set(FetiSystem.__dataclass_fields__)
    assert not rule & set(inspect.signature(build_feti_system).parameters)
    for solve in (feti_solve, projected_pcg, baseline_cg_solve):
        params = inspect.signature(solve).parameters
        assert all(params[name].default is inspect.Parameter.empty
                   for name in rule)
    config = ExperimentConfig()
    assert (config.tol, config.maxit) == (TOL, MAXIT)


# ---------------------------------------------------------------------------
# Per-subdomain work on the thread pool


def _solve_bytes(family, k1, k2, cache):
    """Bytes of every array a FETI solve builds, plus its iteration count."""
    system = _build(family, 16, 0.125, k1, k2, cache)
    result = feti_solve(system, TOL, MAXIT)
    G = system.G
    arrays = [system.d, G.indptr, G.indices, G.data, system.e, result.lam,
              result.alpha, gather_solution(system, result)]
    for s in system.subsystems:
        arrays += [s.f, s.modes]
        arrays += [x for M in (s.A_OO, s.A_OG, s.A_GG)
                   for x in (M.indptr, M.indices, M.data)]
    return [a.tobytes() for a in arrays], result.iterations, system


@pytest.mark.parametrize("family,k1,k2", [
    ("constant", 3, 3),
    ("fractional", 2, 2),
    ("peridynamic", 3, 3),
])
def test_pooled_solve_matches_serial_bitwise(family, k1, k2, cache,
                                             monkeypatch):
    """Subdomain work on the pool changes no byte against a serial map
    (the 3 x 3 subdivisions have a floating subdomain; peridynamic has
    two unknowns per node)."""
    # pooled on any machine
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    pooled, iters, system = _solve_bytes(family, k1, k2, cache)
    if k1 == 3:
        assert system.sub.floating.any()
    monkeypatch.setattr(feti, "_each_subdomain",
                        lambda fn, *seqs: list(map(fn, *seqs)))
    serial, serial_iters, _ = _solve_bytes(family, k1, k2, cache)
    assert iters == serial_iters
    assert pooled == serial


def test_factorizations_run_on_the_calling_thread(cache, monkeypatch):
    """The pool only solves: every factorization is made by the calling
    thread, so no factor is allocated by a pool thread."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    threads, real = [], feti.factorize

    def recording(A):
        threads.append(threading.current_thread())
        return real(A)

    monkeypatch.setattr(feti, "factorize", recording)
    system = _build("constant", 16, 0.125, 3, 3, cache)
    feti_solve(system, TOL, MAXIT)
    # a Neumann factor each, and an A_OO factor where there are inner dofs
    assert len(threads) == sum(1 + (s.n_O > 0) for s in system.subsystems)
    assert set(threads) == {threading.current_thread()}


@pytest.mark.parametrize("family", ["constant", "peridynamic", "fractional"])
def test_unpinned_floating_matrix_is_singular(family, cache):
    """The full matrix of a floating subdomain (n=16, delta=2h, 4 x 4),
    rigid modes not pinned, is refused.  Its smallest pivot can sit above
    a fixed pivot bound (fractional: 1.3e-14), but one solve grows by
    more than 1e14."""
    mesh = cache.mesh(16, 0.125)
    spec = make_spec(family, 0.125)
    sub = build_subdivision(mesh, 4, 4, ball_norm=spec.ball_norm)
    k = int(np.flatnonzero(sub.floating)[0])
    s = assemble_subdomain(cache.system(family, 16, 0.125), sub, k)
    with pytest.raises(SingularMatrixError, match="zero pivot"):
        factorize(s.full_matrix())


@pytest.mark.parametrize("family", ["constant", "peridynamic", "fractional"])
def test_solves_stay_far_below_the_growth_bound(family, cache, monkeypatch):
    """No factorization of a 2 x 2 or a 4 x 4 solve (n=16, delta=2h)
    comes within four orders of magnitude of ``GROWTH_BOUND``; the
    largest growth is 2.3e4 (peridynamic, 4 x 4)."""
    growths, real = [], sparse_linalg.solve_growth

    def recording(lu, A):
        growths.append(real(lu, A))
        return growths[-1]

    monkeypatch.setattr(sparse_linalg, "solve_growth", recording)
    for k in (2, 4):
        feti_solve(_build(family, 16, 0.125, k, k, cache), TOL, MAXIT)
    assert growths and max(growths) < 1e-4 * sparse_linalg.GROWTH_BOUND


def test_each_subdomain_keeps_subdomain_order(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)

    def late_first(i, x=0):
        time.sleep(0.002 * (6 - i))
        return i + x

    assert feti._each_subdomain(late_first, range(6)) == list(range(6))
    assert feti._each_subdomain(late_first, range(2), [5, 7]) == [5, 8]
    assert feti._each_subdomain(late_first, []) == []


def test_each_subdomain_raises_the_lowest_failure(monkeypatch):
    """Subdomain 1 fails first; subdomain 0 fails after it and wins, as
    it would in a serial loop."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    failed = threading.Event()

    def fail(i):
        if i == 0:
            failed.wait(timeout=5)
        failed.set()
        raise ValueError(i)

    with pytest.raises(ValueError) as info:
        feti._each_subdomain(fail, range(2))
    assert info.value.args == (0,)
    assert failed.is_set()


def test_pool_threads_follow_the_cpu_count():
    """Importing the package starts no thread; a 2 x 2 solve adds
    at most cpu_count, while the calling thread waits."""
    script = (
        "import os, threading\n"
        "start = threading.active_count()\n"
        "from nlfeti import feti\n"
        "from nlfeti.harness import ExperimentConfig, run_single\n"
        "assert threading.active_count() == start, 'import started a thread'\n"
        "run_single(ExperimentConfig(family='constant', n=8, delta=0.25))\n"
        "print(threading.active_count() - start, os.cpu_count())\n")
    src = str(Path(feti.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    added, cpus = map(int, out.stdout.split())
    assert 1 <= added <= cpus
