"""One-level FETI solver for the volume-constrained nonlocal systems.

Each subdomain of an overlapping subdivision assembles its own weighted
stiffness matrix and couples to its neighbors only through signed
interface constraints.  The dual problem in the Lagrange multipliers is
stated on whole subdomain vectors (FETI-1):
u_s = K_s^+ (f_s - B_s^T lambda) - R_s alpha_s, with K_s^+ a generalized
inverse from one pinned Neumann factorization of the full subdomain
matrix and R_s the orthonormal rigid modes of a floating subdomain.  It
is solved by projected preconditioned conjugate gradients with a coarse
problem built from those rigid modes.  The interior block A_OO is
factorized only for the Dirichlet preconditioner B_D S B_D^T, whose
Schur complement S eliminates the interior unknowns.  Each subdomain's
load f_s and solution u_s are one [inner | interface] vector from
assembly to gather, and ``B`` and ``B_D`` act on the concatenated
whole vectors, so only ``SubdomainSystem.schur_apply`` reads where the
interface starts.  The dual iteration takes its stopping rule from the
caller.

A build reads the run's ``AssembledSystem`` (mesh, kernel, assembler,
load moments, collar values ``g``) and ``Subdivision`` (nodes, windows,
pair counts) and derives neither again; it builds no global matrix.

On a structured mesh with even cuts most subdomains are translates of
one another, and their blocks are bitwise equal.  Within one build such
twins are found by a key of what the blocks are made from, translation
taken out: the window shape, the node positions in it, the pinned dofs
and the pair counts that reach kept rows, joined into one byte string
that a dict looks up.  Twins share one scatter, one
set of blocks and one ``_Factors``, so assembly, factorization and
memory scale with the distinct subdomains, not with K; their loads,
rigid modes and right-hand sides stay their own.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .assembly import AssembledSystem, _node_dofs
from .mesh import Mesh
from .sparse_linalg import (Factorization, SingularMatrixError, factorize,
                            projected_pcg)
from .subdivision import (ConstraintSet, Subdivision, SubdivisionError,
                          build_constraints, rigid_modes)


class ConsistencyError(RuntimeError):
    """Interface copies of the gathered solution disagree."""


class CoarseConstraintError(RuntimeError):
    """A dual iterate violates the coarse constraint G^T lambda = e."""


GATHER_TOL = 1e-7  # relative agreement of interface copies when gathered


# ---------------------------------------------------------------------------
# Per-subdomain work

# SuperLU solves and the sparse products release the interpreter lock,
# so subdomains solve side by side, on one thread per processor while
# the calling thread waits.  The threads start on first use.
_POOL = ThreadPoolExecutor(os.cpu_count() or 1,
                           thread_name_prefix="nlfeti-subdomain")


def _each_subdomain(fn, *seqs) -> list:
    """``list(map(fn, *seqs))`` over the subdomains, on the pool.

    Results come in subdomain order.  When calls raise, the exception of
    the lowest index is raised, as in a serial loop, and the calls not
    yet started are cancelled.
    """
    return list(_POOL.map(fn, *seqs))


# ---------------------------------------------------------------------------
# Subdomain systems


@dataclass
class _Factors:
    """Factorizations of one local system, made on first use.  Subdomains
    whose systems share the blocks share this object too."""

    OO: Factorization | None = None
    neumann: Factorization | None = None


def _pin_dofs(k: int, modes: np.ndarray, nodes: np.ndarray,
              c: int) -> np.ndarray:
    """Dofs pinned for the floating Neumann solve of subdomain k, whose
    [O | G] dofs carry the nodes ``nodes``: walked in global dof order,
    greedily keeping those that make the pinned rigid-mode block
    nonsingular."""
    nmodes = modes.shape[1]
    pins: list[int] = []
    for pos in np.argsort(nodes, kind="stable"):
        for comp in range(c):
            trial = pins + [c * pos + comp]
            if np.linalg.matrix_rank(modes[trial, :], tol=1e-10) == len(trial):
                pins = trial
            if len(pins) == nmodes:
                return np.array(pins)
    raise SingularMatrixError(f"could not pin {nmodes} dofs on subdomain {k}")


@dataclass
class SubdomainSystem:
    """Weighted stiffness blocks and factorizations of one subdomain.

    Dof layout is [inner nodes | interface nodes] (each sorted by global
    id, interleaved components for vector problems), for the blocks, the
    load ``f`` and the modes alike, so the n_O rows of ``A_OO`` come
    first; constrained collar values are already moved to ``f``.
    ``pinned`` are the dofs pinned for the Neumann solve of a floating
    subdomain, none on any other (see ``_pin_dofs``).  Twins of one build
    hold the same block objects and ``_factors``.
    """

    A_OO: sp.csr_matrix
    A_OG: sp.csr_matrix
    A_GO: sp.csc_matrix  # A_OG^T, a view made once: .T is new per call
    A_GG: sp.csr_matrix
    f: np.ndarray
    floating: bool
    modes: np.ndarray  # orthonormal rigid modes over (O, G) dofs; (n, m)
    pinned: np.ndarray = field(repr=False)
    _factors: _Factors = field(default_factory=_Factors, repr=False)

    @property
    def n_O(self) -> int:
        return self.A_OO.shape[0]

    def fact_OO(self) -> Factorization | None:
        if self.n_O == 0:
            return None
        if self._factors.OO is None:
            self._factors.OO = factorize(self.A_OO)
        return self._factors.OO

    def full_matrix(self) -> sp.csc_matrix:
        """[[A_OO, A_OG], [A_OG^T, A_GG]], as CSC: the form SuperLU takes,
        reached from the blocks with no CSR copy on the way."""
        return sp.bmat([[self.A_OO, self.A_OG],
                        [self.A_GO, self.A_GG]], format="csc")

    def _neumann_matrix(self) -> sp.csc_matrix:
        """The full matrix; on a floating subdomain the pinned rows and
        columns are replaced by those of the identity: their entries are
        dropped in place and the ones added by one sparse sum."""
        A = self.full_matrix()
        if not self.floating:
            return A
        n = A.shape[0]
        pinned = np.zeros(n, dtype=bool)
        pinned[self.pinned] = True
        col = np.repeat(np.arange(n, dtype=np.int32), np.diff(A.indptr))
        A.data[pinned[A.indices] | pinned[col]] = 0.0
        del col
        A.eliminate_zeros()
        return A + sp.diags(pinned.astype(float), format="csc")

    def fact_neumann(self) -> Factorization:
        if self._factors.neumann is None:
            self._factors.neumann = factorize(self._neumann_matrix())
        return self._factors.neumann

    # -- operators ---------------------------------------------------------

    def schur_apply(self, v: np.ndarray) -> np.ndarray:
        """[0 | S v_G] for the [O | G] vector v = [v_O | v_G], with
        S v_G = A_GG v_G - A_OG^T solve(A_OO, A_OG v_G): the Schur
        complement on the interface part, v_O unread."""
        n_O = self.n_O
        v_G = v[n_O:]
        out = self.A_GG @ v_G
        if n_O:
            out = out - self.A_GO @ self.fact_OO().solve(self.A_OG @ v_G)
        return np.concatenate([np.zeros(n_O), out])

    def pinv_apply(self, f: np.ndarray) -> np.ndarray:
        """A generalized inverse of the full subdomain matrix applied to
        the [O | G] vector f.

        Solves the Neumann system; on a floating subdomain the pinned
        entries of f are zeroed first and the rigid-mode component of
        the result is removed, so K pinv_apply(f) = f whenever f is
        orthogonal to ``modes``.
        """
        fact = self.fact_neumann()
        if not self.floating:
            return fact.solve(f)
        rhs = f.copy()
        rhs[self.pinned] = 0.0
        w = fact.solve(rhs)
        return w - self.modes @ (self.modes.T @ w)


def _local_key(mesh: Mesh, cells, nodes, pinned: np.ndarray,
               counts: np.ndarray) -> bytes:
    """The inputs of a subdomain's blocks, with the translation taken
    out, as one byte string: a header of the cell-window shape and the
    size of each array, then the inner, interface and constrained node
    positions from the window corner, the pinned dofs (floating
    subdomains only) and the window's grid of pair counts, whose
    reciprocals are the pair weights.  Within one build the types are
    fixed, so equal strings mean equal arrays."""
    x0, x1, y0, y1 = cells
    arrays = [(ny - y0) * (x1 - x0 + 1) + nx - x0
              for ny, nx in (np.divmod(v, mesh.cells_per_side + 1)
                             for v in nodes)] + [pinned, counts]
    header = np.array([x1 - x0, y1 - y0] + [a.size for a in arrays])
    return b"".join(a.tobytes() for a in (header, *arrays))


def assemble_subdomain(system: AssembledSystem, sub: Subdivision, k: int,
                       table: dict | None = None) -> SubdomainSystem:
    """Assemble the multiplicity-weighted system of subdomain k from the
    run's ``system``: its assembler, load moments and collar values ``g``.

    Every element pair is weighted by the reciprocal of the number of
    subdomains containing both elements, and the load by the reciprocal
    element multiplicity, so subdomain energies sum exactly to the
    global energy.  Only pairs with both elements in subdomain k weigh
    anything, so the scatter runs on k's window, the cell bounding box
    of the elements k holds.

    ``table`` is shared by the subdomains of one build.  It maps the
    ``_local_key`` of each local system met so far to its blocks.  A
    subdomain whose key is in it skips the scatter and takes those
    blocks and their ``_Factors``; its load, ``g`` values, modes and
    right-hand side stay its own.
    """
    asm, mesh = system.assembler, system.mesh
    c = system.spec.components

    inner = sub.inner_nodes[k]
    inter = sub.interface_nodes[k]
    constrained = sub.constrained_nodes[k]
    kept = np.concatenate([inner, inter])
    cells = tuple(sub.windows[k])
    # a pair with no kept vertex reaches only constrained rows, which are
    # never kept: counted 0, so that it sets no two subdomains apart; the
    # counts stand for the weights, their reciprocals, in the key
    overlap = sub.pair_counts(k, asm.classes())
    floating = bool(sub.floating[k])
    if floating:
        modes = rigid_modes(mesh.vertices[kept], c)
        pinned = _pin_dofs(k, modes, kept, c)
    else:
        modes = np.zeros((c * len(kept), 0))
        pinned = np.zeros(0, dtype=np.int64)

    table = {} if table is None else table
    key = _local_key(mesh, cells, (inner, inter, constrained), pinned,
                     overlap)
    local = table.get(key)
    if local is None:
        # only the kept rows: a constrained row is never read
        (A_OO, A_OG, A_OC), (_, A_GG, A_GC) = asm.assemble(
            overlap, cells, (inner, inter), (inner, inter, constrained))
        local = table[key] = (A_OO, A_OG, A_OG.T, A_GG, A_OC, A_GC,
                              _Factors())
    A_OO, A_OG, A_GO, A_GG, A_OC, A_GC, factors = local
    load = asm.assemble_load(system.moments, sub.element_weights(k), kept)
    gv = system.g[np.searchsorted(system.collar_dofs,
                                  _node_dofs(constrained, c))]
    return SubdomainSystem(
        A_OO=A_OO, A_OG=A_OG, A_GO=A_GO, A_GG=A_GG,
        f=load - np.concatenate([A_OC @ gv, A_GC @ gv]),
        floating=floating, modes=modes, pinned=pinned, _factors=factors,
    )


# ---------------------------------------------------------------------------
# The assembled FETI system


@dataclass
class FetiSystem:
    """All state of a one-level FETI solve of the ``assembled`` system."""

    assembled: AssembledSystem
    sub: Subdivision
    constraints: ConstraintSet
    subsystems: list[SubdomainSystem]
    G: sp.csr_matrix         # (M_C, n_modes)
    Gt: sp.csr_matrix        # G^T, made once: G.T is a new CSC per call
    GtG_factor: tuple        # scipy.linalg.cho_factor of G^T G
    d: np.ndarray
    e: np.ndarray

    # -- dual operators over the concatenated whole subdomain vectors --------

    def _split(self, v: np.ndarray) -> list[np.ndarray]:
        return np.split(v, self.constraints.offsets[1:-1])

    def _sweep(self, fn, v: np.ndarray) -> np.ndarray:
        """concat_s fn(s, v_s) over the subdomains, on the pool."""
        return np.concatenate(_each_subdomain(fn, self.subsystems,
                                              self._split(v)))

    def apply_F(self, lam: np.ndarray) -> np.ndarray:
        """B K^+ B^T lam; with no multiplier, lam itself and no sweep."""
        if not lam.size:
            return lam
        B = self.constraints.B
        return B @ self._sweep(SubdomainSystem.pinv_apply, B.T @ lam)

    def coarse_solve(self, b: np.ndarray) -> np.ndarray:
        """(G^T G)^-1 b."""
        return scipy.linalg.cho_solve(self.GtG_factor, b)

    def apply_P(self, lam: np.ndarray) -> np.ndarray:
        return lam - self.G @ self.coarse_solve(self.Gt @ lam)

    def apply_Minv(self, r: np.ndarray) -> np.ndarray:
        """B_D S B_D^T r; with no multiplier, r itself and no factor."""
        if not r.size:
            return r
        for s in self.subsystems:  # on this thread: see build_feti_system
            s.fact_OO()
        BD = self.constraints.B_D
        return BD @ self._sweep(SubdomainSystem.schur_apply, BD.T @ r)


def build_feti_system(system: AssembledSystem, sub: Subdivision) -> FetiSystem:
    """Assemble all subdomain systems of ``sub`` by the run's ``system``
    (see ``assemble_subdomain``) and the coarse problem.  No global
    matrix is built.

    With K_s^+ = ``pinv_apply`` and R_s = ``modes`` of subdomain s,
    d = B concat_s (K_s^+ f_s), G = B blockdiag_s (R_s) and
    e = concat_s R_s^T f_s.  G stays sparse; G^T G is factored once, here,
    for every coarse solve of the system.

    The subdomains share one table, so twins (equal keys, see
    ``assemble_subdomain``) are scattered and factorized once; the table
    is dropped before the factorizations.
    """
    cs = build_constraints(sub, system.spec.components)
    # serial: on the pool, assembly raised the peak memory of the
    # constant n=64, delta=8h, 4x4 solve from 206.7 to 219-220 MB
    table: dict = {}
    subs = [assemble_subdomain(system, sub, k, table=table)
            for k in range(sub.K)]
    del table
    # factorized on this thread, before the pool solves with them: the
    # factors made on a pool thread live in a malloc arena of their own,
    # which raised peak memory by 2-5 %
    for s in subs:
        s.fact_neumann()
    d = cs.B @ np.concatenate(_each_subdomain(
        lambda s: s.pinv_apply(s.f), subs))
    G = cs.B @ sp.block_diag([s.modes for s in subs], format="csr")
    Gt = G.T.tocsr()
    GtG = (Gt @ G).toarray()  # small: n_modes x n_modes
    if G.shape[1] and np.linalg.matrix_rank(GtG) < G.shape[1]:
        raise SubdivisionError("coarse matrix G^T G is singular")
    e = np.concatenate([s.modes.T @ s.f for s in subs])
    return FetiSystem(
        assembled=system, sub=sub, constraints=cs, subsystems=subs,
        G=G, Gt=Gt, GtG_factor=scipy.linalg.cho_factor(GtG, lower=True),
        d=d, e=e,
    )


@dataclass
class FetiResult:
    lam: np.ndarray
    alpha: np.ndarray
    u: list[np.ndarray]  # per subdomain, over its [O | G] dofs
    iterations: int
    trace: list[float]


def feti_solve(system: FetiSystem, tol: float, maxit: int) -> FetiResult:
    """Run the projected-PCG dual iteration to the relative residual
    ``tol`` within ``maxit`` iterations and recover all unknowns,
    u_s = K_s^+ (f_s - B_s^T lambda) - R_s alpha_s."""
    cs = system.constraints
    lam0 = system.G @ system.coarse_solve(system.e)
    res = np.linalg.norm(system.Gt @ lam0 - system.e)
    if res > 1e-10 * max(1.0, np.linalg.norm(system.e)):
        raise CoarseConstraintError(
            f"initial multiplier violates the coarse constraint "
            f"(residual {res:.3e})")
    trace: list[float] = []
    lam, iters = projected_pcg(
        system.apply_F, system.apply_P, system.d, lam0,
        apply_Minv=system.apply_Minv, trace=trace, tol=tol, maxit=maxit,
    )
    alpha = system.coarse_solve(system.Gt @ (system.d - system.apply_F(lam)))
    subs = system.subsystems
    counts = np.cumsum([s.modes.shape[1] for s in subs])[:-1]
    u = _each_subdomain(
        lambda s, jump, a: s.pinv_apply(s.f - jump) - s.modes @ a,
        subs, system._split(cs.B.T @ lam), np.split(alpha, counts))
    return FetiResult(lam=lam, alpha=alpha, u=u, iterations=iters,
                      trace=trace)


def gather_solution(system: FetiSystem, result: FetiResult) -> np.ndarray:
    """Merge subdomain solutions into one global nodal coefficient
    vector (unknowns and constrained values).

    Every interface copy must agree to ``GATHER_TOL``, relative to the
    largest entry of any subdomain solution, with the copy of the
    lowest-index subdomain, which is the one ``B`` links it to and the
    one that is written.  Raises ConsistencyError otherwise, and also
    when an entry of a subdomain solution is not finite.
    """
    assembled = system.assembled
    c = assembled.spec.components
    sub = system.sub
    B = system.constraints.B
    u = np.concatenate(result.u)
    # the global dof of each entry of u
    dofs = _node_dofs(np.concatenate(
        [nodes for k in range(sub.K)
         for nodes in (sub.inner_nodes[k], sub.interface_nodes[k])]), c)
    jumps = np.abs(B @ u) / np.abs(u).max(initial=1e-30)
    # a NaN jump fails the test as well
    if jumps.size and not jumps.max() <= GATHER_TOL:
        if not np.isfinite(u).all():
            raise ConsistencyError(
                f"the copy of dof {int(dofs[np.argmin(np.isfinite(u))])} "
                f"is not finite")
        row = int(np.argmax(jumps))
        # both copies a row links carry the same dof
        raise ConsistencyError(
            f"interface copies disagree at dof "
            f"{int(dofs[B.indices[B.indptr[row]]])} "
            f"(relative difference {jumps[row]:.3e})")
    out = np.full(c * assembled.mesh.n_vertices, np.nan)
    # u's first copy of a dof is the lowest-index subdomain's
    first = np.unique(dofs, return_index=True)[1]
    out[dofs[first]] = u[first]
    out[assembled.collar_dofs] = assembled.g
    return out
