"""Stiffness assembly: pair integrals, weighted class scatter, and global
systems."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from nlfeti import assembly
from nlfeti.assembly import (_LOAD_DEGREE, Assembler, QuadratureConfig,
                             _node_dofs, assemble_global, pair_matrix)
from nlfeti.feti import assemble_subdomain
from nlfeti.geometry import interacting_classes
from nlfeti.harness import ExperimentConfig, run_study, study_rungs
from nlfeti.kernels import KernelSpec, scaling_constant
from nlfeti.mesh import INTERIOR, _TRI_T, build_structured_mesh, p1_values
from nlfeti.problems import manufactured_problem
from nlfeti.quadrature import map_to_physical, triangle_area, triangle_rule
from nlfeti.subdivision import build_subdivision

from conftest import (assert_csr_bitwise, make_spec, n_G, pair_counts,
                      reciprocals, refined_quadrature, square_pair_matrix,
                      weight_grid)


def _pair_matrix(mesh, e1, e2, spec, quad):
    """``pair_matrix`` of two mesh elements, with the patch as node ids."""
    ids = np.concatenate([mesh.elements[e1], mesh.elements[e2]])
    M, rows = pair_matrix(mesh.vertices[ids[:3]], mesh.vertices[ids[3:]],
                          spec, quad)
    return M, ids[rows]


def _pair_oracle(mesh, e1, e2, spec, patch, degree=4):
    """Plain tensorized Gauss double integral of the pair contribution,
    valid when the kernel has no support boundary inside the pair."""
    v1 = mesh.vertices[mesh.elements[e1]]
    v2 = mesh.vertices[mesh.elements[e2]]
    bary, w = triangle_rule(degree)
    X, WX = map_to_physical(v1, bary, w)
    Y, WY = map_to_physical(v2, bary, w)
    gamma = scaling_constant(spec)
    # basis differences psi_a(y) - psi_a(x) per patch node
    where = {int(g): a for a, g in enumerate(patch)}
    loc1 = np.array([where[int(g)] for g in mesh.elements[e1]])
    loc2 = np.array([where[int(g)] for g in mesh.elements[e2]])
    PX = np.zeros((len(X), len(patch)))
    PX[:, loc1] = p1_values(v1, X)
    PY = np.zeros((len(Y), len(patch)))
    PY[:, loc2] = p1_values(v2, Y)
    M = np.zeros((len(patch), len(patch)))
    for i, wx in enumerate(WX):
        for j, wy in enumerate(WY):
            d = PY[j] - PX[i]
            M += wx * wy * gamma * np.outer(d, d)
    return M


def test_constant_pair_matches_analytic_double_integral():
    # horizon covers both elements entirely, so the kernel is a constant
    # and a degree-4 tensor rule is exact for the quadratic integrand
    mesh = build_structured_mesh(2, 2.0)
    spec = KernelSpec("constant", 2.0)
    e1, e2 = 0, 4    # disjoint elements two cells apart in the collar
    assert len(np.intersect1d(mesh.elements[e1], mesh.elements[e2])) == 0
    M, patch = _pair_matrix(mesh, e1, e2, spec, QuadratureConfig())
    oracle = _pair_oracle(mesh, e1, e2, spec, patch)
    assert np.allclose(M, oracle, atol=1e-14 * abs(oracle).max())


def test_coinciding_constant_pair_annihilates_constants():
    mesh = build_structured_mesh(2, 1.0)
    spec = KernelSpec("constant", 1.0)
    M, patch = _pair_matrix(mesh, 5, 5, spec, QuadratureConfig())
    ones = np.ones(len(patch))
    assert np.abs(M @ ones).max() < 1e-14 * abs(M).max()


def test_fractional_coinciding_pair_stable_under_order_doubling():
    mesh = build_structured_mesh(4, 0.5)
    spec = KernelSpec("fractional", 0.5, 0.4)
    quad = QuadratureConfig()
    e = 2 * (4 * 8 + 4)  # an element well inside
    M1, _ = _pair_matrix(mesh, e, e, spec, quad)
    M2, _ = _pair_matrix(mesh, e, e, spec, refined_quadrature())
    rel = np.abs(M1 - M2).max() / np.abs(M2).max()
    assert rel < 1e-6


@pytest.mark.parametrize("family", ["constant", "fractional", "peridynamic"])
def test_symmetry_and_null_space(family):
    spec = make_spec(family, 0.25)
    mesh = build_structured_mesh(8, 0.25)
    asm = Assembler(mesh, spec)
    ids = np.flatnonzero(mesh.node_region == INTERIOR)
    c = spec.components
    dofs = np.concatenate([c * ids + i for i in range(c)])
    [[rows]] = asm.assemble()
    rows = rows[dofs]
    scale = abs(rows).max()
    sym = abs(rows[:, dofs] - rows[:, dofs].T).max()
    assert sym <= 1e-12 * scale
    # constants (and rigid modes) lie in the null space of the
    # unconstrained rows: row sums over all columns vanish
    assert np.abs(np.asarray(rows.sum(axis=1))).max() <= 1e-10 * scale
    if family == "peridynamic":
        # rotation mode: (-(y - c2), x - c1) at all nodes
        xy = mesh.vertices
        rot = np.column_stack([-(xy[:, 1] - 0.5), xy[:, 0] - 0.5]).ravel()
        assert np.abs(rows @ rot).max() <= 1e-10 * scale


def _dense_oracle(mesh, spec, pair_weights):
    """Every element pair e1 <= e2 integrated once by ``pair_matrix`` and
    scattered densely with its weight, doubled when e1 != e2 for the
    swapped pair.  Pairs whose barycenters lie farther apart than any
    interaction can reach are skipped.  Pair matrices are memoized by the
    lattice geometry of the pair, which fixes them up to translation."""
    c = spec.components
    A = np.zeros((c * mesh.n_vertices, c * mesh.n_vertices))
    bary = mesh.barycenters
    reach = np.sqrt(2.0) * spec.delta + 2.0 * mesh.spacing
    memo = {}
    for e1 in range(mesh.n_elements):
        for e2 in range(e1, mesh.n_elements):
            if np.linalg.norm(bary[e1] - bary[e2]) > reach:
                continue
            w = pair_weights(np.array([e1]), np.array([e2]))[0]
            if w == 0:
                continue
            ids1, ids2 = mesh.elements[e1], mesh.elements[e2]
            origin = mesh.vertices[ids1[0]]
            key = tuple(np.round(
                (mesh.vertices[np.concatenate([ids1, ids2])] - origin)
                / mesh.spacing).astype(int).ravel())
            patch = np.array(list(ids1) + [g for g in ids2 if g not in ids1])
            if key not in memo:
                M, got = _pair_matrix(mesh, e1, e2, spec, QuadratureConfig())
                assert np.array_equal(got, patch)
                memo[key] = M
            dofs = (c * patch[:, None] + np.arange(c)[None, :]).ravel()
            A[np.ix_(dofs, dofs)] += (1 if e1 == e2 else 2) * w * memo[key]
    return A


def _patch_by_ids(ids1, ids2):
    """Union patch of two elements' vertex ids: (patch ids, loc1, loc2)
    where loc1[a] is the local vertex index of patch node a in the first
    element (-1 when absent)."""
    patch = list(ids1)
    for g in ids2:
        if g not in patch:
            patch.append(g)
    loc1 = [list(ids1).index(g) if g in list(ids1) else -1 for g in patch]
    loc2 = [list(ids2).index(g) if g in list(ids2) else -1 for g in patch]
    return np.asarray(patch), np.asarray(loc1), np.asarray(loc2)


def test_coordinate_patch_matches_patch_by_node_ids():
    """Matching two triangles' vertices by coordinates gives the patch
    that matching them by node id gives, on every ordered element pair
    within reach of the horizon: coinciding, edge, vertex and disjoint."""
    mesh = build_structured_mesh(4, 0.25)
    bary = mesh.barycenters
    reach = np.sqrt(2.0) * 0.25 + 2.0 * mesh.spacing
    shared = set()
    for e1 in range(mesh.n_elements):
        for e2 in range(mesh.n_elements):
            if np.linalg.norm(bary[e1] - bary[e2]) > reach:
                continue
            ids1, ids2 = mesh.elements[e1], mesh.elements[e2]
            patch, loc1, loc2 = _patch_by_ids(ids1, ids2)
            rows, got1, got2 = assembly._patch(mesh.vertices[ids1],
                                               mesh.vertices[ids2])
            assert np.array_equal(np.concatenate([ids1, ids2])[rows], patch)
            assert np.array_equal(got1, loc1)
            assert np.array_equal(got2, loc2)
            shared.add(int(np.sum((loc1 >= 0) & (loc2 >= 0))))
    assert shared == {0, 1, 2, 3}


def _unit_weights(e1, e2):
    """Every pair counted once: weight 1."""
    return np.ones(len(e1), np.uint8)


def _mixed_weights(e1, e2):
    """Pair counts in {0, 1, 2, 3}, so weights 0, 1, 1/2 and 1/3:
    symmetric and nonuniform; zero on a quarter of the pairs and, as for
    a subdomain, on every pair with an element in the lowest cell row or
    the leftmost cell column of the 6 x 6 cells of the n=4 mesh."""
    cell1, cell2 = e1 // 2, e2 // 2
    outside = (cell1 < 6) | (cell2 < 6) | (cell1 % 6 == 0) | (cell2 % 6 == 0)
    return np.where(outside, 0, (e1 + e2) % 4).astype(np.uint8)


@pytest.mark.parametrize("counts", [_unit_weights, _mixed_weights])
@pytest.mark.parametrize("family", ["constant", "peridynamic"])
def test_assemble_matches_pairwise_oracle(family, counts):
    """The class scatter over all mesh dofs, collar rows included, equals
    a dense scatter of every interacting element pair, weighted by the
    reciprocal of its count."""
    mesh = build_structured_mesh(4, 0.25)
    spec = make_spec(family, 0.25)
    oracle = _dense_oracle(mesh, spec, reciprocals(counts))
    asm = Assembler(mesh, spec)
    [[got]] = asm.assemble(None if counts is _unit_weights
                           else weight_grid(asm, counts))
    assert got.has_sorted_indices
    assert np.abs(got.toarray() - oracle).max() <= 1e-13 * np.abs(oracle).max()


def _in_cells(cells, N):
    """Pair count factor: 1 where both elements lie in the half-open cell
    rectangle ``cells = (x0, x1, y0, y1)`` of an N x N cell mesh, else 0."""
    x0, x1, y0, y1 = cells

    def inside(e):
        cy, cx = np.divmod(e // 2, N)
        return (x0 <= cx) & (cx < x1) & (y0 <= cy) & (cy < y1)

    return lambda e1, e2: (inside(e1) & inside(e2)).astype(np.uint8)


def _window_dofs(mesh, cells, c):
    """Global dofs of the nodes of a cell window, ordered by node id."""
    x0, x1, y0, y1 = cells
    N1 = mesh.cells_per_side + 1
    nodes = (np.arange(y0, y1 + 1)[:, None] * N1
             + np.arange(x0, x1 + 1)[None, :]).ravel()
    return (c * nodes[:, None] + np.arange(c)[None, :]).ravel()


# windows of the 6 x 6 cells of the n=4, delta=0.25 mesh, whose classes
# reach one cell over: interior, corner, touching the collar on one side,
# and one cell wide, which no pair of a class with a horizontal offset fits
WINDOWS = {"interior": (1, 5, 1, 5), "corner": (0, 3, 0, 3),
           "collar_side": (0, 6, 2, 5), "narrow": (2, 3, 0, 6)}


@pytest.mark.parametrize("counts", [_unit_weights, _mixed_weights])
@pytest.mark.parametrize("family", ["constant", "peridynamic"])
def test_window_rows_match_oracle_and_whole_mesh(family, counts):
    """A window's rows equal the dense scatter of the pairs inside it, and
    bitwise the same rows of the whole-mesh scatter of those pairs."""
    mesh = build_structured_mesh(4, 0.25)
    spec = make_spec(family, 0.25)
    asm = Assembler(mesh, spec)
    assert max(abs(key[0]) for key in asm.classes()) == 1
    for cells in WINDOWS.values():
        inside = _in_cells(cells, mesh.cells_per_side)

        def masked(e1, e2):
            return counts(e1, e2) * inside(e1, e2)

        dofs = _window_dofs(mesh, cells, spec.components)
        [[got]] = asm.assemble(None if counts is _unit_weights
                               else weight_grid(asm, counts, cells),
                               cells=cells)
        oracle = _dense_oracle(mesh, spec, reciprocals(masked))[dofs]
        assert got.has_sorted_indices
        assert (np.abs(got.toarray() - oracle).max()
                <= 1e-13 * np.abs(oracle).max())
        [[whole]] = asm.assemble(weight_grid(asm, masked))
        assert_csr_bitwise(got, whole[dofs])


def _assert_blocks_bitwise(got, want) -> None:
    assert [len(row) for row in got] == [len(row) for row in want]
    for got_row, want_row in zip(got, want):
        for g, w in zip(got_row, want_row):
            assert_csr_bitwise(g, w)


@pytest.mark.parametrize("family", ["constant", "peridynamic"])
def test_one_row_strips_change_no_byte(family, monkeypatch):
    """The strip bound changes only how many node rows are scattered at
    once: one row per strip gives the same bytes as one strip for all,
    in one block and in row and column blocks."""
    mesh = build_structured_mesh(8, 0.25)
    spec = make_spec(family, 0.25)
    asm = Assembler(mesh, spec)
    sub = build_subdivision(mesh, 3, 3, ball_norm=spec.ball_norm)
    cells = tuple(sub.windows[4])
    blocks = (sub.inner_nodes[4], sub.interface_nodes[4],
              sub.constrained_nodes[4])
    counts = sub.pair_counts(4, asm.classes())
    calls = [dict(), dict(rows=[mesh.interior_nodes]),
             dict(weights=weight_grid(asm, pair_counts(sub, 4), cells),
                  cells=cells),
             dict(weights=counts, cells=cells, rows=blocks[:2],
                  columns=blocks)]
    whole = [asm.assemble(**kw) for kw in calls]
    Ct = asm._scatter_table[0]
    # by default each call is one strip of all 13 x 13 node rows
    assert assembly._STRIP_ENTRIES >= max(Ct.shape) * 13 * 13
    monkeypatch.setattr(assembly, "_STRIP_ENTRIES", 1)
    for kw, want in zip(calls, whole):
        _assert_blocks_bitwise(asm.assemble(**kw), want)


@pytest.mark.parametrize("family", ["constant", "peridynamic"])
def test_grid_padded_around_the_rows_changes_no_byte(family, monkeypatch):
    """The weight grid is padded only around the node box of the rows
    asked for, not around the whole window: the rows come out byte-equal
    to the same rows of the whole window's scatter, with one strip or
    one node row per strip, from a grid of pair counts."""
    mesh = build_structured_mesh(8, 0.25)
    spec = make_spec(family, 0.25)
    asm = Assembler(mesh, spec)
    sub = build_subdivision(mesh, 3, 3, ball_norm=spec.ball_norm)
    N1, c = mesh.cells_per_side + 1, spec.components
    cells = (2, 10, 1, 11)
    middle = np.array([5 * N1 + 6, 6 * N1 + 5, 6 * N1 + 7, 7 * N1 + 6])
    kept = [sub.inner_nodes[4], sub.interface_nodes[4]]
    counts = weight_grid(asm, pair_counts(sub, 4), cells)
    assert counts.dtype == np.uint8
    calls = [dict(rows=[mesh.interior_nodes]), dict(rows=[middle]),
             dict(weights=counts, cells=cells, rows=kept)]
    wants = []
    for kw in calls:
        [[whole]] = asm.assemble(**{**kw, "rows": None})
        wants.append([[whole[_node_dofs(
            _box_positions(nodes, kw.get("cells"), N1), c)]]
            for nodes in kw["rows"]])
    for strip in (assembly._STRIP_ENTRIES, 1):
        monkeypatch.setattr(assembly, "_STRIP_ENTRIES", strip)
        for kw, want in zip(calls, wants):
            _assert_blocks_bitwise(asm.assemble(**kw), want)


@pytest.mark.parametrize("family", ["constant", "peridynamic"])
def test_column_blocks_are_the_columns_of_one_block(family):
    """Entries go straight to their row and column blocks: every block
    equals, byte for byte and in index type, its rows and columns taken
    out of the one block of every mesh node; columns in no block are
    left out."""
    mesh = build_structured_mesh(8, 0.25)
    spec = make_spec(family, 0.25)
    asm = Assembler(mesh, spec)
    c = spec.components
    interior = mesh.interior_nodes
    rows = [interior[::2], interior[1::2]]
    columns = [interior, mesh.collar_nodes[::3], mesh.collar_nodes[1::3]]
    got = asm.assemble(rows=rows, columns=columns)
    [[whole]] = asm.assemble(rows=[interior])
    for i, row in enumerate(rows):
        for j, col in enumerate(columns):
            at = _node_dofs(np.arange(i, len(interior), 2), c)
            want = whole[at][:, _node_dofs(col, c)]
            assert got[i][j].indices.dtype == want.indices.dtype
            assert got[i][j].indptr.dtype == want.indptr.dtype
            assert got[i][j].has_sorted_indices
            assert_csr_bitwise(got[i][j], want)
    with pytest.raises(ValueError, match="not strictly increasing"):
        asm.assemble(rows=[interior[::-1]])


def _box_positions(nodes, cells, N1):
    """Positions of ``nodes`` among the nodes of the cell window, by id."""
    x0, x1, y0, y1 = cells or (0, N1 - 1, 0, N1 - 1)
    ny, nx = np.divmod(nodes, N1)
    return (ny - y0) * (x1 - x0 + 1) + nx - x0


@pytest.mark.parametrize("family", ["constant", "peridynamic"])
def test_rows_of_a_box_prefix_are_only_those_nodes(family):
    """Nodes in box order that do not fill their bounding box (the first
    node row and two nodes of the second) get their own rows only, the
    matching rows of the whole box."""
    mesh = build_structured_mesh(8, 0.25)
    spec = make_spec(family, 0.25)
    asm = Assembler(mesh, spec)
    N1, c = mesh.cells_per_side + 1, spec.components
    nodes = np.arange(N1 + 2)
    [[got]] = asm.assemble(rows=[nodes])
    assert got.shape[0] == c * len(nodes)
    [[box]] = asm.assemble(rows=[np.arange(2 * N1)])
    assert_csr_bitwise(got, box[:c * len(nodes)])


@pytest.mark.parametrize("k1, k2", [(3, 3), (3, 4)])
@pytest.mark.parametrize("family", ["constant", "peridynamic"])
def test_subdomain_blocks_match_whole_mesh_scatter(family, k1, k2, cache):
    """Every subdomain block from its window equals, bitwise, the block
    sliced out of the whole-mesh scatter of the subdomain's counts (3 x 4
    has twelve subdomains, two bytes per membership row)."""
    mesh = cache.mesh(16, 0.125)
    spec = make_spec(family, 0.125)
    asm = cache.assembler(family, 16, 0.125)
    system = cache.system(family, 16, 0.125)
    sub = build_subdivision(mesh, k1, k2, ball_norm=spec.ball_norm)
    c = spec.components
    for k in range(sub.K):
        s = assemble_subdomain(system, sub, k)
        nodes = np.concatenate([sub.inner_nodes[k], sub.interface_nodes[k],
                                sub.constrained_nodes[k]])
        dofs = (c * nodes[:, None] + np.arange(c)[None, :]).ravel()
        [[A]] = asm.assemble(weight_grid(asm, pair_counts(sub, k)))
        A = A[dofs][:, dofs]
        O = np.arange(s.n_O)
        G = np.arange(s.n_O, s.n_O + n_G(s))
        assert_csr_bitwise(s.A_OO, A[O][:, O].tocsr())
        assert_csr_bitwise(s.A_OG, A[O][:, G].tocsr())
        assert_csr_bitwise(s.A_GG, A[G][:, G].tocsr())


def _csr_bytes(*matrices) -> int:
    return sum(a.nbytes for m in matrices
               for a in (m.data, m.indices, m.indptr))


def test_assembly_working_set_is_bounded():
    """The traced peak of global and subdomain assembly on a wide horizon
    (constant n=48, delta=6h, 4 x 4: 330 classes, 9 distinct subdomains
    and 7 twins) stays within a few times the bytes of the blocks they
    return; a twin, which only builds its key, within a fixed 2 MB.  No
    class x window grid of element ids or of float weights is formed,
    and no copy of the rows over all mesh dofs."""
    mesh = build_structured_mesh(48, 0.125)
    spec = KernelSpec("constant", 0.125)
    prob = manufactured_problem("constant")
    asm = Assembler(mesh, spec)
    asm._scatter_table  # the class matrices are not assembly's
    sub = build_subdivision(mesh, 4, 4, ball_norm=spec.ball_norm)
    table, seen, twins = {}, set(), 0
    tracemalloc.start()
    try:
        sysm = assemble_global(mesh, spec, prob.forcing, prob.exact,
                               assembler=asm)
        A, B = sysm.A, sysm.B_coupling  # assembled on this first read
        peak = tracemalloc.get_traced_memory()[1]
        assert peak <= 3 * _csr_bytes(A, B)
        del A, B
        sysm.moments  # the forcing's moments are not subdomain assembly's
        for k in range(sub.K):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            s = assemble_subdomain(sysm, sub, k, table=table)
            peak = tracemalloc.get_traced_memory()[1] - base
            if id(s.A_OO) in seen:
                twins += 1
                assert peak <= 2e6, k
            else:
                seen.add(id(s.A_OO))
                assert peak <= 6 * _csr_bytes(s.A_OO, s.A_OG, s.A_GG), k
    finally:
        tracemalloc.stop()
    assert twins == 7


def _classes_by_barycenter_reach(asm):
    """Every canonical class whose barycenters lie within the horizon
    plus the largest barycenter-to-vertex offset of both triangles, in
    the ball norm: a superset of the interacting classes that includes
    classes with an identically zero matrix."""
    linf = asm.spec.ball_norm == "linf"
    margin = 4.0 / 3.0 if linf else 2.0 * np.sqrt(5.0) / 3.0
    reach = asm.spec.delta * asm.mesh.n + margin + 1e-12
    rng = int(np.ceil(reach))
    bary = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
    out = []
    for dy in range(-rng, rng + 1):
        for dx in range(-rng, rng + 1):
            for t1 in range(2):
                for t2 in range(2):
                    db = np.array([dx, dy]) + bary[t2] - bary[t1]
                    dist = np.max(np.abs(db)) if linf else np.linalg.norm(db)
                    if dist > reach:
                        continue
                    if (dy, dx) > (0, 0) or ((dx, dy) == (0, 0) and t1 <= t2):
                        out.append((dx, dy, t1, t2))
    return out


class _AllClassesAssembler(Assembler):
    """Scatters every candidate class, the all-zero ones included: the
    reference for dropping them."""

    def classes(self):
        return _classes_by_barycenter_reach(self)


# (family, n, delta / h); at n = 25, delta = 7 / 25 = 0.28 and delta * n
# is 7.000000000000001 in floating point, above the integer horizon
ZERO_CLASS_CASES = [("constant", 4, 2), ("constant", 4, 4), ("constant", 4, 8),
                    ("fractional", 4, 2), ("fractional", 4, 4),
                    ("peridynamic", 4, 2), ("peridynamic", 4, 4),
                    ("constant", 25, 7)]


@pytest.mark.parametrize(
    "family, n, ratio", ZERO_CLASS_CASES,
    ids=[f"{f}-{r}" + (f"-n{n}" if n != 4 else "")
         for f, n, r in ZERO_CLASS_CASES])
def test_classes_drop_exactly_the_zero_classes(family, n, ratio):
    """The kept classes are exactly those whose computed matrix has a
    nonzero entry."""
    mesh = build_structured_mesh(n, ratio / n)
    asm = Assembler(mesh, make_spec(family, ratio / n))
    candidates = _classes_by_barycenter_reach(asm)
    nonzero = [key for key, (M, _, _) in
               zip(candidates, asm.class_matrices(candidates)) if np.any(M)]
    assert list(asm.classes()) == nonzero
    assert len(nonzero) < len(candidates)


@pytest.mark.parametrize("family", ["constant", "peridynamic"])
def test_dropping_zero_classes_leaves_matrices_bitwise(family):
    mesh = build_structured_mesh(8, 0.25)
    spec = make_spec(family, 0.25)
    prob = manufactured_problem(family)
    kept, full = Assembler(mesh, spec), _AllClassesAssembler(mesh, spec)
    assert len(kept.classes()) < len(full.classes())
    glob = [assemble_global(mesh, spec, prob.forcing, prob.exact,
                            assembler=asm) for asm in (kept, full)]
    for name in ("A", "B_coupling"):
        a, b = (getattr(g, name) for g in glob)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)
    sub = build_subdivision(mesh, 3, 3, ball_norm=spec.ball_norm)
    for k in range(sub.K):
        s1, s2 = (assemble_subdomain(g, sub, k) for g in glob)
        for name in ("A_OO", "A_OG", "A_GG"):
            a, b = getattr(s1, name), getattr(s2, name)
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.data, b.data)
        assert np.array_equal(s1.f, s2.f)


def _mesh_class(asm, key):
    """(M, lattice offsets) of a class by the pair rule on its two
    triangles in mesh coordinates at the anchor cell, with the mesh
    horizon: the class computation the reference lattice replaced."""
    dx, dy, t1, t2 = key
    N1 = asm.N + 1
    corner = np.array([max(0, -dx), max(0, -dy)])
    lat = np.concatenate([_TRI_T[t1], _TRI_T[t2] + (dx, dy)]) + corner
    ids = lat[:, 1] * N1 + lat[:, 0]
    M, rows = pair_matrix(asm.mesh.vertices[ids[:3]],
                          asm.mesh.vertices[ids[3:]], asm.spec, asm.quad)
    return M, lat[rows] - corner


@pytest.mark.parametrize("family, n, ratio", [
    ("constant", 16, 2), ("constant", 10, 3),
    ("fractional", 16, 2), ("fractional", 8, 4),
    ("peridynamic", 16, 2), ("peridynamic", 8, 4)])
def test_lattice_classes_match_mesh_coordinates(family, n, ratio):
    """Every class matrix of the reference-lattice memo equals the pair
    rule in mesh coordinates to 1e-13 of its largest entry, with equal
    patch node offsets.  At n = 10 the mesh coordinates round; the
    max-norm ball has no circle that rounding could move across a
    vertex (see the next test)."""
    delta = ratio / n
    asm = Assembler(build_structured_mesh(n, delta), make_spec(family, delta))
    for key, (M, lat, _) in zip(asm.classes(),
                                asm.class_matrices(asm.classes())):
        want, want_lat = _mesh_class(asm, key)
        assert np.array_equal(lat, want_lat), key
        assert np.abs(M - want).max() <= 1e-13 * np.abs(want).max(), key


@pytest.mark.parametrize("family", ["fractional", "peridynamic"])
def test_lattice_classes_are_exact_where_mesh_coordinates_round(family):
    """At h = 1/6 the mesh coordinates round, and where the horizon circle
    meets a lattice vertex exactly the mesh-coordinate rule flips a
    geometric branch: a few classes move by far more than rounding.  On
    the integer lattice that geometry is exact, and each such class is
    closer to the refined rule than the mesh-coordinate one."""
    delta = 4 / 6
    asm = Assembler(build_structured_mesh(6, delta), make_spec(family, delta))
    refined = refined_quadrature()
    moved = 0
    for key, (M, _, _) in zip(asm.classes(),
                              asm.class_matrices(asm.classes())):
        want, _ = _mesh_class(asm, key)
        scale = np.abs(want).max()
        if np.abs(M - want).max() <= 1e-13 * scale:
            continue
        moved += 1
        dx, dy, t1, t2 = key
        v = np.concatenate([_TRI_T[t1], _TRI_T[t2] + (dx, dy)]).astype(float)
        ref, _ = pair_matrix(v[:3], v[3:], asm.lattice_spec, refined)
        assert np.abs(M - ref).max() < 0.2 * np.abs(want - ref).max(), key
    assert 0 < moved <= 4


@pytest.mark.parametrize("study, family", [("strong_scaling", "fractional"),
                                           ("fixed_ratio", "constant")])
def test_study_computes_each_class_once(study, family, monkeypatch):
    """Every rung of a study at one delta / h reads the same memoized
    classes: the pair rule runs once per class in the whole study, by
    ``pair_matrix`` or as one pair of the constant kernel's batch."""
    real, real_batch, calls = (assembly.pair_matrix,
                               assembly.square_pair_matrices, [])

    def counting(*args):
        calls.append(args)
        return real(*args)

    def counting_batch(pairs, *args):
        calls.extend(pairs)
        return real_batch(pairs, *args)

    monkeypatch.setattr(assembly, "pair_matrix", counting)
    monkeypatch.setattr(assembly, "square_pair_matrices", counting_batch)
    assembly._CLASS_MEMOS.clear()
    config = ExperimentConfig(family=family, delta=0.125, n=16, study=study,
                              solver="feti" if study == "strong_scaling"
                              else "cg")
    rungs = study_rungs(config)
    records = run_study(config)
    assert len(records) == 3 and all(r.iterations >= 0 for r in records)
    assert len({r.n * r.delta for r in rungs}) == 1
    rung = rungs[-1]
    mesh = build_structured_mesh(rung.n, rung.delta)
    assert len(calls) == len(Assembler(mesh, rung.kernel_spec()).classes())


def _constant_classes(R: int) -> list[tuple[bytes, bytes]]:
    """(matrix bytes, offset bytes) of every constant class at the lattice
    horizon R, in ``interacting_classes`` order, all read in one call."""
    spec, quad = KernelSpec("constant", float(R)), QuadratureConfig()
    return [(M.tobytes(), lat.tobytes()) for M, lat in
            assembly._lattice_classes(spec, quad,
                                      interacting_classes(R, True))]


@pytest.mark.parametrize("R", [2, 5])
def test_constant_classes_do_not_depend_on_the_batch(R):
    """A constant class has the same bytes whichever batch filled the
    memo: all classes at once, each class alone, or all of them in
    reverse order."""
    spec, quad = KernelSpec("constant", float(R)), QuadratureConfig()
    keys = interacting_classes(R, True)
    assembly._CLASS_MEMOS.clear()
    together = _constant_classes(R)
    assembly._CLASS_MEMOS.clear()
    for key in keys:
        assembly._lattice_classes(spec, quad, [key])
    alone = _constant_classes(R)
    assembly._CLASS_MEMOS.clear()
    assembly._lattice_classes(spec, quad, keys[::-1])
    reverse = _constant_classes(R)
    assert together == alone == reverse


@pytest.mark.parametrize("R", range(1, 9))
def test_constant_classes_equal_the_per_point_oracle(R):
    """Every constant class at the lattice horizon R = 1..8 that does not
    coincide has the bytes of the per-point oracle, which clips the inner
    element one outer point at a time; the batch keeps each class's
    contraction to its own rows."""
    spec, quad = KernelSpec("constant", float(R)), QuadratureConfig()
    keys = [key for key in interacting_classes(R, True)
            if key[:3] != (0, 0, key[3])]
    for key, (M, _) in zip(keys, assembly._lattice_classes(spec, quad, keys)):
        dx, dy, t1, t2 = key
        v = np.concatenate([_TRI_T[t1], _TRI_T[t2] + (dx, dy)]).astype(float)
        want = square_pair_matrix(v[:3], v[3:], spec, quad)
        assert M.tobytes() == want.tobytes(), key


@pytest.mark.parametrize("first, then", [
    # same delta / h: the second system reads the first one's classes
    (("fractional", 8, 2, 0.4, False), ("fractional", 16, 2, 0.4, False)),
    (("peridynamic", 8, 2, None, False), ("peridynamic", 16, 2, None, False)),
    # a different key: delta / h, s or quadrature
    (("constant", 8, 2, None, False), ("constant", 8, 3, None, False)),
    (("fractional", 8, 2, 0.4, False), ("fractional", 8, 2, 0.6, False)),
    (("constant", 8, 2, None, False), ("constant", 8, 2, None, True)),
], ids=["fractional", "peridynamic", "ratio", "s", "quadrature"])
def test_class_memo_is_order_independent(first, then):
    """A system assembled after another one has the bytes of the same
    system assembled from an empty memo, whether or not the first one
    filled the memo with classes the second one reads."""

    def system(family, n, ratio, s, refined):
        mesh = build_structured_mesh(n, ratio / n)
        spec = KernelSpec(family, ratio / n, s)
        prob = manufactured_problem(family)
        quad = refined_quadrature() if refined else None
        sysm = assemble_global(mesh, spec, prob.forcing, prob.exact,
                               Assembler(mesh, spec, quad))
        sysm.rhs  # assembles A, B_coupling and the load, filling the memo
        return sysm

    assembly._CLASS_MEMOS.clear()
    fresh = system(*then)
    assembly._CLASS_MEMOS.clear()
    system(*first)
    after = system(*then)
    assert_csr_bitwise(after.A, fresh.A)
    assert_csr_bitwise(after.B_coupling, fresh.B_coupling)
    assert after.rhs.tobytes() == fresh.rhs.tobytes()


@pytest.mark.parametrize("family", ["constant", "peridynamic"])
def test_weighted_load_matches_per_subdomain_moments(family, cache):
    """Subdomain loads weighted from the element moments computed once
    equal, to 1e-14 relative, the moments recomputed per subdomain with
    the weight folded into the element areas."""
    mesh = cache.mesh(16, 0.125)
    asm = cache.assembler(family, 16, 0.125)
    prob = manufactured_problem(family)
    sub = build_subdivision(mesh, 3, 3, ball_norm=asm.spec.ball_norm)
    moments = asm.load_moments(prob.forcing)
    bary, wts = triangle_rule(_LOAD_DEGREE)
    tri = mesh.vertices[mesh.elements]
    fv = prob.forcing(np.einsum("qb,ebx->eqx", bary, tri).reshape(-1, 2))
    fv = np.asarray(fv, dtype=float).reshape(len(tri), len(wts), -1)
    c = asm.spec.components
    for k in range(sub.K):
        els, we = sub.element_weights(k)
        got = asm.assemble_load(moments, (els, we))
        w = np.zeros(mesh.n_elements)
        w[els] = we
        contrib = np.einsum("e,q,qa,eqc->eac", triangle_area(tri) * w, wts,
                            bary, fv)
        want = np.zeros(c * mesh.n_vertices)
        for i in range(c):
            np.add.at(want, c * mesh.elements + i, contrib[:, :, i])
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


_KNOBS = [f.name for f in dataclasses.fields(QuadratureConfig)]


def test_refined_rule_changes_every_knob():
    default, refined = QuadratureConfig(), refined_quadrature()
    assert [k for k in _KNOBS
            if getattr(refined, k) == getattr(default, k)] == []


def _moved(old: np.ndarray, new: np.ndarray) -> bool:
    """Whether ``new`` differs from ``old`` by more than rounding: by more
    than 1e-12 of the largest entry of ``old``."""
    return np.abs(new - old).max() > 1e-12 * np.abs(old).max()


@pytest.mark.parametrize("knob", _KNOBS)
def test_every_quadrature_knob_changes_a_result(knob):
    """Each field of QuadratureConfig, set alone to its refined value,
    changes a class matrix of the default path (constant at delta = 2h,
    fractional at delta = 4h) by more than 1e-12 of that matrix's largest
    entry: every knob is read by a rule of the default path, and it
    changes more than rounding."""
    quad = dataclasses.replace(QuadratureConfig(), **{
        knob: getattr(refined_quadrature(), knob)})
    pairs = []
    for family, delta in (("constant", 0.5), ("fractional", 1.0)):
        mesh, spec = build_structured_mesh(4, delta), make_spec(family, delta)
        pairs.append((Assembler(mesh, spec),
                      Assembler(mesh, spec, quad=quad)))
    assert any(_moved(a[0], b[0]) for old, new in pairs
               for a, b in zip(old.class_matrices(old.classes()),
                               new.class_matrices(old.classes())))


def test_constant_kernel_self_convergence():
    """Doubling every quadrature order must leave entries unchanged to
    1e-8 relative (the max-norm ball path is exact by construction)."""
    mesh = build_structured_mesh(8, 0.25)
    spec = KernelSpec("constant", 0.25)
    dofs = mesh.interior_nodes
    A1 = Assembler(mesh, spec).assemble()[0][0][dofs]
    A2 = Assembler(mesh, spec,
                   quad=refined_quadrature()).assemble()[0][0][dofs]
    rel = abs(A1 - A2).max() / abs(A2).max()
    assert rel < 1e-8


@pytest.mark.slow
def test_fractional_self_convergence():
    mesh = build_structured_mesh(8, 0.25)
    spec = KernelSpec("fractional", 0.25, 0.4)
    dofs = mesh.interior_nodes
    A1 = Assembler(mesh, spec).assemble()[0][0][dofs]
    A2 = Assembler(mesh, spec,
                   quad=refined_quadrature()).assemble()[0][0][dofs]
    rel = abs(A1 - A2).max() / abs(A2).max()
    assert rel < 1e-5


def test_load_vector_linear_forcing():
    mesh = build_structured_mesh(4, 0.25)
    spec = KernelSpec("constant", 0.25)
    asm = Assembler(mesh, spec)
    f = lambda p: 2.0 * p[:, 0] + p[:, 1] - 0.5
    load = asm.assemble_load(asm.load_moments(f))
    # oracle: hat-function moments by degree-3 quadrature per element
    bary, w = triangle_rule(3)
    oracle = np.zeros(mesh.n_vertices)
    for e in range(mesh.n_elements):
        v = mesh.vertices[mesh.elements[e]]
        pts, wts = map_to_physical(v, bary, w)
        oracle[mesh.elements[e]] += (wts[:, None] * bary * f(pts)[:, None]
                                     ).sum(axis=0)
    assert np.allclose(load, oracle, atol=1e-15)


@pytest.mark.parametrize("first", ["A", "B_coupling", "load", "rhs"])
@pytest.mark.parametrize("family", ["constant", "fractional", "peridynamic"])
def test_global_system_is_assembled_on_first_read(family, first,
                                                  assembler_calls):
    """``assemble_global`` returns before any scatter.  Whichever field is
    read first, the system then makes one whole-mesh scatter and one
    load, and A, B_coupling, load and rhs have the bytes of an eager
    reference built from ``Assembler.assemble`` and ``assemble_load``."""
    mesh = build_structured_mesh(8, 0.25)
    spec = make_spec(family, 0.25)
    prob = manufactured_problem(family)
    ref = Assembler(mesh, spec)
    nodes = [mesh.interior_nodes, mesh.collar_nodes]
    [[A, B]] = ref.assemble(rows=nodes[:1], columns=nodes)
    load = ref.assemble_load(ref.load_moments(prob.forcing))[
        _node_dofs(mesh.interior_nodes, spec.components)]
    g = prob.exact(mesh.vertices[mesh.collar_nodes]).reshape(-1)
    assembler_calls.update(assemble=[], load_moments=0)
    sysm = assemble_global(mesh, spec, prob.forcing, prob.exact,
                           assembler=Assembler(mesh, spec))
    assert assembler_calls == {"assemble": [], "load_moments": 0}
    assert sysm.g.tobytes() == g.tobytes()
    getattr(sysm, first)
    assert assembler_calls["assemble"] == ([] if first == "load" else [None])
    assert assembler_calls["load_moments"] == (first in ("load", "rhs"))
    assert_csr_bitwise(sysm.A, A)
    assert_csr_bitwise(sysm.B_coupling, B)
    assert sysm.load.tobytes() == load.tobytes()
    assert sysm.rhs.tobytes() == (load - B @ g).tobytes()
    assert assembler_calls == {"assemble": [None], "load_moments": 1}


def test_global_system_dirichlet_correction():
    mesh = build_structured_mesh(4, 0.25)
    spec = KernelSpec("constant", 0.25)
    exact = lambda p: p[:, 0] ** 2 * p[:, 1] + p[:, 1] ** 2
    f = lambda p: -2.0 * (1.0 + p[:, 1])
    sysm = assemble_global(mesh, spec, f, exact)
    # row sums of [A | B] vanish (constants in the unconstrained null space)
    rs = np.asarray(sysm.A.sum(axis=1)).ravel() + np.asarray(
        sysm.B_coupling.sum(axis=1)).ravel()
    assert np.abs(rs).max() <= 1e-10 * abs(sysm.A).max()
    assert sysm.rhs.shape == (len(mesh.interior_nodes),)


def test_interpolant_solves_discrete_system():
    """On the structured mesh with exact max-norm-ball quadrature, the
    nodal interpolant of the cubic manufactured solution satisfies the
    discrete system to machine precision: the Galerkin solution is the
    interpolant itself."""
    spec_delta = 0.25
    exact = lambda p: p[:, 0] ** 2 * p[:, 1] + p[:, 1] ** 2
    f = lambda p: -2.0 * (1.0 + p[:, 1])
    for n in (4, 8, 16):
        mesh = build_structured_mesh(n, spec_delta)
        spec = KernelSpec("constant", spec_delta)
        sysm = assemble_global(mesh, spec, f, exact)
        ui = exact(mesh.vertices[mesh.interior_nodes])
        res = sysm.A @ ui - sysm.rhs
        assert np.linalg.norm(res) / np.linalg.norm(sysm.rhs) < 1e-11
