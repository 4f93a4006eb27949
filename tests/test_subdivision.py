"""Tests for the overlapping subdomain construction."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings, strategies as st
from scipy.spatial import cKDTree

from nlfeti import geometry
from nlfeti.assembly import Assembler
from nlfeti.feti import build_feti_system
from nlfeti.mesh import INTERIOR, build_structured_mesh
from nlfeti.problems import manufactured_problem
from nlfeti.subdivision import (
    SubdivisionError,
    _reach,
    build_constraints,
    build_subdivision,
    dump_subdivision,
    extend_nonlocal,
    partition_rectangles,
    verify_coverage,
)

from conftest import (holds, interacting_pairs, make_spec, pair_counts,
                      pair_weights, rectangle_owner, strip_to_owned,
                      weight_grid)


# ---------------------------------------------------------------------------
# Loop oracles: the breadth-first extension and the per-node constraint
# build that the array set-up replaced, kept as references.


def element_adjacency_graph(mesh):
    """Edge-sharing adjacency, built from a shared-edge dictionary."""
    edge_owner = {}
    adj = {e: [] for e in range(mesh.n_elements)}
    for e, tri in enumerate(mesh.elements):
        for k in range(3):
            a, b = int(tri[k]), int(tri[(k + 1) % 3])
            key = (a, b) if a < b else (b, a)
            other = edge_owner.pop(key, None)
            if other is None:
                edge_owner[key] = e
            else:
                adj[e].append(other)
                adj[other].append(e)
    for e in adj:
        adj[e].sort()
    return adj


def bfs_extension(mesh, owner, delta, ball_norm):
    """Extended and collar element sets per subdomain: a breadth-first
    search over interior edge neighbors within r_ext of the owned
    barycenters, and the collar elements within r_col."""
    bary = mesh.barycenters
    adj = element_adjacency_graph(mesh)
    interior = mesh.element_region == INTERIOR
    reach = _reach(delta, ball_norm)
    r_ext = 0.5 * (reach + mesh.h) + mesh.h + 1e-12
    r_col = reach + mesh.h + 1e-12
    extended, collars = [], []
    collar_ids = np.flatnonzero(~interior)
    for k in range(int(owner.max()) + 1):
        own = np.flatnonzero(owner == k)
        tree = cKDTree(bary[own])
        member = np.zeros(mesh.n_elements, dtype=bool)
        member[own] = True
        frontier = list(own)
        while frontier:
            cand = sorted(
                {e2 for e in frontier for e2 in adj[e]
                 if not member[e2] and interior[e2]}
            )
            if not cand:
                break
            d, _ = tree.query(bary[cand])
            take = [e for e, dist in zip(cand, d) if dist <= r_ext]
            member[take] = True
            frontier = take
        extended.append(np.flatnonzero(member))
        dcol, _ = tree.query(bary[collar_ids])
        collars.append(collar_ids[dcol <= r_col])
    return extended, collars


def loop_constraints(sub, c):
    """B, B_D and offsets, one interface node at a time, each node's
    block factorized on its own."""
    sizes = np.array([len(g) for g in sub.interface_nodes])
    offsets = np.concatenate([[0], np.cumsum(c * sizes)])
    total = int(offsets[-1])
    pos = [dict(zip(g.tolist(), range(len(g)))) for g in sub.interface_nodes]
    node_subs = {}
    for k in range(sub.K):
        for node in sub.interface_nodes[k]:
            node_subs.setdefault(int(node), []).append(k)
    rows_b, cols_b, vals_b = [], [], []
    rows_d, cols_d, vals_d = [], [], []
    row = 0
    for node in sorted(node_subs):
        ks = node_subs[node]
        m = len(ks)
        zinv = 1.0 / float(m)
        dofs = [offsets[k] + c * pos[k][node] for k in ks]
        for comp in range(c):
            for j in range(1, m):
                r = row + j - 1
                rows_b += [r, r]
                cols_b += [dofs[0] + comp, dofs[j] + comp]
                vals_b += [1.0, -1.0]
            Bn = np.zeros((m - 1, m))
            Bn[:, 0] = 1.0
            Bn[np.arange(m - 1), np.arange(1, m)] = -1.0
            BD = np.linalg.solve(zinv * (Bn @ Bn.T), zinv * Bn)
            for a in range(m - 1):
                for j in range(m):
                    rows_d.append(row + a)
                    cols_d.append(dofs[j] + comp)
                    vals_d.append(BD[a, j])
            row += m - 1
    B = sp.csr_matrix((vals_b, (rows_b, cols_b)), shape=(row, total))
    B_D = sp.csr_matrix((vals_d, (rows_d, cols_d)), shape=(row, total))
    return B, B_D, offsets


def _assert_same_bytes(got, want):
    """Same shape, dtypes and bytes; for CSR matrices, of all three arrays."""
    if sp.issparse(want):
        assert got.format == want.format == "csr"
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            _assert_same_bytes(getattr(got, name), getattr(want, name))
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_adjacency_edge_sharing():
    mesh = build_structured_mesh(2, 0.5)
    adj = element_adjacency_graph(mesh)
    # symmetric, and every triangle has 1..3 neighbors
    for e, nbrs in adj.items():
        assert 1 <= len(nbrs) <= 3
        for o in nbrs:
            assert e in adj[o]
    # total adjacency edges = number of interior mesh edges
    n_edges = sum(len(v) for v in adj.values()) // 2
    # 4x4 cells: vertical/horizontal interior edges + all diagonals
    assert n_edges == 2 * 4 * 3 + 16


def test_corner_collar_triangle_has_two_neighbors():
    mesh = build_structured_mesh(2, 0.5)
    corner = np.argmin(mesh.barycenters.sum(axis=1))
    adj = element_adjacency_graph(mesh)
    assert len(adj[int(corner)]) == 2


@settings(deadline=None, max_examples=25)
@given(n=st.integers(4, 20), ratio=st.integers(1, 5), k1=st.integers(1, 4),
       k2=st.integers(1, 4), ball_norm=st.sampled_from(["l2", "linf"]))
@example(n=16, ratio=2, k1=3, k2=4, ball_norm="l2")  # two membership bytes
@example(n=8, ratio=5, k1=4, k2=4, ball_norm="linf")  # multiplicity 16
@example(n=6, ratio=1, k1=1, k2=1, ball_norm="l2")  # no interface
# one-cell rectangles, 32 membership bytes, windows clipped at the edge
@example(n=16, ratio=2, k1=16, k2=16, ball_norm="linf")
@example(n=32, ratio=4, k1=16, k2=16, ball_norm="l2")
def test_array_setup_matches_loop_oracles(n, ratio, k1, k2, ball_norm):
    """Every extended and collar set, and B, B_D and the offsets for
    scalar and vector dofs, equal the loop oracles byte for byte."""
    mesh = build_structured_mesh(n, ratio / n)
    rects = partition_rectangles(mesh, k1, k2)
    sub = extend_nonlocal(mesh, rects, ball_norm=ball_norm)
    extended, collars = bfs_extension(mesh, rectangle_owner(mesh, rects),
                                      mesh.delta, ball_norm)
    assert sub.K == len(extended) == k1 * k2
    interior = mesh.element_region == INTERIOR
    for k in range(sub.K):
        _assert_same_bytes(np.flatnonzero(holds(sub, k) & interior),
                           extended[k])
        _assert_same_bytes(np.flatnonzero(holds(sub, k) & ~interior),
                           collars[k])
    for c in (1, 2):
        cons = build_constraints(sub, dof_multiplicity=c)
        B, B_D, offsets = loop_constraints(sub, c)
        _assert_same_bytes(cons.B, B)
        _assert_same_bytes(cons.B_D, B_D)
        _assert_same_bytes(cons.offsets, offsets)


# ---------------------------------------------------------------------------


def _unknown_nodes(sub, k):
    """The unconstrained nodes subdomain k sees."""
    return np.union1d(sub.inner_nodes[k], sub.interface_nodes[k])


def _held(sub):
    """Brute-force membership: the element set of every subdomain."""
    return [set(np.flatnonzero(holds(sub, k)).tolist()) for k in range(sub.K)]


def test_partition_counts_even_split():
    """8x8 interior cells past a two-cell collar split into four 4x4
    quadrants, x fastest; they cover exactly the interior elements."""
    mesh = build_structured_mesh(8, 0.25)
    rects = partition_rectangles(mesh, 2, 2)
    assert rects.tolist() == [[2, 6, 2, 6], [6, 10, 2, 6],
                              [2, 6, 6, 10], [6, 10, 6, 10]]
    owner = rectangle_owner(mesh, rects)
    assert np.array_equal(owner >= 0, mesh.element_region == INTERIOR)


def test_partition_rejects_bad_arguments():
    mesh = build_structured_mesh(4, 0.25)
    with pytest.raises(ValueError):
        partition_rectangles(mesh, 0, 2)
    with pytest.raises(ValueError):
        partition_rectangles(mesh, 40, 40)


def test_partition_rejects_more_rectangles_than_cells():
    """k > n would leave a rectangle empty; every k <= n fills each one."""
    mesh = build_structured_mesh(4, 0.25)
    with pytest.raises(ValueError, match="k1=5 exceeds n=4"):
        partition_rectangles(mesh, 5, 1)
    with pytest.raises(ValueError, match="k2=5 exceeds n=4"):
        partition_rectangles(mesh, 1, 5)
    for n in range(1, 13):
        mesh = build_structured_mesh(n, 1.0 / n)
        for k in range(1, n + 1):
            for k1, k2 in ((k, 1), (1, k)):
                x0, x1, y0, y1 = partition_rectangles(mesh, k1, k2).T
                assert len(x0) == k and (x1 > x0).all() and (y1 > y0).all()


@pytest.mark.parametrize("n,ratio", [(8, 2), (8, 4), (16, 2), (16, 4)])
@pytest.mark.parametrize("k1,k2", [(1, 1), (2, 1), (2, 2), (3, 3)])
@pytest.mark.parametrize("ball_norm", ["l2", "linf"])
def test_coverage_property(n, ratio, k1, k2, ball_norm):
    """Every interacting element pair shares a subdomain, and the node
    bookkeeping partitions correctly."""
    delta = ratio / n
    mesh = build_structured_mesh(n, delta)
    sub = build_subdivision(mesh, k1, k2, ball_norm=ball_norm)
    # build_subdivision already ran verify_coverage; run it once more explicitly
    verify_coverage(mesh, sub, ball_norm=ball_norm)

    K = k1 * k2
    assert sub.K == K
    # Owned sets partition the interior elements, and each is held.
    interior_els = np.flatnonzero(mesh.element_region == INTERIOR)
    owner = rectangle_owner(mesh, partition_rectangles(mesh, k1, k2))
    assert np.array_equal(np.flatnonzero(owner >= 0), interior_els)
    for k in range(K):
        assert holds(sub, k)[owner == k].all()
    # Unknown nodes of each subdomain split into inner + interface.
    for k in range(K):
        unk = set(_unknown_nodes(sub, k).tolist())
        inner = set(sub.inner_nodes[k].tolist())
        iface = set(sub.interface_nodes[k].tolist())
        assert inner | iface == unk and not (inner & iface)
    # Union of unknown nodes covers every interior node.
    union = set()
    for k in range(K):
        union |= set(_unknown_nodes(sub, k).tolist())
    assert union == set(mesh.interior_nodes.tolist())
    # Node multiplicities count the subdomains with an element at the node.
    zeta = np.zeros(mesh.n_vertices, dtype=np.int64)
    for els in _held(sub):
        zeta[np.unique(mesh.elements[sorted(els)])] += 1
    for k in range(K):
        assert np.all(zeta[sub.inner_nodes[k]] == 1)
        assert np.all(zeta[sub.interface_nodes[k]] >= 2)
    copies, counts = np.unique(np.concatenate(sub.interface_nodes),
                               return_counts=True)
    assert np.array_equal(counts, zeta[copies])


def _class_of(mesh, e1, e2):
    """Canonical class key (dx, dy, t1, t2) of each pair of distinct
    elements, one row per pair: the offset from the cell of e1 to the
    cell of e2, with the pair swapped when that points down or left."""
    N = mesh.cells_per_side
    cy1, cx1 = np.divmod(e1 // 2, N)
    cy2, cx2 = np.divmod(e2 // 2, N)
    dx, dy, t1, t2 = cx2 - cx1, cy2 - cy1, e1 % 2, e2 % 2
    flip = (dy < 0) | ((dy == 0) & ((dx < 0) | ((dx == 0) & (t1 > t2))))
    return np.column_stack([np.where(flip, -dx, dx), np.where(flip, -dy, dy),
                            np.where(flip, t2, t1), np.where(flip, t1, t2)])


def _checked_pairs(mesh, ball_norm):
    """(pairs, keys): every pair of distinct elements the coverage check
    takes, as rows, and the class it takes the pair under."""
    parts = [(np.column_stack([e1, e2]), np.tile(key, (len(e1), 1)))
             for key, e1, e2 in interacting_pairs(mesh, ball_norm == "linf")]
    return (np.concatenate([p for p, _ in parts]),
            np.concatenate([k for _, k in parts]))


@pytest.mark.parametrize("n,ratio", [(4, 1), (5, 3), (8, 2), (6, 4)])
@pytest.mark.parametrize("ball_norm", ["l2", "linf"])
def test_coverage_checks_exactly_the_class_pairs(n, ratio, ball_norm):
    """Over all element pairs of the mesh, the pairs checked for coverage
    are exactly the pairs of distinct elements, at least one interior,
    whose class the assembler forms; each is checked once, under its own
    class."""
    mesh = build_structured_mesh(n, ratio / n)
    spec = make_spec("constant" if ball_norm == "linf" else "fractional",
                     ratio / n)
    assert spec.ball_norm == ball_norm
    formed = set(Assembler(mesh, spec).classes())
    e1, e2 = np.triu_indices(mesh.n_elements, 1)
    interior = mesh.element_region == INTERIOR
    keep = np.array([tuple(k) in formed
                     for k in _class_of(mesh, e1, e2).tolist()])
    keep &= interior[e1] | interior[e2]
    pairs, keys = _checked_pairs(mesh, ball_norm)
    assert np.array_equal(_class_of(mesh, pairs[:, 0], pairs[:, 1]), keys)
    got = np.sort(pairs, axis=1)
    assert len(got) == np.count_nonzero(keep)
    assert (set(map(tuple, got.tolist()))
            == set(zip(e1[keep].tolist(), e2[keep].tolist())))


def test_coverage_rejects_a_pair_beyond_the_barycenter_bound():
    """At delta = 9h the Euclidean class (9, 5, 1, 0) interacts (its
    nearest vertices lie sqrt(80) < 9 cells apart) although its
    barycenters lie farther apart than reach + h.  A two-subdomain table
    that separates only its pair (505, 792), one interior and one collar
    element, is rejected, and the pair's weights sum to 0."""
    mesh = build_structured_mesh(9, 1.0)
    sub = build_subdivision(mesh, 2, 1, ball_norm="l2")
    held = np.ones((mesh.n_elements, 2), dtype=bool)
    held[792, 0] = held[505, 1] = False
    sub.membership = np.packbits(held, axis=1, bitorder="little")
    with pytest.raises(SubdivisionError,
                       match=r"pair \(505, 792\) of class \(9, 5, 1, 0\)"):
        verify_coverage(mesh, sub, ball_norm="l2")
    pair = np.array([505]), np.array([792])
    assert sum(pair_weights(sub, k)(*pair)[0] for k in range(sub.K)) == 0.0


def test_coverage_rejects_a_table_built_for_the_other_ball():
    """The max-norm ball of the constant kernel reaches past the
    Euclidean one, so a subdivision extended for the Euclidean ball
    leaves pairs of the constant kernel's classes uncovered."""
    mesh = build_structured_mesh(16, 0.25)
    sub = build_subdivision(mesh, 4, 4, ball_norm="l2")
    with pytest.raises(SubdivisionError, match="covered by no subdomain"):
        verify_coverage(mesh, sub, ball_norm="linf")


@settings(deadline=None, max_examples=25)
@given(n=st.integers(5, 13), ratio=st.integers(1, 9), k1=st.integers(2, 4),
       k2=st.integers(2, 4), ball_norm=st.sampled_from(["l2", "linf"]))
@example(n=10, ratio=9, k1=3, k2=4, ball_norm="l2")  # class (9, 5, 1, 0)
def test_checked_pairs_split_into_unit_weights(n, ratio, k1, k2, ball_norm):
    """For subdomain grids that do not divide the mesh, the subdivision
    builds, and every pair the subdomain forms weight (each interior
    element with itself and every checked pair of every class) has
    weights summing to 1 over the subdomains."""
    assume(k1 != k2 and n % k1 and n % k2)
    mesh = build_structured_mesh(n, ratio / n)
    sub = build_subdivision(mesh, k1, k2, ball_norm=ball_norm)
    interior = np.flatnonzero(mesh.element_region == INTERIOR)
    pairs = np.concatenate([np.column_stack([interior, interior]),
                            _checked_pairs(mesh, ball_norm)[0]])
    total = sum(pair_weights(sub, k)(pairs[:, 0], pairs[:, 1])
                for k in range(sub.K))
    assert np.abs(total - 1.0).max() <= 1e-15


def test_coverage_detects_missing_pair():
    mesh = build_structured_mesh(8, 0.25)
    sub = build_subdivision(mesh, 2, 2, ball_norm="l2")
    strip_to_owned(sub, 2, 2)
    with pytest.raises(SubdivisionError, match="covered by no subdomain"):
        verify_coverage(mesh, sub, ball_norm="l2")


def test_coverage_names_an_element_no_subdomain_holds():
    """An interior element of either type that no subdomain holds is
    named by its element id, ahead of the pairs it leaves uncovered."""
    mesh = build_structured_mesh(8, 0.25)
    for e in (2 * (9 * 12 + 5), 2 * (9 * 12 + 5) + 1):  # cell (5, 9)
        sub = build_subdivision(mesh, 2, 2, ball_norm="l2")
        assert mesh.element_region[e] == INTERIOR
        sub.membership[e] = 0
        with pytest.raises(SubdivisionError,
                           match=rf"^element {e} belongs to no subdomain$"):
            verify_coverage(mesh, sub, ball_norm="l2")


def _first_violation(mesh, held, ball_norm):
    """The message of the first uncovered pair by the element-id oracle:
    interior elements of type 0, then of type 1, that no subdomain
    holds, then the pairs of ``interacting_pairs`` in its order."""
    bad = np.flatnonzero((mesh.element_region == INTERIOR)
                         & ~held.any(axis=1))
    if len(bad):
        return (f"element {bad[np.argsort(bad % 2, kind='stable')][0]} "
                f"belongs to no subdomain")
    for key, e1, e2 in interacting_pairs(mesh, ball_norm == "linf"):
        bad = np.flatnonzero(~(held[e1] & held[e2]).any(axis=1))
        if len(bad):
            return (f"interacting element pair ({e1[bad[0]]}, {e2[bad[0]]}) "
                    f"of class {key} is covered by no subdomain")
    return None


@settings(deadline=None, max_examples=40)
@given(n=st.integers(2, 9), ratio=st.integers(1, 3), K=st.integers(1, 12),
       p=st.sampled_from([0.3, 0.7, 0.95]), each=st.booleans(),
       seed=st.integers(0, 2**32 - 1),
       ball_norm=st.sampled_from(["l2", "linf"]))
def test_coverage_names_the_oracles_first_violation(n, ratio, K, p, each,
                                                    seed, ball_norm):
    """On random membership tables, with or without every element held
    somewhere, the check passes exactly when the element-id oracle finds
    every pair covered, and otherwise names the oracle's first
    violation."""
    mesh = build_structured_mesh(n, ratio / n)
    sub = build_subdivision(mesh, 1, 1, ball_norm=ball_norm)
    rng = np.random.default_rng(seed)
    held = rng.random((mesh.n_elements, K)) < p
    if each:
        held[np.arange(mesh.n_elements),
             rng.integers(K, size=mesh.n_elements)] = True
    sub.membership = np.packbits(held, axis=1, bitorder="little")
    want = _first_violation(mesh, held, ball_norm)
    if want is None:
        verify_coverage(mesh, sub, ball_norm=ball_norm)
    else:
        with pytest.raises(SubdivisionError) as err:
            verify_coverage(mesh, sub, ball_norm=ball_norm)
        assert str(err.value) == want


def _window(sub, k):
    """Half-open cell rectangle bounding the elements subdomain k holds."""
    cy, cx = np.divmod(np.flatnonzero(holds(sub, k)) // 2,
                       sub.mesh.cells_per_side)
    return cx.min(), cx.max() + 1, cy.min(), cy.max() + 1


def test_counting_function_matches_bruteforce():
    """Pair counts and element weights read off the packed table equal
    brute-force set counting, also when a row spans two bytes (K = 12):
    every pair of the count grid of a subdomain's window and of the whole
    mesh, with every node kept (no pair left out) and with the
    subdomain's kept nodes."""
    for n, delta, k1, k2 in [(8, 0.25, 2, 2), (16, 0.125, 3, 4)]:
        mesh = build_structured_mesh(n, delta)
        sub = build_subdivision(mesh, k1, k2, ball_norm="l2")
        classes = Assembler(mesh, make_spec("fractional", delta)).classes()
        dx, dy, t1, t2 = np.array(classes).T[:, :, None, None]
        N = mesh.cells_per_side
        held = [np.array(sorted(h)) for h in _held(sub)]
        assert sub.membership.shape == (mesh.n_elements, -(-sub.K // 8))
        for k in range(sub.K):
            kept = np.concatenate([sub.inner_nodes[k],
                                   sub.interface_nodes[k]])
            for cells in (_window(sub, k), (0, N, 0, N)):
                x0, x1, y0, y1 = cells
                cy, cx = np.mgrid[y0:y1, x0:x1]
                inside = ((cy + dy < y1) & (x0 <= cx + dx) & (cx + dx < x1)
                          & (cy + dy >= y0))
                e1 = 2 * (cy * N + cx) + t1
                e2 = np.where(inside, 2 * ((cy + dy) * N + cx + dx) + t2, 0)
                both = [np.isin(e1, h) & np.isin(e2, h) & inside
                        for h in held]
                expect = np.where(both[k], sum(both), 0)
                # every element has a vertex among all nodes
                got = sub.pair_counts(k, classes, cells,
                                      np.arange(mesh.n_vertices))
                assert got.dtype == np.uint8
                assert np.array_equal(got, expect)
                near = (np.isin(mesh.elements[e1], kept).any(axis=-1)
                        | np.isin(mesh.elements[e2], kept).any(axis=-1))
                assert np.array_equal(
                    sub.pair_counts(k, classes, cells, kept),
                    np.where(near, expect, 0))
            els, w = sub.element_weights(k)
            assert np.array_equal(els, np.flatnonzero(
                holds(sub, k) & (mesh.element_region == INTERIOR)))
            assert np.array_equal(
                w, [1.0 / sum(e in h for h in held) for e in els.tolist()])


@pytest.mark.parametrize("family,n,ratio,k1,k2", [
    ("constant", 32, 8, 4, 4), ("peridynamic", 16, 2, 3, 4),
    ("fractional", 24, 3, 5, 2)])
def test_pair_counts_equal_the_pairwise_grid(family, n, ratio, k1, k2,
                                             monkeypatch):
    """The count grid read off cell planes equals, byte for byte and in
    type, the grid of the pair-by-pair counts over the element ids of
    every anchored pair, with the kept-vertex condition of subdomain
    assembly, in chunks of many classes or of one."""
    mesh = build_structured_mesh(n, ratio / n)
    spec = make_spec(family, ratio / n)
    asm = Assembler(mesh, spec)
    sub = build_subdivision(mesh, k1, k2, ball_norm=spec.ball_norm)
    for chunk in (geometry._CHUNK_ENTRIES, 1):
        monkeypatch.setattr(geometry, "_CHUNK_ENTRIES", chunk)
        for k in range(sub.K):
            kept = np.concatenate([sub.inner_nodes[k],
                                   sub.interface_nodes[k]])
            cells = _window(sub, k)
            got = sub.pair_counts(k, asm.classes(), cells, kept)
            want = weight_grid(asm, pair_counts(sub, k, kept), cells)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


# (n, delta n, k1, k2, ball norm)
EXTENSIONS = [(64, 8, 4, 4, "linf"), (32, 2, 3, 3, "l2"), (64, 2, 4, 4, "l2"),
              (24, 3, 5, 2, "l2"), (30, 4, 7, 3, "linf"), (17, 1, 4, 3, "l2"),
              (40, 5, 3, 5, "linf"), (64, 2, 1, 1, "l2"), (48, 3, 6, 6, "l2"),
              (16, 2, 16, 16, "linf"), (32, 4, 16, 16, "l2")]


@pytest.mark.parametrize("n,ratio,k1,k2,ball_norm", EXTENSIONS)
def test_extension_equals_the_kdtree_query(n, ratio, k1, k2, ball_norm):
    """Distances read off the owned rectangles, in a window around each,
    give, byte for byte, the membership of a nearest-owned-barycenter
    query of every element against a KD-tree of each subdomain's owned
    barycenters."""
    mesh = build_structured_mesh(n, ratio / n)
    rects = partition_rectangles(mesh, k1, k2)
    sub = extend_nonlocal(mesh, rects, ball_norm=ball_norm)
    owner = rectangle_owner(mesh, rects)
    bary = mesh.barycenters
    reach = _reach(mesh.delta, ball_norm)
    radius = np.where(mesh.element_region == INTERIOR,
                      0.5 * (reach + mesh.h) + mesh.h + 1e-12,
                      reach + mesh.h + 1e-12)
    held = np.zeros((mesh.n_elements, sub.K), dtype=bool)
    for k in range(sub.K):
        d, _ = cKDTree(bary[owner == k]).query(
            bary, distance_upper_bound=2.0 * radius.max())
        held[:, k] = d <= radius
    want = np.packbits(held, axis=1, bitorder="little")
    assert sub.membership.tobytes() == want.tobytes()


@pytest.mark.parametrize("n,ratio,k1,k2,ball_norm", EXTENSIONS)
def test_window_reads_equal_the_whole_mesh_scans(n, ratio, k1, k2,
                                                  ball_norm):
    """The cell bounding box and the element weights of each subdomain,
    read over its window, equal byte for byte what a scan of the whole
    membership column gives; no element outside the window is held."""
    mesh = build_structured_mesh(n, ratio / n)
    sub = build_subdivision(mesh, k1, k2, ball_norm=ball_norm)
    assert sub.windows.shape == (sub.K, 4)
    interior = mesh.element_region == INTERIOR
    for k in range(sub.K):
        x0, x1, y0, y1 = sub.windows[k]
        cy, cx = np.divmod(np.flatnonzero(holds(sub, k)) // 2,
                           mesh.cells_per_side)
        assert x0 <= cx.min() and cx.max() < x1
        assert y0 <= cy.min() and cy.max() < y1
        assert sub.cells(k) == _window(sub, k)
        els, w = sub.element_weights(k)
        want = np.flatnonzero(holds(sub, k) & interior)
        _assert_same_bytes(els, want)
        _assert_same_bytes(w, 1.0 / np.bitwise_count(
            sub.membership[want]).sum(axis=1))


def test_subdivision_working_set_is_bounded():
    """The traced peak of a 16 x 16 subdivision at n=128, delta=4h (256
    subdomains over 51 200 elements) stays below 12 MB: each subdomain is
    measured on its own window of cells, and no element x subdomain table
    of bools (13 MB here) is formed."""
    mesh = build_structured_mesh(128, 4 / 128)
    tracemalloc.start()
    try:
        build_subdivision(mesh, 16, 16, ball_norm="l2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6, peak


def test_extend_nonlocal_counts_its_subdomains():
    mesh = build_structured_mesh(16, 0.125)
    sub = extend_nonlocal(mesh, partition_rectangles(mesh, 3, 2),
                          ball_norm="l2")
    assert sub.K == 6
    assert len(sub.interface_nodes) == len(sub.floating) == 6


def test_cross_point_multiplicity():
    """With four quadrants whose overlaps meet in the middle, the center
    node is shared by all four subdomains."""
    mesh = build_structured_mesh(8, 0.25)
    sub = build_subdivision(mesh, 2, 2, ball_norm="l2")
    center = None
    for i, xy in enumerate(mesh.vertices):
        if np.allclose(xy, [0.5, 0.5]):
            center = i
            break
    assert center is not None
    assert sum(center in nodes for nodes in sub.interface_nodes) == 4


def test_floating_detection():
    # 3x3 on n=16, delta/h = 2: only the center subdomain misses the collar.
    mesh = build_structured_mesh(16, 0.125)
    sub = build_subdivision(mesh, 3, 3, ball_norm="l2")
    assert list(sub.floating) == [False] * 4 + [True] + [False] * 4
    for k in range(9):
        assert (len(sub.constrained_nodes[k]) == 0) == sub.floating[k]
    # 1x1 never floats.
    sub1 = build_subdivision(mesh, 1, 1, ball_norm="l2")
    assert list(sub1.floating) == [False]


@pytest.mark.parametrize("c", [1, 2])
def test_constraints_annihilate_consistent_vectors(c):
    mesh = build_structured_mesh(16, 0.125)
    sub = build_subdivision(mesh, 2, 2, ball_norm="l2")
    cons = build_constraints(sub, dof_multiplicity=c)
    rng = np.random.default_rng(1)
    # A globally consistent interface vector (same physical value in every
    # subdomain copy) lies in the null space of B.
    glob = rng.standard_normal(c * mesh.n_vertices)
    parts = []
    for k in range(sub.K):
        g = sub.interface_nodes[k]
        idx = (c * g[:, None] + np.arange(c)[None, :]).ravel()
        parts.append(glob[idx])
    v = np.concatenate(parts)
    assert cons.B.shape[1] == len(v)
    assert np.max(np.abs(cons.B @ v)) == 0.0
    # Expected row count: (multiplicity - 1) * c per shared node.
    _, zeta = np.unique(np.concatenate(sub.interface_nodes),
                        return_counts=True)
    assert cons.B.shape[0] == c * int(np.sum(zeta - 1))


@pytest.mark.parametrize("c", [1, 2])
def test_scaled_constraints_are_left_inverse(c):
    mesh = build_structured_mesh(16, 0.125)
    sub = build_subdivision(mesh, 2, 2, ball_norm="l2")
    cons = build_constraints(sub, dof_multiplicity=c)
    M = (cons.B_D @ cons.B.T).toarray()
    assert np.max(np.abs(M - np.eye(M.shape[0]))) < 1e-12
    # B_D is exactly (B D^-1 B^T)^-1 B D^-1, D the multiplicity of each
    # interface dof.
    _, copy, zeta = np.unique(np.concatenate(sub.interface_nodes),
                              return_inverse=True, return_counts=True)
    BDinv = cons.B @ sp.diags(1.0 / np.repeat(zeta[copy].astype(float), c))
    blk = (BDinv @ cons.B.T).toarray()
    expect = np.linalg.solve(blk, BDinv.toarray())
    assert np.max(np.abs(cons.B_D.toarray() - expect)) < 1e-10


@pytest.mark.parametrize("c", [1, 2])
def test_rigid_modes_orthonormal_blocks(c, cache):
    family = "constant" if c == 1 else "peridynamic"
    mesh = cache.mesh(16, 0.125)
    spec = make_spec(family, 0.125)
    sub = build_subdivision(mesh, 3, 3, ball_norm=spec.ball_norm)
    prob = manufactured_problem(family)
    asm = cache.assembler(family, 16, 0.125)
    system = build_feti_system(mesh, sub, spec, asm.load_moments(prob.forcing),
                               prob.exact, assembler=asm)
    cons = system.constraints
    expected = [(1 if c == 1 else 3) if f else 0 for f in sub.floating]
    assert [s.modes.shape[1] for s in system.subsystems] == expected
    for s in system.subsystems:
        Q = s.modes.T @ s.modes
        assert np.all(np.abs(Q - np.eye(len(Q))) < 1e-12)
    # Each column of G is supported on the multipliers of one floating
    # subdomain's interface dofs, in subdomain order; the columns per
    # subdomain are its mode count.
    G = system.G.toarray()
    assert G.shape[1] == sum(expected)
    B = cons.B.tocsc()
    for col, k in enumerate(np.repeat(np.arange(sub.K), expected)):
        rows = np.flatnonzero(
            abs(B[:, cons.offsets[k]:cons.offsets[k + 1]]).sum(axis=1))
        support = np.flatnonzero(G[:, col])
        assert support.size and np.isin(support, rows).all()
    if c == 2:
        # The floating block spans translations and the rotation.
        s = system.subsystems[int(np.flatnonzero(sub.floating)[0])]
        xy = mesh.vertices[np.concatenate([s.inner_nodes, s.interface_nodes])]
        ctr = xy.mean(axis=0)
        modes = np.zeros((2 * len(xy), 3))
        modes[0::2, 0] = 1.0
        modes[1::2, 1] = 1.0
        modes[0::2, 2] = -(xy[:, 1] - ctr[1])
        modes[1::2, 2] = xy[:, 0] - ctr[0]
        # Same span: projecting the analytic modes onto the block loses nothing.
        proj = s.modes @ (s.modes.T @ modes)
        assert np.max(np.abs(proj - modes)) < 1e-10


def test_construction_is_deterministic():
    mesh = build_structured_mesh(16, 0.125)
    a = build_subdivision(mesh, 3, 3, ball_norm="l2")
    b = build_subdivision(mesh, 3, 3, ball_norm="l2")
    for k in range(a.K):
        assert np.array_equal(a.interface_nodes[k], b.interface_nodes[k])
    assert np.array_equal(a.membership, b.membership)
    assert dump_subdivision(a) == dump_subdivision(b)


def test_dump_subdivision_format():
    mesh = build_structured_mesh(8, 0.25)
    sub = build_subdivision(mesh, 2, 2, ball_norm="l2")
    text = dump_subdivision(sub)
    lines = text.strip().split("\n")
    assert lines[0] == "element,x,y,zeta,subdomains"
    assert len(lines) == mesh.n_elements + 1
    # Spot-check one owned element against the membership matrix.
    owner = rectangle_owner(mesh, partition_rectangles(mesh, 2, 2))
    e = int(np.flatnonzero(owner == 3)[0])
    fields = lines[e + 1].split(",")
    assert int(fields[0]) == e
    ks = [int(s) for s in fields[4].split(";")]
    assert 3 in ks and int(fields[3]) == len(ks)
