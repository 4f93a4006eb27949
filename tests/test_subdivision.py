"""Tests for the overlapping subdomain construction."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.spatial import cKDTree

from nlfeti.mesh import INTERIOR, build_structured_mesh
from nlfeti.subdivision import (
    SubdivisionError,
    _interacting_pairs,
    _reach,
    build_constraints,
    build_subdivision,
    dump_subdivision,
    extend_nonlocal,
    partition_rectangles,
    verify_coverage,
)

from conftest import strip_to_owned


def _held(sub):
    """Brute-force membership: the element set of every subdomain."""
    return [set(np.concatenate([sub.extended_elements[k],
                                sub.collar_elements[k]]).tolist())
            for k in range(sub.K)]


def test_partition_counts_even_split():
    mesh = build_structured_mesh(8, 0.25)
    owner = partition_rectangles(mesh, 2, 2)
    interior = mesh.element_region == INTERIOR
    assert np.all(owner[~interior] == -1)
    assert np.all(owner[interior] >= 0)
    counts = np.bincount(owner[interior], minlength=4)
    # 8x8 interior cells, 2 triangles each, split into four 4x4 quadrants
    assert list(counts) == [32, 32, 32, 32]


def test_partition_rejects_bad_arguments():
    mesh = build_structured_mesh(4, 0.25)
    with pytest.raises(ValueError):
        partition_rectangles(mesh, 0, 2)
    with pytest.raises(ValueError):
        partition_rectangles(mesh, 40, 40)


@pytest.mark.parametrize("n,ratio", [(8, 2), (8, 4), (16, 2), (16, 4)])
@pytest.mark.parametrize("k1,k2", [(1, 1), (2, 1), (2, 2), (3, 3)])
@pytest.mark.parametrize("ball_norm", ["l2", "linf"])
def test_coverage_property(n, ratio, k1, k2, ball_norm):
    """Every interacting element pair shares a subdomain, and the node
    bookkeeping partitions correctly."""
    delta = ratio / n
    mesh = build_structured_mesh(n, delta)
    sub = build_subdivision(mesh, k1, k2, delta, ball_norm=ball_norm)
    # check=True already ran verify_coverage; run it once more explicitly
    verify_coverage(mesh, sub, delta, ball_norm)

    K = k1 * k2
    assert sub.K == K
    # Owned sets partition the interior elements.
    interior_els = np.flatnonzero(mesh.element_region == INTERIOR)
    owned_all = np.concatenate(sub.owned_elements)
    assert len(owned_all) == len(np.unique(owned_all)) == len(interior_els)
    # Unknown nodes of each subdomain split into inner + interface.
    for k in range(K):
        unk = set(sub.unknown_nodes[k].tolist())
        inner = set(sub.inner_nodes[k].tolist())
        iface = set(sub.interface_nodes[k].tolist())
        assert inner | iface == unk and not (inner & iface)
    # Union of unknown nodes covers every interior node.
    union = set()
    for k in range(K):
        union |= set(sub.unknown_nodes[k].tolist())
    assert union == set(mesh.interior_nodes.tolist())
    # Node multiplicities count the subdomains with an element at the node.
    zeta = np.zeros(mesh.n_vertices, dtype=np.int64)
    for els in _held(sub):
        zeta[np.unique(mesh.elements[sorted(els)])] += 1
    assert np.array_equal(zeta, sub.node_zeta)
    for k in range(K):
        assert np.all(sub.node_zeta[sub.inner_nodes[k]] == 1)
        assert np.all(sub.node_zeta[sub.interface_nodes[k]] >= 2)


@pytest.mark.parametrize("n,ratio", [(4, 1), (5, 3), (8, 2), (6, 4)])
@pytest.mark.parametrize("ball_norm", ["l2", "linf"])
def test_coverage_checks_exactly_the_barycenter_pairs(n, ratio, ball_norm):
    """The per-class pairs checked for coverage are the pairs of distinct
    elements with barycenters within reach + h and at least one interior
    element, each once."""
    delta = ratio / n
    mesh = build_structured_mesh(n, delta)
    r = _reach(delta, ball_norm) + mesh.h + 1e-9
    pairs = cKDTree(mesh.barycenters).query_pairs(r, output_type="ndarray")
    interior = mesh.element_region == INTERIOR
    pairs = pairs[interior[pairs[:, 0]] | interior[pairs[:, 1]]]
    want = set(map(tuple, np.sort(pairs, axis=1).tolist()))
    got = np.concatenate([np.column_stack(p)
                          for p in _interacting_pairs(mesh, r)])
    assert len(got) == len(want)
    assert set(map(tuple, np.sort(got, axis=1).tolist())) == want


def test_coverage_check_requires_the_lattice():
    mesh = build_structured_mesh(4, 0.25)
    sub = build_subdivision(mesh, 2, 2, 0.25)
    with pytest.raises(ValueError, match="structured mesh"):
        verify_coverage(dataclasses.replace(mesh, cells_per_side=0), sub, 0.25)


def test_coverage_detects_missing_pair():
    mesh = build_structured_mesh(8, 0.25)
    sub = build_subdivision(mesh, 2, 2, 0.25)
    strip_to_owned(sub)
    with pytest.raises(SubdivisionError, match="covered by no subdomain"):
        verify_coverage(mesh, sub, 0.25)


def test_counting_function_matches_bruteforce():
    """Pair and element weights read off the packed table equal brute-force
    set counting, also when a row spans two bytes (K = 12)."""
    rng = np.random.default_rng(0)
    for n, delta, k1, k2 in [(8, 0.25, 2, 2), (16, 0.125, 3, 4)]:
        mesh = build_structured_mesh(n, delta)
        sub = build_subdivision(mesh, k1, k2, delta)
        held = _held(sub)
        assert sub.membership.shape == (mesh.n_elements, -(-sub.K // 8))
        # random pairs, self-pairs, and pairs of overlap neighbours
        e1 = np.concatenate([rng.integers(0, mesh.n_elements, 200),
                             np.arange(mesh.n_elements)])
        e2 = np.concatenate([rng.integers(0, mesh.n_elements, 200),
                             np.arange(mesh.n_elements)])
        e2 = np.concatenate([e2, (e1 + 2 * n + 1) % mesh.n_elements])
        e1 = np.concatenate([e1, e1])
        for k in range(sub.K):
            expect = np.zeros(len(e1))
            for i, (a, b) in enumerate(zip(e1.tolist(), e2.tolist())):
                if a in held[k] and b in held[k]:
                    expect[i] = 1.0 / sum(a in h and b in h for h in held)
            assert np.array_equal(sub.pair_weights(k)(e1, e2), expect)
            elem = np.zeros(mesh.n_elements)
            for e in sub.extended_elements[k].tolist():
                elem[e] = 1.0 / sum(e in h for h in held)
            assert np.array_equal(sub.element_weights(k), elem)


def test_extend_nonlocal_counts_its_subdomains():
    mesh = build_structured_mesh(16, 0.125)
    sub = extend_nonlocal(mesh, partition_rectangles(mesh, 3, 2), 0.125)
    assert sub.K == 6
    assert len(sub.extended_elements) == len(sub.floating) == 6


def test_cross_point_multiplicity():
    """With four quadrants whose overlaps meet in the middle, the center
    node is shared by all four subdomains."""
    mesh = build_structured_mesh(8, 0.25)
    sub = build_subdivision(mesh, 2, 2, 0.25)
    center = None
    for i, xy in enumerate(mesh.vertices):
        if np.allclose(xy, [0.5, 0.5]):
            center = i
            break
    assert center is not None
    assert sub.node_zeta[center] == 4


def test_floating_detection():
    # 3x3 on n=16, delta/h = 2: only the center subdomain misses the collar.
    mesh = build_structured_mesh(16, 0.125)
    sub = build_subdivision(mesh, 3, 3, 0.125)
    assert list(sub.floating) == [False] * 4 + [True] + [False] * 4
    for k in range(9):
        assert (len(sub.constrained_nodes[k]) == 0) == sub.floating[k]
    # 1x1 never floats.
    sub1 = build_subdivision(mesh, 1, 1, 0.125)
    assert list(sub1.floating) == [False]


@pytest.mark.parametrize("c", [1, 2])
def test_constraints_annihilate_consistent_vectors(c):
    mesh = build_structured_mesh(16, 0.125)
    sub = build_subdivision(mesh, 2, 2, 0.125)
    cons = build_constraints(mesh, sub, dof_multiplicity=c)
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
    zeta = sub.node_zeta
    shared = np.unique(np.concatenate(sub.interface_nodes))
    assert cons.B.shape[0] == c * int(np.sum(zeta[shared] - 1))
    # D holds the multiplicity of each interface dof.
    for k in range(sub.K):
        g = sub.interface_nodes[k]
        seg = cons.D[cons.offsets[k]:cons.offsets[k + 1]]
        assert np.array_equal(seg, np.repeat(zeta[g].astype(float), c))


@pytest.mark.parametrize("c", [1, 2])
def test_scaled_constraints_are_left_inverse(c):
    mesh = build_structured_mesh(16, 0.125)
    sub = build_subdivision(mesh, 2, 2, 0.125)
    cons = build_constraints(mesh, sub, dof_multiplicity=c)
    M = (cons.B_D @ cons.B.T).toarray()
    assert np.max(np.abs(M - np.eye(M.shape[0]))) < 1e-12
    # B_D is exactly (B D^-1 B^T)^-1 B D^-1.
    BDinv = cons.B @ sp.diags(1.0 / cons.D)
    blk = (BDinv @ cons.B.T).toarray()
    expect = np.linalg.solve(blk, BDinv.toarray())
    assert np.max(np.abs(cons.B_D.toarray() - expect)) < 1e-10


@pytest.mark.parametrize("c", [1, 2])
def test_rigid_modes_orthonormal_blocks(c):
    mesh = build_structured_mesh(16, 0.125)
    sub = build_subdivision(mesh, 3, 3, 0.125)
    cons = build_constraints(mesh, sub, dof_multiplicity=c)
    expected = [(1 if c == 1 else 3) if f else 0 for f in sub.floating]
    assert cons.n_modes == expected
    Z = cons.Z.toarray()
    assert Z.shape[1] == sum(expected)
    G = Z.T @ Z
    assert np.max(np.abs(G - np.eye(G.shape[0]))) < 1e-12
    # Columns are supported on the floating subdomain's dof range only.
    col = 0
    for k, m in enumerate(expected):
        for _ in range(m):
            support = np.flatnonzero(np.abs(Z[:, col]) > 0)
            assert support.min() >= cons.offsets[k]
            assert support.max() < cons.offsets[k + 1]
            col += 1
    if c == 2:
        # The floating block spans translations and the rotation.
        k = int(np.flatnonzero(sub.floating)[0])
        g = sub.interface_nodes[k]
        xy = mesh.vertices[g]
        blk = Z[cons.offsets[k]:cons.offsets[k + 1], :]
        blk = blk[:, np.abs(blk).sum(axis=0) > 0]
        ctr = xy.mean(axis=0)
        modes = np.zeros((2 * len(g), 3))
        modes[0::2, 0] = 1.0
        modes[1::2, 1] = 1.0
        modes[0::2, 2] = -(xy[:, 1] - ctr[1])
        modes[1::2, 2] = xy[:, 0] - ctr[0]
        # Same span: projecting the analytic modes onto the block loses nothing.
        proj = blk @ (blk.T @ modes)
        assert np.max(np.abs(proj - modes)) < 1e-10


def test_construction_is_deterministic():
    mesh = build_structured_mesh(16, 0.125)
    a = build_subdivision(mesh, 3, 3, 0.125)
    b = build_subdivision(mesh, 3, 3, 0.125)
    for k in range(a.K):
        assert np.array_equal(a.extended_elements[k], b.extended_elements[k])
        assert np.array_equal(a.collar_elements[k], b.collar_elements[k])
        assert np.array_equal(a.interface_nodes[k], b.interface_nodes[k])
    assert dump_subdivision(a) == dump_subdivision(b)


def test_dump_subdivision_format():
    mesh = build_structured_mesh(8, 0.25)
    sub = build_subdivision(mesh, 2, 2, 0.25)
    text = dump_subdivision(sub)
    lines = text.strip().split("\n")
    assert lines[0] == "element,x,y,zeta,subdomains"
    assert len(lines) == mesh.n_elements + 1
    # Spot-check one owned element against the membership matrix.
    e = int(sub.owned_elements[3][0])
    fields = lines[e + 1].split(",")
    assert int(fields[0]) == e
    ks = [int(s) for s in fields[4].split(";")]
    assert 3 in ks and int(fields[3]) == len(ks)
