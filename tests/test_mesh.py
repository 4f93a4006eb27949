"""Mesh construction, labeling, and error norms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlfeti.mesh import (INTERIOR, _TRI_T, build_structured_mesh, l2_error,
                         p1_gradients, p1_values)


def test_tiny_mesh_counts():
    # n=2, delta=0.5: 4x4 cells over [-0.5, 1.5]^2
    mesh = build_structured_mesh(2, 0.5)
    assert mesh.n_elements == 32
    assert mesh.n_vertices == 25
    inner = mesh.interior_nodes
    assert len(inner) == 1
    assert np.allclose(mesh.vertices[inner[0]], [0.5, 0.5])


@pytest.mark.parametrize("n, m", [(3, 2), (5, 1), (25, 7)])
def test_element_layout_follows_the_cell_triangles(n, m):
    """Element 2 c + t is triangle t of ``_TRI_T`` in cell c (x fastest),
    and the lattice quantities follow from n and delta."""
    mesh = build_structured_mesh(n, m / n)
    N = n + 2 * m
    assert mesh.cells_per_side == N
    assert mesh.spacing == 1.0 / n and mesh.h == np.sqrt(2.0) / n
    assert mesh.n_elements == 2 * N * N
    cy, cx = np.divmod(np.arange(mesh.n_elements) // 2, N)
    corner = np.column_stack([cx, cy]) - m
    want = (corner[:, None, :] + _TRI_T[np.arange(mesh.n_elements) % 2]) / n
    assert np.allclose(mesh.vertices[mesh.elements], want, rtol=0,
                       atol=1e-14)


def test_rejects_unaligned_collar():
    with pytest.raises(ValueError):
        build_structured_mesh(8, 0.3)
    with pytest.raises(ValueError):
        build_structured_mesh(0, 0.5)


@settings(deadline=None, max_examples=20)
@given(n=st.integers(2, 10), m=st.integers(1, 3))
def test_labels_match_coordinates(n, m):
    delta = m / n
    mesh = build_structured_mesh(n, delta)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    strictly_inside = (x > 0) & (x < 1) & (y > 0) & (y < 1)
    assert np.array_equal(strictly_inside, mesh.node_region == INTERIOR)
    bx, by = mesh.barycenters[:, 0], mesh.barycenters[:, 1]
    el_inside = (bx > 0) & (bx < 1) & (by > 0) & (by < 1)
    assert np.array_equal(el_inside, mesh.element_region == INTERIOR)


@settings(deadline=None, max_examples=10)
@given(n=st.integers(2, 8), m=st.integers(1, 2))
def test_positive_areas_and_interior_tiling(n, m):
    mesh = build_structured_mesh(n, m / n)
    v = mesh.vertices[mesh.elements]
    a = v[:, 1] - v[:, 0]
    b = v[:, 2] - v[:, 0]
    areas = 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
    assert np.all(areas > 0)  # counter-clockwise and nondegenerate
    interior_area = areas[mesh.element_region == INTERIOR].sum()
    assert abs(interior_area - 1.0) < 1e-12


def test_p1_basis_partition_and_gradients():
    tri = np.array([[0.2, 0.1], [0.9, 0.3], [0.4, 0.8]])
    pts = np.array([[0.5, 0.4], [0.3, 0.2]])
    vals = p1_values(tri, pts)
    assert np.allclose(vals.sum(axis=1), 1.0)
    grads = p1_gradients(tri)
    assert np.allclose(grads.sum(axis=0), 0.0, atol=1e-14)
    # hat function i is 1 at vertex i, 0 at others
    assert np.allclose(p1_values(tri, tri), np.eye(3), atol=1e-13)


def test_l2_error_against_independent_quadrature():
    mesh = build_structured_mesh(4, 0.25)
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(mesh.n_vertices)
    exact = lambda p: np.sin(p[:, 0]) * p[:, 1]

    # independent oracle: dense Gauss-Legendre grid per element
    from numpy.polynomial.legendre import leggauss
    gx, gw = leggauss(12)
    gx = 0.5 * (gx + 1.0)
    gw = 0.5 * gw
    total = 0.0
    for e in np.flatnonzero(mesh.element_region == INTERIOR):
        v = mesh.vertices[mesh.elements[e]]
        # map the unit square onto the triangle by collapsing one edge
        for i, wi in zip(gx, gw):
            for j, wj in zip(gx, gw):
                lam1, lam2 = i * (1 - j), i * j
                p = (1 - lam1 - lam2) * v[0] + lam1 * v[1] + lam2 * v[2]
                uh = np.array([1 - lam1 - lam2, lam1, lam2]) @ coeffs[
                    mesh.elements[e]]
                area2 = abs((v[1]-v[0])[0]*(v[2]-v[0])[1] - (v[1]-v[0])[1]*(v[2]-v[0])[0])
                total += wi * wj * i * area2 * (
                    uh - float(exact(p[None, :])[0])) ** 2
    assert np.isclose(l2_error(mesh, coeffs, exact), np.sqrt(total),
                      rtol=1e-7)


def test_exact_interpolant_error_second_order():
    exact = lambda p: np.exp(p[:, 0]) * np.cos(p[:, 1])
    errs = []
    for n in (8, 16, 32):
        mesh = build_structured_mesh(n, 2 / n)
        errs.append(l2_error(mesh, exact(mesh.vertices), exact))
    rate = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(rate) > 1.9


def test_constant_field_zero_error():
    mesh = build_structured_mesh(4, 0.25)
    const = lambda p: np.full(len(p), 3.25)
    assert l2_error(mesh, const(mesh.vertices), const) < 1e-14
