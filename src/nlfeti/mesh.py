"""Structured criss-cross triangulations of the unit square with a
surrounding constraint collar.

The computational domain is ``(0, 1)^2``; Dirichlet-type volume constraints
live on the collar ``[-delta, 1+delta]^2 \\ (0, 1)^2``.  Meshes are uniform:
every grid cell of side ``1/n`` is split into two triangles along its
main (lower-left to upper-right) diagonal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .quadrature import triangle_area, triangle_rule

# Node / element region labels.
INTERIOR = 0  # strictly inside (0,1)^2 (unknowns)
COLLAR = 1  # constrained nodes / collar elements

# Vertices of the lower and upper triangle of a cell, in cell units, both
# counter-clockwise.
_TRI_T = np.array([[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]])


@dataclass
class Mesh:
    """Triangle mesh with region labels.

    Attributes
    ----------
    vertices : (n_vertices, 2) float array
    elements : (n_elements, 3) int array, counter-clockwise connectivity
    element_region : (n_elements,) int array (INTERIOR / COLLAR)
    node_region : (n_vertices,) int array (INTERIOR / COLLAR)
    n : int
        Number of grid cells per unit length.
    delta : float
        Collar width the mesh was built for, a whole number of cells.

    ``cells_per_side``, ``spacing`` (1/n) and ``h`` (the element
    diameter) follow from them; element 2 c + t is triangle ``_TRI_T[t]``
    of cell c, x fastest.
    """

    vertices: np.ndarray
    elements: np.ndarray
    element_region: np.ndarray
    node_region: np.ndarray
    n: int
    delta: float

    @property
    def spacing(self) -> float:
        return 1.0 / self.n

    @property
    def h(self) -> float:
        return np.sqrt(2.0) / self.n

    @property
    def cells_per_side(self) -> int:
        return self.n + 2 * round(self.delta * self.n)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @functools.cached_property
    def barycenters(self) -> np.ndarray:
        return self.vertices[self.elements].mean(axis=1)

    @property
    def interior_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.node_region == INTERIOR)

    @property
    def collar_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.node_region == COLLAR)


def build_structured_mesh(n: int, delta: float) -> Mesh:
    """Triangulate ``[-delta, 1+delta]^2`` with a criss-cross grid.

    ``n`` is the number of cells per unit length; ``delta * n`` must be a
    (positive) integer so the collar is resolved exactly by the grid.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    m = delta * n
    if abs(m - round(m)) > 1e-9 or round(m) < 1:
        raise ValueError(
            f"delta * n must be a positive integer (got delta={delta}, n={n})"
        )
    m = int(round(m))
    N = n + 2 * m  # cells per side
    # Vertex lattice: (N+1)^2 points, x fastest.
    ii = np.arange(N + 1)
    xs = (ii - m) / n
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    # The two triangles of every cell, from its lower-left vertex.
    cx, cy = np.meshgrid(np.arange(N), np.arange(N), indexing="xy")
    v00 = (cy * (N + 1) + cx).ravel()
    corner = _TRI_T[..., 1] * (N + 1) + _TRI_T[..., 0]
    elements = (v00[:, None, None] + corner).reshape(2 * N * N, 3)

    cxe = np.repeat(cx.ravel(), 2)
    cye = np.repeat(cy.ravel(), 2)
    inside = (cxe >= m) & (cxe < N - m) & (cye >= m) & (cye < N - m)
    element_region = np.where(inside, INTERIOR, COLLAR).astype(np.int8)

    ix = np.tile(ii, N + 1)
    iy = np.repeat(ii, N + 1)
    node_inside = (ix > m) & (ix < N - m) & (iy > m) & (iy < N - m)
    node_region = np.where(node_inside, INTERIOR, COLLAR).astype(np.int8)

    return Mesh(
        vertices=vertices,
        elements=elements,
        element_region=element_region,
        node_region=node_region,
        n=n,
        delta=m / n,
    )


def p1_gradients(vertices: np.ndarray) -> np.ndarray:
    """Gradients of the three P1 hat functions on a triangle, shape (3, 2)."""
    v = np.asarray(vertices, dtype=float)
    e1 = v[1] - v[0]
    e2 = v[2] - v[0]
    det = e1[0] * e2[1] - e1[1] * e2[0]
    # grad(lambda_i) from the inverse Jacobian transpose.
    g1 = np.array([e2[1], -e2[0]]) / det
    g2 = np.array([-e1[1], e1[0]]) / det
    return np.array([-g1 - g2, g1, g2])


def p1_values(vertices: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Barycentric (hat-function) values at points, shape (m, 3)."""
    v = np.asarray(vertices, dtype=float)
    # column j holds the coefficients (a, b, c) of hat j = a + b x + c y
    C = np.linalg.inv(np.column_stack([np.ones(3), v]))
    out = np.atleast_2d(points) @ C[1:]
    out += C[0]
    return out


def l2_error(mesh: Mesh, nodal_values: np.ndarray, exact) -> float:
    """L2 norm of ``u_h - exact`` over the interior elements, by the
    degree-4 triangle rule.

    ``nodal_values`` has shape (n_vertices,) for scalar fields or
    (n_vertices, c) for vector fields; ``exact`` maps (m, 2) points to
    matching values.
    """
    vals = np.asarray(nodal_values, dtype=float)
    scalar = vals.ndim == 1
    if scalar:
        vals = vals[:, None]
    bary, wts = triangle_rule(4)
    els = np.flatnonzero(mesh.element_region == INTERIOR)
    tri_verts = mesh.vertices[mesh.elements[els]]  # (ne, 3, 2)
    pts = np.einsum("qb,ebx->eqx", bary, tri_verts)  # (ne, q, 2)
    uh = np.einsum("qb,ebc->eqc", bary, vals[mesh.elements[els]])  # (ne, q, c)
    ue = np.asarray(exact(pts.reshape(-1, 2)), dtype=float)
    if ue.ndim == 1:
        ue = ue[:, None]
    ue = ue.reshape(uh.shape)
    area = triangle_area(tri_verts)
    diff2 = ((uh - ue) ** 2).sum(axis=2)  # (ne, q)
    total = float(np.einsum("e,q,eq->", area, wts, diff2))
    return float(np.sqrt(total))
