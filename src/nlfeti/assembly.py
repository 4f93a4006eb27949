"""Stiffness and load assembly for nonlocal bilinear forms.

The bilinear form couples element pairs.  For a pair (E, F) the local
contribution is assembled over the union patch of their vertices,

    M[a, b] = int_E int_{F cap B(x)} gamma(x, y) dpsi_a dpsi_b dy dx,

with ``dpsi_a(x, y) = psi_a(y) - psi_a(x)`` the hat-function difference.
The swapped integral over (F, E) equals M, so each unordered pair is
integrated once and scattered with factor 2 (factor 1 when E == F).

The pair rule, ``pair_matrix(v1, v2, ...)``, takes the two triangles as
(3, 2) vertex arrays, matches their shared vertices by exact coordinate
equality and names each patch node by its row among the six vertices;
it knows no mesh.  On the structured criss-cross mesh every pair belongs
to a translation class (cell offset plus the two triangle types), and
every pair in a class has the same matrix.  It is computed once per
process per (kernel family, delta / h, quadrature), on the class's two
triangles of the reference lattice, with integer vertices and the
horizon delta * n in cell units; at fixed delta / h the class
matrices of all three kernels do not depend on h.  Only classes whose two
triangles come closer than the horizon are formed; the matrix of every
other class is identically zero.  One weighted scatter,
``Assembler.assemble(weights, cells, rows, columns)``, builds every
matrix: the global matrix is the unit-weight case on the whole mesh,
with the interior node rows against the interior and the collar
columns, and a subdomain matrix weights each pair by the reciprocal
number of subdomains holding both elements, on the cell window that
bounds the subdomain, with its inner and interface rows against its
inner, interface and constrained columns.

The scatter is a sparse times dense product.  A scatter table, built
once per assembler, has a column per (class, patch node a) and a row per
(node-id shift, component pair), holding the class matrix entries.  The
weights of a window's pairs sit in a grid of anchor cells per class as
unsigned pair counts, the weight being the reciprocal count (0/1 counts
for the global matrix), read by ``geometry.class_grids`` off cell
planes, and zero-padded only as far as the requested rows reach; a row
node reads, for each table column, the count of the anchor it is node a
of.  The rows are taken in strips of node rows, whose shifted counts are
gathered at once and turned into weights there, with a size bound like
the one of the quadrature flushes; each entry goes straight to its row
and column block.

Element pairs with coinciding or touching supports use
singularity-aware schemes.  Coinciding pairs integrate in relative polar
coordinates (a Duffy-type transformation), with the radial integral of
every direction in closed form.  Singular-kernel pairs sharing an edge
or a vertex are pulled back to relative coordinates anchored at the
shared feature, where the kernel homogeneity yields a closed-form radial
integral along every direction, horizon cut included.  For
close-but-disjoint pairs the outer cells within 1.5 element diameters of
the inner element, by their exact distance, are uniformly subdivided
before the product rule is applied.

For disjoint pairs and a Euclidean ball the inner rule is polar around
each outer quadrature point, with every radial interval cut exactly at the
horizon.  Its directions are found for all outer points of a pair at once:
the angular panel bounds of each point (three vertex directions plus at
most two horizon crossings per edge) are sorted in rows padded to nine,
only the panels whose mid direction meets the inner element inside the
horizon get directions, a mask keeps those of their directions that do,
and the outer points are taken in blocks that bound the working set.
Along each direction the radial integral is exact and in closed form, as
for the touching pairs: the hat differences are affine in the radius and
the kernel is homogeneous, so three radial moments and one kernel value
per direction give it.  For the max-norm ball of the constant kernel the
inner element is clipped against the square around each outer point,
which is exact for that ball.  So each ball norm has one inner rule,
chosen by the kernel.  The kernel contraction of every pair integrator is
one weighted GEMM per kernel component, one for both off-diagonal
components of the peridynamic kernel.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import (class_grids, clip_triangle_square,
                       disk_interaction_cells, fan_triangulate,
                       interacting_classes, triangle_distances)
from .kernels import KernelSpec, kernel_on_support
from .mesh import _TRI_T, Mesh, p1_gradients, p1_values
from .quadrature import (gauss01, map_to_physical, triangle_area,
                         triangle_rule)


@dataclass(frozen=True)
class QuadratureConfig:
    """Rule orders for pair integration; each one changes some result.

    Coinciding pairs, every kernel:

    - ``angular_points``: the Gauss angular order of the relative polar
      rule, per sector of the difference hexagon (its radial integrals
      are exact).

    Singular kernels, pairs sharing an edge or a vertex:

    - ``transform_points``: the tensor-Gauss order per panel of the
      edge-touching transform (the vertex-touching one takes
      ``transform_points + 8`` points, unpaneled);
    - ``transform_panels``: the composite panels per face coordinate of
      the edge-touching transform.

    Disjoint pairs, and every constant-kernel pair that does not coincide:

    - ``outer_degree``: the triangle rule on the outer cells, at least 5
      for the constant kernel and for pairs that straddle the horizon;
    - ``inner_degree``: the triangle rule on the square-clipped inner
      pieces of the max-norm ball, and on the inner element of the polar
      rule's outer points that hold it well inside the horizon;
    - ``cut_subdiv``: singular kernels only, the uniform subdivision
      depth of the outer cells whose exact distance from the inner
      element is below 1.5 element diameters (``cut_subdiv - 2``) and of
      the other cells of a pair that straddles the horizon
      (``cut_subdiv - 3``);
    - ``arc_segments``: the chord pieces per horizon circle along which
      ``disk_interaction_cells`` splits the outer element of a straddling
      pair;
    - ``polar_angular``: the Gauss directions per angular panel of the
      polar inner rule of the Euclidean ball (its radial integrals are
      exact).

    """

    outer_degree: int = 3
    inner_degree: int = 3
    angular_points: int = 12
    transform_points: int = 12
    transform_panels: int = 8
    cut_subdiv: int = 3
    arc_segments: int = 3
    polar_angular: int = 4


# ---------------------------------------------------------------------------
# Pair integration


def _cross2(a: np.ndarray, b: np.ndarray) -> float:
    """Scalar cross product of 2-vectors."""
    return float(a[0] * b[1] - a[1] * b[0])


def _patch(v1: np.ndarray, v2: np.ndarray):
    """Union patch of two triangles' vertices, matched by exact coordinate
    equality: the vertices of v1, then those of v2 that v1 lacks.

    Returns (rows, loc1, loc2) where patch node a is row rows[a] of
    ``np.concatenate([v1, v2])`` and loc1[a] is its local vertex index in
    the first triangle (-1 when absent).
    """
    # same[i, j]: vertex i of v1 is vertex j of v2
    same = (v1[:, None, :] == v2[None, :, :]).all(axis=2)
    new = np.flatnonzero(~same.any(axis=0))
    rows = np.concatenate([np.arange(3), 3 + new])
    loc1 = np.where(rows < 3, rows, -1)
    loc2 = np.concatenate([np.where(same.any(axis=1), same.argmax(axis=1), -1),
                           new])
    return rows, loc1, loc2


def _basis_differences(
    phi1: np.ndarray, phi2: np.ndarray, loc1: np.ndarray, loc2: np.ndarray,
) -> np.ndarray:
    """dpsi_a = psi_a(y) - psi_a(x) for every patch node, shape (m, p),
    from the hat values (m, 3) of the first element at the points x and
    of the second at the points y."""
    D = np.zeros((phi1.shape[0], len(loc1)))
    # in-place column updates: mask gathers on axis 1 go through temporaries
    for a, (i, j) in enumerate(zip(loc1, loc2)):
        if j >= 0:
            D[:, a] += phi2[:, j]
        if i >= 0:
            D[:, a] -= phi1[:, i]
    return D


def _tensor_contract(spec: KernelSpec, W: np.ndarray, K: np.ndarray,
                     D: np.ndarray, E: np.ndarray | None = None) -> np.ndarray:
    """sum_q W[q] K[q] E[q,a] D[q,b] with the kernel values K, and E = D by
    default, interleaved for vector kernels; one weighted GEMM per kernel
    component, and one for both off-diagonal ones: the kernel is
    symmetric, they are the same products."""
    E = D if E is None else E
    if spec.components == 1:
        return (E * (W * K)[:, None]).T @ D
    WK = W[:, None, None] * K  # (q, 2, 2)
    p = D.shape[1]
    M = np.empty((p, 2, p, 2))
    for i, j in ((0, 0), (0, 1), (1, 1)):
        M[:, i, :, j] = (E * WK[:, i, j, None]).T @ D
    M[:, 1, :, 0] = M[:, 0, :, 1]
    return M.reshape(2 * p, 2 * p)


def _radial_moments(lo: np.ndarray, hi: np.ndarray, beta: float):
    """[mu_0, mu_1, mu_2] with mu_k = int_lo^hi r^(1 - beta + k) dr.

    With e = 2 - beta + k and t = log(hi / lo), mu_k = lo^e expm1(e t) / e,
    and mu_k = t at e = 0 (the fractional kernel at s = 1/2, k = 1): no
    difference of powers cancels as e passes 0.
    """
    # the polar rule's rays start outside the inner element, which a
    # disjoint pair's outer point never touches
    assert np.all(lo > 0.0), "radial interval starting at the outer point"
    t = np.log1p((hi - lo) / lo)
    return [t if e == 0.0 else lo**e * np.expm1(e * t) / e
            for e in (2.0 - beta + k for k in range(3))]


def _ray_contract(spec: KernelSpec, W: np.ndarray, u: np.ndarray,
                  lo: np.ndarray, hi: np.ndarray, A: np.ndarray,
                  B: np.ndarray) -> np.ndarray:
    """sum_k W[k] int_lo^hi r K(r u) D D^T dr over the rays k, where the
    basis differences D = A[k] + r B[k] are affine in r along the ray.

    The kernel is homogeneous, K(r u) = r^-beta K(u), so a ray's integral
    is K(u) [mu_0 A A^T + mu_1 (A B^T + B A^T) + mu_2 B B^T] with the
    radial moments of ``_radial_moments``: the rays stacked twice, with
    left factors (mu_0 A + mu_1 B, mu_1 A + mu_2 B) and right factors
    (A, B), take one weighted GEMM per kernel component.  K(u) is
    evaluated once per ray and serves both stacked halves.
    """
    mu0, mu1, mu2 = (mu[:, None] for mu in
                     _radial_moments(lo, hi, spec.homogeneity))
    K = kernel_on_support(spec, u)
    return _tensor_contract(spec, np.tile(W, 2), np.concatenate([K, K]),
                            np.concatenate([A, B]),
                            np.concatenate([mu0 * A + mu1 * B,
                                            mu1 * A + mu2 * B]))


# Angular panels per outer point of the polar rule: the three vertex
# directions plus at most two horizon crossings per edge.
_POLAR_PANELS = 9


def _polar_inner_rule(
    X: np.ndarray, tri: np.ndarray, spec: KernelSpec, quad: QuadratureConfig
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Rule for int_{tri cap B(x, delta)} around every exterior outer
    point x in X, in polar coordinates centred at x.

    Per direction the radial interval [entry, exit] is clipped exactly at
    the horizon, so no geometric ball approximation enters; the caller
    integrates along it in closed form.  The angular range is paneled at
    the triangle vertex angles and at the angles where the horizon circle
    crosses a triangle edge, the only non-smooth directions.  All outer
    points are handled at once: their sorted panel bounds are padded to
    ``_POLAR_PANELS``, and only the panels whose mid direction meets the
    triangle inside the horizon get directions, of which a mask keeps
    those that do.  Points whose triangle lies inside the horizon and
    well away take the plain triangle rule instead.

    Returns (rays, points).  ``rays = (owner, u, lo, hi, wa)`` are the kept
    directions: unit vector u[k] from outer point ``X[owner[k]]``, radial
    interval [lo[k], hi[k]] and angular weight wa[k], ordered by outer
    point, then panel, then direction.  ``points = (owner, Y, W)`` is the
    triangle rule of the points that take it, ordered by outer point.
    """
    delta = spec.delta
    rel = tri[None, :, :] - X[:, None, :]  # (m, 3, 2) vertex offsets
    d = np.linalg.norm(rel, axis=2)
    diam = max(np.linalg.norm(tri[1] - tri[0]), np.linalg.norm(tri[2] - tri[0]),
               np.linalg.norm(tri[2] - tri[1]))
    smooth = (d.max(axis=1) <= delta) & (d.min(axis=1) >= 2.0 * diam)
    rows = np.flatnonzero(~smooth)
    x = X[rows]
    bounds = np.full((len(rows), _POLAR_PANELS), np.inf)
    bounds[:, :3] = np.arctan2(rel[rows, :, 1], rel[rows, :, 0])
    normals = []
    for i in range(3):
        a, b = tri[i], tri[(i + 1) % 3]
        e = b - a
        n = np.array([-e[1], e[0]])
        if n @ (tri[(i + 2) % 3] - a) < 0:
            n = -n
        # with the offset n . (x - a) of every outer point from the edge
        normals.append((n, ((x - a)[:, None, :] @ n[:, None])[:, 0, 0]))
        # horizon crossings a + t e, 0 < t < 1, of the circle around x;
        # row-wise dot products are taken as stacked matmuls, which round
        # each row as a 1-D dot product does
        f = (a[None, :] - x)[:, None, :]
        A = e @ e
        B = 2.0 * (f @ e)[:, 0]
        disc = B * B - 4.0 * A * ((f @ f.transpose(0, 2, 1))[:, 0, 0]
                                  - delta * delta)
        sq = np.sqrt(np.maximum(disc, 0.0))
        for k, t in enumerate(((-B - sq) / (2 * A), (-B + sq) / (2 * A))):
            hit = (disc > 0.0) & (1e-12 < t) & (t < 1.0 - 1e-12)
            p = a[None, :] + t[:, None] * e[None, :]
            ang = np.arctan2(p[:, 1] - x[:, 1], p[:, 0] - x[:, 0])
            bounds[:, 3 + 2 * i + k] = np.where(hit, ang, np.inf)
    # panel j runs from the j-th to the next sorted angle, the last one
    # wrapping around to the first angle plus 2 pi
    th = np.sort(bounds, axis=1)
    count = np.isfinite(th).sum(axis=1)
    t1 = np.concatenate([th[:, 1:], np.full((len(rows), 1), np.inf)], axis=1)
    t1[np.arange(len(rows)), count - 1] = th[:, 0] + 2.0 * np.pi
    with np.errstate(invalid="ignore"):
        width = t1 - th
    owner, j = np.nonzero((np.arange(_POLAR_PANELS)[None, :] < count[:, None])
                          & (width >= 1e-14))

    def clip(theta, owner):
        # (u, kept, lo, hi) of the directions theta from the points
        # x[owner], which broadcasts against theta
        u = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        lo = np.zeros(theta.shape)
        hi = np.full(theta.shape, delta)
        ok = np.ones(theta.shape, bool)
        for n, num in normals:
            num = num[owner]
            den = u @ n
            ok &= ~((np.abs(den) < 1e-14) & (num < 0.0))
            with np.errstate(divide="ignore", invalid="ignore"):
                rr = -num / den
            lo = np.where(den > 1e-14, np.maximum(lo, rr), lo)
            hi = np.where(den < -1e-14, np.minimum(hi, rr), hi)
        return u, ok & (hi > lo + 1e-15), lo, hi

    # a panel whose mid direction misses the triangle inside the horizon
    # is missed by all of its directions: the panel bounds are the angles
    # where the entry or exit edge or the horizon cut changes
    t0, width = th[owner, j], width[owner, j]
    hit = clip(t0 + 0.5 * width, owner)[1]
    owner, t0, width = owner[hit], t0[hit], width[hit]
    ga, gwa = gauss01(quad.polar_angular)
    u, ok, lo, hi = clip(t0[:, None] + width[:, None] * ga, owner[:, None])
    # kept directions, in (point, panel, direction) order
    rays = (rows[owner[np.nonzero(ok)[0]]], u[ok], lo[ok], hi[ok],
            (gwa * width[:, None])[ok])
    bary, wts = triangle_rule(quad.inner_degree)
    ys, ws = map_to_physical(tri, bary, wts)
    near = np.flatnonzero(smooth)
    points = (np.repeat(near, len(ws)), np.tile(ys, (len(near), 1)),
              np.tile(ws, len(near)))
    return rays, points


def _inner_rule_points(
    x: np.ndarray, v2: np.ndarray, spec: KernelSpec, quad: QuadratureConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature points/weights for int_{v2 cap B(x)} around outer point x
    for the max-norm ball: ``v2`` clipped against the square of half-width
    delta around x, which is exact for that ball."""
    if np.max(np.abs(v2 - x)) <= spec.delta:
        subs = [v2]
    else:
        subs = fan_triangulate(clip_triangle_square(v2, x, spec.delta))
    ys, ws = map_to_physical(np.reshape(subs, (-1, 3, 2)),
                             *triangle_rule(quad.inner_degree))
    return ys.reshape(-1, 2), ws.ravel()


def subdivide_triangle(tris: np.ndarray, levels) -> np.ndarray:
    """Uniform midpoint subdivision of the triangles of a (k, 3, 2) array,
    triangle i into 4^levels[i] congruent ones (``levels`` may be one
    int for all; a level below 1 keeps the triangle whole), in triangle
    order; each step puts the four children of a triangle in its place."""
    tris = np.asarray(tris, dtype=float)
    levels = np.broadcast_to(levels, len(tris))
    while (levels > 0).any():
        a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
        ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
        kids = np.stack([np.stack(t, axis=1) for t in (
            (a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca))],
            axis=1)  # (k, 4, 3, 2)
        split = levels > 0
        kids[~split, 0] = tris[~split]
        keep = split[:, None] | (np.arange(4) == 0)
        tris = kids[keep]
        levels = np.repeat(levels - split, keep.sum(axis=1))
    return tris


# Angular slots (padded panels x directions) of the polar rule per block
# of outer points: bounds the working set of a pair, which sets the peak
# memory of the singular quadrature.
_BLOCK_DIRECTIONS = 1 << 17


def regular_pair_matrix(
    v1: np.ndarray, v2: np.ndarray, loc1: np.ndarray, loc2: np.ndarray,
    spec: KernelSpec, quad: QuadratureConfig,
    cells: np.ndarray, outer_degree: int,
) -> np.ndarray:
    """Pair matrix by outer rule of degree ``outer_degree`` on the (k, 3, 2)
    array of cells of v1 x the inner rule of the kernel's ball norm on v2:
    the polar rule for the Euclidean ball, square clipping for the
    max-norm ball."""
    X, WX = map_to_physical(cells, *triangle_rule(outer_degree))
    X, WX = X.reshape(-1, 2), WX.ravel()
    PX = p1_values(v1, X)
    c = spec.components
    M = np.zeros((len(loc1) * c, len(loc1) * c))

    def contract(owner, Y, W):
        # inner points Y with weights W of the outer points X[owner]
        D = _basis_differences(PX[owner], p1_values(v2, Y), loc1, loc2)
        return _tensor_contract(spec, WX[owner] * W,
                                kernel_on_support(spec, Y - X[owner]), D)

    if spec.ball_norm == "linf":
        # a few clipped pieces per outer point: one contraction holds all
        inner = [_inner_rule_points(x, v2, spec, quad) for x in X]
        owner = np.repeat(np.arange(len(X)), [len(w) for _, w in inner])
        M += contract(owner, np.concatenate([y for y, _ in inner]),
                      np.concatenate([w for _, w in inner]))
        return M
    # along the ray x + r u the basis differences are A + r (grad psi) . u,
    # with A those of v2's hats, extended affinely, at the outer point x
    A = _basis_differences(PX, p1_values(v2, X), loc1, loc2)
    grad = _patch_gradients(v1, v2, loc1, loc2)[1]
    step = max(1, _BLOCK_DIRECTIONS // (_POLAR_PANELS * quad.polar_angular))
    for start in range(0, len(X), step):
        (owner, u, lo, hi, wa), (near, Y, W) = _polar_inner_rule(
            X[start:start + step], v2, spec, quad)
        owner = start + owner
        M += _ray_contract(spec, WX[owner] * wa, u, lo, hi, A[owner],
                           u @ grad.T)
        M += contract(start + near, Y, W)
    return M


def _patch_gradients(
    v1: np.ndarray, v2: np.ndarray, loc1: np.ndarray, loc2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(P1, P2): hat-function gradients per patch node on each element,
    zero rows for patch nodes absent from an element."""
    in1, in2 = loc1 >= 0, loc2 >= 0
    P1 = np.zeros((len(loc1), 2))
    P2 = np.zeros((len(loc1), 2))
    P1[in1] = p1_gradients(v1)[loc1[in1]]
    P2[in2] = p1_gradients(v2)[loc2[in2]]
    return P1, P2


def common_vertex_pair_matrix(
    v1: np.ndarray, v2: np.ndarray, loc1: np.ndarray, loc2: np.ndarray,
    spec: KernelSpec, quad: QuadratureConfig,
) -> np.ndarray:
    """Singular kernel, elements sharing exactly one vertex.

    Both parametrizations are anchored at the shared vertex; scaling out
    the joint distance rho removes the singularity and, because the
    kernel is homogeneous and hat differences are linear, the radial
    integral (with the exact horizon cut) is available in closed form.
    The two regions xi1 >= xi2 and xi2 >= xi1 are integrated by tensor
    Gauss rules in the remaining three coordinates.
    """
    (a,) = np.flatnonzero((loc1 >= 0) & (loc2 >= 0))
    s1, s2 = int(loc1[a]), int(loc2[a])
    P1, P2 = _patch_gradients(v1, v2, loc1, loc2)
    beta = spec.homogeneity
    # edge chains v0 -> v1 -> v2 of each element starting at the shared vertex
    o1 = [s1, (s1 + 1) % 3, (s1 + 2) % 3]
    o2 = [s2, (s2 + 1) % 3, (s2 + 2) % 3]
    w1 = v1[o1]
    w2 = v2[o2]
    J = abs(_cross2(w1[1] - w1[0], w1[2] - w1[1])) * abs(
        _cross2(w2[1] - w2[0], w2[2] - w2[1])
    )
    t, gw = gauss01(quad.transform_points + 8)
    U, V, W3 = np.meshgrid(t, t, t, indexing="ij")
    GW = (gw[:, None, None] * gw[None, :, None] * gw[None, None, :]).ravel()
    U, V, W3 = U.ravel(), V.ravel(), W3.ravel()
    p = len(loc1)
    c = spec.components
    M = np.zeros((p * c, p * c))
    for (wa, Pa), (wb, Pb) in (((w1, P1), (w2, P2)), ((w2, P2), (w1, P1))):
        # outer leg A(u) = (v1 - v0) + u (v2 - v1); inner leg scaled by v.
        Aout = (wa[1] - wa[0])[None, :] + U[:, None] * (wa[2] - wa[1])[None, :]
        Ain = (wb[1] - wb[0])[None, :] + W3[:, None] * (wb[2] - wb[1])[None, :]
        m = V[:, None] * Ain - Aout  # (y - x) / rho up to overall sign
        nrm = np.linalg.norm(m, axis=1)
        rho_max = np.minimum(1.0, spec.delta / nrm)
        radial = rho_max ** (6.0 - beta) / (6.0 - beta)
        D = V[:, None] * (Ain @ Pb.T) - Aout @ Pa.T  # (q, p)
        M += _tensor_contract(spec, GW * V * radial * J,
                              kernel_on_support(spec, m), D)
    return M


def common_edge_pair_matrix(
    v1: np.ndarray, v2: np.ndarray, loc1: np.ndarray, loc2: np.ndarray,
    spec: KernelSpec, quad: QuadratureConfig,
) -> np.ndarray:
    """Singular kernel, elements sharing an edge.

    With both elements parametrized from the shared edge, the integrand
    depends on the position along the edge only through the overlap
    length L(z), an affine function along rays from the singular origin
    in the relative coordinates z = (xi1 - xi2, eta1, eta2).  The region
    is split into pyramids over the far faces of the coordinate box and
    the radial integral per ray is evaluated in closed form (including
    the exact horizon cut).
    """
    # patch nodes: the shared edge a0 -> a1 and the far vertices f1 of
    # the first and f2 of the second element
    a0, a1 = np.flatnonzero((loc1 >= 0) & (loc2 >= 0))
    (f1,) = np.flatnonzero(loc2 < 0)
    (f2,) = np.flatnonzero(loc1 < 0)
    s0, s1, c1, c2 = v1[loc1[a0]], v1[loc1[a1]], v1[loc1[f1]], v2[loc2[f2]]
    E = s1 - s0
    d1 = c1 - s1
    d2 = c2 - s1
    J = abs(_cross2(E, d1)) * abs(_cross2(E, d2))  # (2|E1|)(2|E2|)
    beta = spec.homogeneity
    # basis differences in z = (a, eta1, eta2) for nodes (s0, s1, c1, c2)
    core = np.array(
        [
            [1.0, 0.0, 0.0],  # s0: a
            [-1.0, 1.0, -1.0],  # s1: -a + eta1 - eta2
            [0.0, -1.0, 0.0],  # c1: -eta1
            [0.0, 0.0, 1.0],  # c2: eta2
        ]
    )
    # map core rows onto patch slots
    p = len(loc1)
    B = np.zeros((p, 3))
    B[[a0, a1, f1, f2]] = core
    # composite tensor rule: the per-ray cutoffs switch branches along
    # curves in the face coordinates, so panels are needed for accuracy
    t, gw = gauss01(quad.transform_points)
    k = quad.transform_panels
    t = np.concatenate([(i + t) / k for i in range(k)])
    gw = np.tile(gw / k, k)
    faces = [
        # (p-vector builder, weight scale)
        (lambda s, r: np.column_stack([np.ones_like(s), s, r]), 1.0),   # a=1
        (lambda s, r: np.column_stack([-np.ones_like(s), s, r]), 1.0),  # a=-1
        (lambda s, r: np.column_stack([2 * s - 1, np.ones_like(s), r]), 2.0),  # eta1=1
        (lambda s, r: np.column_stack([2 * s - 1, r, np.ones_like(s)]), 2.0),  # eta2=1
    ]
    S, R = np.meshgrid(t, t, indexing="ij")
    GW = (gw[:, None] * gw[None, :]).ravel()
    S, R = S.ravel(), R.ravel()
    c = spec.components
    M = np.zeros((p * c, p * c))
    ex = 5.0 - beta
    for build, scale in faces:
        P = build(S, R)  # (q, 3) ray endpoints
        m = P[:, 0, None] * E[None, :] + P[:, 1, None] * d1[None, :] \
            - P[:, 2, None] * d2[None, :]
        nrm = np.linalg.norm(m, axis=1)
        # overlap length along the ray: L(t p) = 1 - c1l * t
        c1l = np.maximum(P[:, 0], 0.0) + np.maximum(P[:, 2], P[:, 1] - P[:, 0])
        with np.errstate(divide="ignore"):
            t_zero = np.where(c1l > 0, 1.0 / np.maximum(c1l, 1e-300), np.inf)
        tcut = np.minimum(np.minimum(1.0, spec.delta / nrm), t_zero)
        radial = tcut**ex / ex - c1l * tcut ** (ex + 1.0) / (ex + 1.0)
        D = P @ B.T  # (q, p) basis differences per unit t
        M += _tensor_contract(spec, GW * scale * radial * J,
                              kernel_on_support(spec, m), D)
    return M


# Reference hexagon of pairwise difference vectors of the unit triangle,
# in angular order; consecutive sectors have unit cross products.
_HEX = np.array([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)], float)


def coinciding_pair_matrix(
    verts: np.ndarray, spec: KernelSpec, quad: QuadratureConfig
) -> np.ndarray:
    """Element paired with itself, in relative polar coordinates.

    With w = y - x the double integral collapses to an integral over the
    difference hexagon E - E weighted by |E cap (E - w)|, which has the
    closed form (2|E|) L(w)^2 / 2 in reference coordinates.  Kernel
    homogeneity turns the radial part into the integral of xi^alpha times
    a quadratic in xi, taken in closed form up to the exact per-direction
    horizon cut.
    """
    v = np.asarray(verts, dtype=float)
    B = np.column_stack([v[1] - v[0], v[2] - v[0]])
    detB = abs(np.linalg.det(B))
    area = 0.5 * detB
    grads = p1_gradients(v)  # (3, 2)
    beta = spec.homogeneity
    alpha = 3.0 - beta
    t_nodes, t_wts = gauss01(quad.angular_points)
    c = spec.components
    M = np.zeros((3 * c, 3 * c))
    for k in range(6):
        r0, r1 = _HEX[k], _HEX[(k + 1) % 6]
        mh = r0[None, :] + t_nodes[:, None] * (r1 - r0)[None, :]  # (nt, 2)
        mw = mh @ B.T  # physical directions
        # Per-direction radial cut from the horizon ball.
        if spec.ball_norm == "linf":
            nrm = np.max(np.abs(mw), axis=1)
        else:
            nrm = np.linalg.norm(mw, axis=1)
        u = np.minimum(1.0, spec.delta / nrm)
        # Radial moment of the overlap area, int_0^u xi^alpha L^2 / 2 dxi,
        # with L = 1 - c xi (c = 1 on the hexagon boundary, so L >= 0):
        # expanded about g = L(u) >= 0, no term cancels.
        cu = u * (np.maximum(0.0, mh.sum(axis=1))
                  + np.maximum(0.0, -mh).sum(axis=1))
        g = 1.0 - cu
        radial = u ** (alpha + 1.0) / (2.0 * (alpha + 1.0)) * (
            g * g + 2.0 * g * cu / (alpha + 2.0)
            + 2.0 * cu * cu / ((alpha + 2.0) * (alpha + 3.0)))
        # (2|E|) converts the reference overlap area to physical.
        P = mw @ grads.T  # (nt, 3): grad(psi_a) . m
        M += _tensor_contract(spec, t_wts * radial * 2.0 * area * detB,
                              kernel_on_support(spec, mw), P)
    return M


def pair_matrix(
    v1: np.ndarray, v2: np.ndarray, spec: KernelSpec, quad: QuadratureConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Local matrix of two triangles, given as (3, 2) vertex arrays, over
    the union patch of their vertices.

    Returns (M, rows): patch node a is row ``rows[a]`` of
    ``np.concatenate([v1, v2])``, and M has shape (p*c, p*c) with
    component-interleaved rows/columns for vector kernels.  Triangles
    sharing all three vertices are the coinciding pair.
    """
    rows, loc1, loc2 = _patch(v1, v2)
    n_shared = int(np.sum((loc1 >= 0) & (loc2 >= 0)))
    if n_shared == 3:
        M = coinciding_pair_matrix(v1, spec, quad)
    elif not spec.singular:
        # constant kernel on the max-norm ball: the integrand is a
        # polynomial wherever the clipped inner polygon keeps its
        # combinatorics.  Those change only where a square side crosses
        # an inner vertex or a square corner an inner edge line, and on
        # the lattice, with delta * n an integer, every such line lies at
        # an integer cell offset, so none cuts the outer element and the
        # fixed-order rule on the whole element is exact.
        M = regular_pair_matrix(v1, v2, loc1, loc2, spec, quad,
                                v1[None], max(quad.outer_degree, 5))
    elif n_shared == 2:
        M = common_edge_pair_matrix(v1, v2, loc1, loc2, spec, quad)
    elif n_shared == 1:
        M = common_vertex_pair_matrix(v1, v2, loc1, loc2, spec, quad)
    else:
        straddle = _straddles_horizon(v1, v2, spec)
        if straddle:
            cells = np.array(disk_interaction_cells(v1, v2, spec.delta,
                                                    quad.arc_segments))
        else:
            cells = v1[None]
        # grade composite depth per cell by its exact distance to the
        # inner element: the kernel varies strongly only on nearby cells
        diam = max(np.linalg.norm(v1[1] - v1[0]),
                   np.linalg.norm(v1[2] - v1[0]),
                   np.linalg.norm(v1[2] - v1[1]))
        levels = np.where(triangle_distances(cells, v2) < 1.5 * diam,
                          quad.cut_subdiv - 2,
                          quad.cut_subdiv - 3 if straddle else 0)
        deg = max(quad.outer_degree, 5) if straddle else quad.outer_degree
        M = regular_pair_matrix(v1, v2, loc1, loc2, spec, quad,
                                subdivide_triangle(cells, levels), deg)
    return M, rows


def _straddles_horizon(v1: np.ndarray, v2: np.ndarray,
                       spec: KernelSpec) -> bool:
    """True when some point pair of the two elements is farther apart
    than the Euclidean horizon (by convexity the vertex pairs are
    enough)."""
    diffs = np.linalg.norm(v1[:, None, :] - v2[None, :, :], axis=2)
    return float(diffs.max()) > spec.delta


# ---------------------------------------------------------------------------
# Structured-mesh assembler with translation-class caching

# Entries of a strip's shifted weights (table columns x strip nodes) or of
# its product (table rows x strip nodes), whichever is larger; bounds the
# working set of a strip of the scatter.
_STRIP_ENTRIES = 1 << 16

_LOAD_DEGREE = 4  # of the triangle rule of the element load moments


@functools.cache
def _lattice_class(spec: KernelSpec, quad: QuadratureConfig,
                   key: tuple[int, int, int, int]):
    """(M, lat): the matrix of class ``key`` on the reference lattice and
    the (p, 2) lattice offsets of its patch nodes from the anchor corner,
    both read-only.

    The two triangles have integer vertices (cell side 1) and ``spec`` is
    the kernel at the horizon in cell units, R = delta * n.  All three
    kernels make the class matrix independent of the cell side at fixed
    R (the h^4 of the two area elements cancels the kernel's scaling), so
    one computation serves every mesh with the same delta / h, and a
    solve's bits do not depend on which solve filled the memo.
    """
    dx, dy, t1, t2 = key
    lat = np.concatenate([_TRI_T[t1], _TRI_T[t2] + (dx, dy)])
    v = lat.astype(float)
    M, rows = pair_matrix(v[:3], v[3:], spec, quad)
    lat = lat[rows]
    M.flags.writeable = False
    lat.flags.writeable = False
    return M, lat


class Assembler:
    """Assembles stiffness matrices on a structured mesh.

    Pair integrals are computed once per process per translation class
    (cell offset and the two triangle types), kernel family, delta / h
    and quadrature, on the reference lattice; they are
    scattered over the anchors of a window by a sparse times dense
    product per strip of node rows.
    """

    def __init__(
        self,
        mesh: Mesh,
        spec: KernelSpec,
        quad: QuadratureConfig | None = None,
    ):
        self.mesh = mesh
        self.spec = spec
        self.quad = quad or QuadratureConfig()
        self.N = mesh.cells_per_side
        # the kernel in cell units: horizon R = delta * n, cell side 1
        self.lattice_spec = KernelSpec(spec.family, spec.delta * mesh.n, spec.s)

    # -- translation classes ------------------------------------------------

    def classes(self) -> tuple[tuple[int, int, int, int], ...]:
        """The pair classes (dx, dy, t1, t2) with a nonzero matrix:
        ``interacting_classes`` on the integer horizon round(delta * n)."""
        return interacting_classes(round(self.lattice_spec.delta),
                                   self.spec.ball_norm == "linf")

    def class_matrix(self, key: tuple[int, int, int, int]):
        """(patch matrix, (p, 2) lattice offsets of the patch nodes from the
        anchor corner, multiplicity factor).

        The matrix and the offsets are the read-only, process-wide
        reference-lattice class of ``_lattice_class``.
        """
        dx, dy, t1, t2 = key
        M, lat = _lattice_class(self.lattice_spec, self.quad, key)
        factor = 1 if (dx, dy) == (0, 0) and t1 == t2 else 2
        return M, lat, factor

    @functools.cached_property
    def _scatter_table(self):
        """(Ct, shifts, lattice, klass): the scatter table.

        Column r of ``Ct`` is a (class, patch node a) pair, in class order,
        then patch-node order; ``lattice[r]`` is the offset of node a from
        the anchor corner and ``klass[r]`` the class.  Row (slot, i, j)
        is a node-id shift (column node minus row node; ``shifts`` holds
        every class's, sorted) and a component pair.  The entry in column
        r and the row of the shift from a to b is ``factor * M[a, b]``.
        """
        c = self.spec.components
        N1 = self.N + 1
        mats = [self.class_matrix(key) for key in self.classes()]
        ids = [lat[:, 1] * N1 + lat[:, 0] for _, lat, _ in mats]
        node_shifts = [i[None, :] - i[:, None] for i in ids]  # [a, b]: b - a
        shifts = np.unique(np.concatenate([d.ravel() for d in node_shifts]))
        comp = np.arange(c)
        rows, cols, vals = [], [], []
        r0 = 0
        for (M, lat, factor), d in zip(mats, node_shifts):
            p = len(lat)
            slot = np.searchsorted(shifts, d)
            # entry [a, i, b, j] of the patch matrix
            row = (slot[:, None, :, None] * c + comp[None, :, None, None]) * c \
                + comp[None, None, None, :]
            col = np.broadcast_to(r0 + np.arange(p)[:, None, None, None], row.shape)
            rows.append(row.ravel())
            cols.append(col.ravel())
            vals.append((factor * M).ravel())
            r0 += p
        Ct = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(len(shifts) * c * c, r0))
        # sorted columns: the product then adds each entry's terms in
        # (class, a) order
        Ct.sort_indices()
        Ct.eliminate_zeros()
        lattice = np.concatenate([lat for _, lat, _ in mats]).reshape(-1, 2)
        klass = np.repeat(np.arange(len(mats)), [len(lat) for _, lat, _ in mats])
        return Ct, shifts, lattice, klass

    # -- assembly -----------------------------------------------------------

    def assemble(self, weights=None, cells=None, rows=None,
                 columns=None) -> list[list[sp.csr_matrix]]:
        """Blocks of the matrix of a lattice window: every pair of every
        class with both elements in the cell window, scattered with
        ``factor`` times its weight.

        ``cells = (x0, x1, y0, y1)`` is the half-open cell rectangle of
        the window, the whole mesh by default.  ``weights`` is the
        (class, cy - y0, cx - x0) grid of the pairs anchored in the
        window as unsigned pair counts, whose reciprocals are the weights
        (a count of 0 weighs 0).  By default every pair with both elements
        in the window is counted once, so weighs 1.

        ``rows`` and ``columns`` are disjoint blocks of node ids, each
        sorted; by default one block of every node of the window and one
        of every mesh node.  The result ``blocks[i][j]`` holds the dofs of
        row block i against those of column block j, in block order, as
        CSR; columns in no block are left out.  Only the node rectangle
        bounding the row nodes, which must lie in the window, is
        scattered.

        The grid is zero-padded, in its own type, only as far as that
        rectangle reaches.  Row node q takes, for table column
        r = (class, a), the weight of anchor q - lattice[r], so per strip
        of node rows the shifted counts are one gather ``Wsh``
        (r x node), made weights there, and the entries are ``Ct @ Wsh``
        over (shift, node).  Each entry sums its (class, a) terms in table
        order.  With the shifts sorted, each row's columns come out
        sorted by node, and so within each column block, where place
        follows node; every entry goes straight to its block.
        """
        c = self.spec.components
        N, N1 = self.N, self.N + 1
        Ct, shifts, lat, klass = self._scatter_table
        x0, x1, y0, y1 = cells or (0, N, 0, N)
        if weights is None:
            # the validity mask as 0/1 counts: on a plane of ones, a
            # pair's second element reads 1 where it lies in the window
            classes = self.classes()
            weights = np.empty((len(classes), y1 - y0, x1 - x0), np.uint8)
            for chunk, _, inside in class_grids(
                    np.ones((2, y1 - y0, x1 - x0), np.uint8), classes):
                weights[chunk] = inside
        if rows is None:
            rows = [(np.arange(y0, y1 + 1)[:, None] * N1
                     + np.arange(x0, x1 + 1)).ravel()]
        if columns is None:
            columns = [np.arange(N1 * N1)]
        ny, nx = np.divmod(np.concatenate(rows), N1)
        rx0, rx1, ry0, ry1 = nx.min(), nx.max() + 1, ny.min(), ny.max() + 1
        L = rx1 - rx0
        # block and place of each node of the row box, and of each mesh
        # node as a column
        row_block, row_at = _places(
            [(v // N1 - ry0) * L + v % N1 - rx0 for v in rows],
            (ry1 - ry0) * L)
        col_block, col_at = _places(columns, N1 * N1)
        # grid of anchor cells gy0 + iy, gx0 + ix per class: every row
        # node minus every lattice offset, and nothing more
        lo, hi = lat.min(axis=0, initial=0), lat.max(axis=0, initial=1)
        gx0, gy0 = rx0 - hi[0], ry0 - hi[1]
        Wg, Hg = L + hi[0] - lo[0], ry1 - ry0 + hi[1] - lo[1]
        grid = np.zeros((len(weights), Hg, Wg), weights.dtype)
        ax0, ax1 = max(x0, gx0), min(x1, gx0 + Wg)
        ay0, ay1 = max(y0, gy0), min(y1, gy0 + Hg)
        grid[:, ay0 - gy0:ay1 - gy0, ax0 - gx0:ax1 - gx0] = \
            weights[:, ay0 - y0:ay1 - y0, ax0 - x0:ax1 - x0]
        del weights
        # table column r reads the weight of node (y, x) from grid row
        # top[r] + y and column left[r] + x - rx0
        top = klass * Hg - lat[:, 1] - gy0
        left = rx0 - lat[:, 0] - gx0
        grid = grid.reshape(-1, Wg)
        S = len(shifts)
        index = np.int32 if c * N1 * N1 <= np.iinfo(np.int32).max else np.int64
        # per block: data, column and row-length pieces, and rows done
        parts = [[([], [], []) for _ in columns] for _ in rows]
        done = np.zeros(len(rows), np.intp)
        step = max(1, _STRIP_ENTRIES // (max(Ct.shape) * L))  # node rows
        for y in range(ry0, ry1, step):
            h = min(step, ry1 - y)
            Wsh = sliding_window_view(grid, (h, L))[top + y, left]
            Wsh = Wsh.reshape(len(lat), h * L)
            Wsh = _reciprocal(Wsh)
            # (shift, i, j, node) -> rows (node, i), columns (shift, j)
            acc = (Ct @ Wsh).reshape(S, c, c, h * L)
            acc = acc.transpose(3, 1, 0, 2).reshape(h * L * c, S * c)
            nz = acc != 0
            row, col = np.nonzero(nz)
            vals = acc[nz]
            box = (y - ry0) * L + row // c
            node = ((y + np.arange(h))[:, None] * N1 + np.arange(rx0, rx1)).ravel()
            target = node[row // c] + shifts[col // c]
            local_row = c * row_at[box] + row % c
            local_col = (c * col_at[target] + col % c).astype(index)
            in_col = [col_block[target] == j for j in range(len(columns))]
            in_block = row_block[box]
            strip = row_block[(y - ry0) * L:(y - ry0 + h) * L]
            for i, blocks in enumerate(parts):
                in_row = in_block == i
                # block i's rows in this strip follow the ones done
                size = c * np.count_nonzero(strip == i)
                for (data, cols, lengths), mask in zip(blocks, in_col):
                    mask = mask & in_row
                    data.append(vals[mask])
                    cols.append(local_col[mask])
                    lengths.append(np.bincount(local_row[mask] - done[i],
                                               minlength=size))
                done[i] += size
        del grid
        # each block's pieces are dropped once it is joined
        return [[_joined(*blocks.pop(0), (c * len(rblock), c * len(cblock)))
                 for cblock in columns]
                for blocks, rblock in zip(parts, rows)]

    # -- load vector --------------------------------------------------------

    def load_moments(self, f) -> np.ndarray:
        """Element moments ``int_E psi_a f`` of every element E, shape
        (n_elements, 3 local vertices, components)."""
        mesh = self.mesh
        bary, wts = triangle_rule(_LOAD_DEGREE)
        tri_verts = mesh.vertices[mesh.elements]
        pts = np.einsum("qb,ebx->eqx", bary, tri_verts)
        fv = np.asarray(f(pts.reshape(-1, 2)), dtype=float)
        fv = fv.reshape(mesh.n_elements, len(wts), self.spec.components)
        return np.einsum("e,q,qa,eqc->eac", triangle_area(tri_verts), wts,
                         bary, fv)

    def assemble_load(self, moments: np.ndarray, elements: tuple | None = None,
                      nodes: np.ndarray | None = None) -> np.ndarray:
        """Load vector from the ``load_moments`` over the dofs of the
        distinct ``nodes``, in their order (every mesh node by default);
        with ``elements = (els, w)`` summed over the elements ``els``
        only, each scaled by its weight in ``w``.  Each entry adds its
        terms in element order; vertices outside ``nodes`` are dropped."""
        mesh = self.mesh
        c = self.spec.components
        tri = mesh.elements
        if elements is not None:
            els, w = elements
            tri, moments = tri[els], moments[els] * w[:, None, None]
        nodes = np.arange(mesh.n_vertices) if nodes is None else nodes
        # the place of each element vertex among the nodes, -1 for none,
        # from a table over the range of vertex ids the elements span
        lo, hi = (tri.min(), tri.max()) if tri.size else (0, -1)
        place = np.full(hi - lo + 1, -1)
        inside = (lo <= nodes) & (nodes <= hi)
        place[nodes[inside] - lo] = np.flatnonzero(inside)
        at = place[tri - lo]
        kept = at >= 0
        at, moments = at[kept], moments[kept]
        out = np.zeros(c * len(nodes))
        for i in range(c):
            np.add.at(out, c * at + i, moments[:, i])
        return out


# ---------------------------------------------------------------------------
# Global assembled system


@dataclass
class AssembledSystem:
    """Reduced global system  A u = f - B g  over unknown dofs.

    ``A``, ``B_coupling``, ``moments`` and ``load`` are made on first
    read, from the forcing ``f``, by the run's ``assembler``, whose
    scatter table the subdomains share.  ``g`` holds the constraint
    values of every collar dof, in ``collar_dofs`` order.  A FETI build
    reads the mesh, the spec, the assembler, the ``moments`` and ``g``,
    and still makes no scatter over the whole mesh.
    """

    mesh: Mesh
    spec: KernelSpec
    g: np.ndarray
    interior_dofs: np.ndarray
    collar_dofs: np.ndarray
    assembler: Assembler = field(repr=False)
    f: Callable = field(repr=False)

    @functools.cached_property
    def _blocks(self) -> list[sp.csr_matrix]:
        """[A, B_coupling]: the interior rows against the interior and
        the collar columns."""
        nodes = [self.mesh.interior_nodes, self.mesh.collar_nodes]
        [blocks] = self.assembler.assemble(rows=nodes[:1], columns=nodes)
        return blocks

    @property
    def A(self) -> sp.csr_matrix:
        return self._blocks[0]

    @property
    def B_coupling(self) -> sp.csr_matrix:
        return self._blocks[1]

    @functools.cached_property
    def moments(self) -> np.ndarray:
        """The forcing's ``Assembler.load_moments``."""
        return self.assembler.load_moments(self.f)

    @functools.cached_property
    def load(self) -> np.ndarray:
        return self.assembler.assemble_load(self.moments,
                                            nodes=self.mesh.interior_nodes)

    @property
    def rhs(self) -> np.ndarray:
        return self.load - self.B_coupling @ self.g


def _reciprocal(n: np.ndarray) -> np.ndarray:
    """1 / n where n > 0, 0 elsewhere."""
    return np.divide(1.0, n, out=np.zeros(n.shape), where=n > 0)


def _places(blocks, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(block, place) of each id below ``size`` among the disjoint sorted
    id arrays ``blocks``; block -1 for the ids in none."""
    block = np.full(size, -1, dtype=np.intp)
    place = np.zeros(size, dtype=np.intp)
    for i, ids in enumerate(blocks):
        if np.any(np.diff(ids) <= 0):
            raise ValueError(f"node block {i} is not strictly increasing")
        block[ids] = i
        place[ids] = np.arange(len(ids))
    return block, place


def _joined(data: list, cols: list, lengths: list, shape) -> sp.csr_matrix:
    """CSR matrix from the per-strip pieces of its data, column indices
    and row lengths; each list of pieces is emptied once joined."""
    joined = []
    for pieces in (data, cols, lengths):
        joined.append(np.concatenate(pieces))
        pieces.clear()
    data, cols, lengths = joined
    return sp.csr_matrix((data, cols, np.concatenate([[0], np.cumsum(lengths)])),
                         shape=shape)


def _node_dofs(nodes: np.ndarray, c: int) -> np.ndarray:
    if c == 1:
        return nodes
    return np.stack([c * nodes, c * nodes + 1], axis=1).ravel()


def assemble_global(
    mesh: Mesh,
    spec: KernelSpec,
    f,
    g,
    assembler: Assembler | None = None,
) -> AssembledSystem:
    """The volume-constrained global system, assembled on first read.

    ``f`` is the forcing on the interior, ``g`` the constraint data on
    the collar; both map (m, 2) point arrays to values.
    """
    c = spec.components
    gv = np.asarray(g(mesh.vertices[mesh.collar_nodes]), dtype=float).reshape(-1)
    return AssembledSystem(
        mesh=mesh,
        spec=spec,
        g=gv,
        interior_dofs=_node_dofs(mesh.interior_nodes, c),
        collar_dofs=_node_dofs(mesh.collar_nodes, c),
        assembler=assembler or Assembler(mesh, spec),
        f=f,
    )
