"""Shared fixtures: meshes, kernels, and cached global solves."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from nlfeti import assembly
from nlfeti.assembly import Assembler, QuadratureConfig, assemble_global
from nlfeti.geometry import (clip_polygon_halfplane, fan_triangulate,
                             interacting_classes)
from nlfeti.kernels import KernelSpec, kernel_on_support
from nlfeti.mesh import INTERIOR, build_structured_mesh, p1_values
from nlfeti.problems import manufactured_problem
from nlfeti.quadrature import map_to_physical, triangle_rule
from nlfeti.subdivision import partition_rectangles


def make_spec(family: str, delta: float) -> KernelSpec:
    return KernelSpec(family, delta, 0.4 if family == "fractional" else None)


def refined_quadrature() -> QuadratureConfig:
    """The default rule with all orders bumped (for self-convergence
    checks)."""
    q = QuadratureConfig()
    return QuadratureConfig(
        outer_degree=q.outer_degree + 2,
        inner_degree=q.inner_degree + 2,
        angular_points=2 * q.angular_points,
        transform_points=q.transform_points + 4,
        transform_panels=q.transform_panels + 4,
        cut_subdiv=q.cut_subdiv + 1,
        arc_segments=2 * q.arc_segments,
        polar_angular=q.polar_angular + 4,
    )


def assert_csr_bitwise(got, want) -> None:
    """Same shape, sparsity pattern and bytes of every stored value."""
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


def clip_triangle_square(tri, center, r) -> np.ndarray:
    """Oracle: a triangle clipped against the axis-aligned square of
    half-width r around ``center`` by four ``clip_polygon_halfplane``
    calls, one polygon at a time."""
    poly = np.asarray(tri, dtype=float)
    cx, cy = center
    for normal, offset in (((1.0, 0.0), cx + r), ((-1.0, 0.0), -(cx - r)),
                           ((0.0, 1.0), cy + r), ((0.0, -1.0), -(cy - r))):
        poly = clip_polygon_halfplane(poly, np.asarray(normal), offset)
        if len(poly) == 0:
            break
    return poly


def square_pair_matrix(v1, v2, spec: KernelSpec, quad: QuadratureConfig,
                       cells=None, outer_degree=None) -> np.ndarray:
    """Oracle: the constant-kernel pair matrix of ``pair_matrix`` formed
    one outer point at a time.  Around each outer point of the rule of
    degree ``outer_degree`` (``max(outer_degree, 5)`` of ``quad`` by
    default) on the (k, 3, 2) ``cells`` (v1 by default), v2 is taken
    whole when it lies inside the square of half-width delta, and is
    otherwise clipped by ``clip_triangle_square`` and fanned by
    ``fan_triangulate``; one contraction takes every inner point."""
    _, loc1, loc2 = assembly._patch(v1, v2)
    cells = v1[None] if cells is None else cells
    X, WX = map_to_physical(cells, *triangle_rule(
        outer_degree or max(quad.outer_degree, 5)))
    X, WX = X.reshape(-1, 2), WX.ravel()
    inner = []
    for x in X:
        if np.max(np.abs(v2 - x)) <= spec.delta:
            subs = [v2]
        else:
            subs = fan_triangulate(clip_triangle_square(v2, x, spec.delta))
        ys, ws = map_to_physical(np.reshape(subs, (-1, 3, 2)),
                                 *triangle_rule(quad.inner_degree))
        inner.append((ys.reshape(-1, 2), ws.ravel()))
    owner = np.repeat(np.arange(len(X)), [len(w) for _, w in inner])
    Y = np.concatenate([y for y, _ in inner])
    W = np.concatenate([w for _, w in inner])
    D = assembly._basis_differences(p1_values(v1, X)[owner],
                                    p1_values(v2, Y), loc1, loc2)
    M = np.zeros((len(loc1), len(loc1)))
    M += assembly._tensor_contract(spec, WX[owner] * W,
                                   kernel_on_support(spec, Y - X[owner]), D)
    return M


def interacting_pairs(mesh, linf: bool):
    """(key, e1, e2) per class key = (dx, dy, t1, t2) of
    ``interacting_classes`` on the mesh's horizon but (0, 0, t, t): its
    pairs with an interior element, e1 of type t1 in cell (x, y) and e2
    of type t2 in cell (x + dx, y + dy), sliced per class out of the
    mesh's grid of element ids.  The oracle of the pairs
    ``verify_coverage`` checks."""
    N = mesh.cells_per_side
    cell = np.arange(N * N).reshape(N, N)
    interior = (mesh.element_region == INTERIOR).reshape(N, N, 2)
    # |dx|, dy <= R + 1 < N: every slice bound below lies in [0, N]
    for key in interacting_classes(round(mesh.delta * mesh.n), linf):
        dx, dy, t1, t2 = key
        if dx == dy == 0 and t1 == t2:
            continue
        first = (slice(0, N - dy), slice(max(0, -dx), N - max(0, dx)))
        second = (slice(dy, N), slice(max(0, dx), N - max(0, -dx)))
        keep = interior[first + (t1,)] | interior[second + (t2,)]
        yield key, 2 * cell[first][keep] + t1, 2 * cell[second][keep] + t2


def holds(sub, k: int) -> np.ndarray:
    """Mask of the elements subdomain k holds, read off the whole
    membership column."""
    return (sub.membership[:, k >> 3] & np.uint8(1 << (k & 7))) != 0


def pair_counts(sub, k: int, nodes=None):
    """``(e1, e2) -> n``, element pair by element pair: the number of
    subdomains holding both elements where subdomain k holds both and,
    if ``nodes`` are given, one of the two has a vertex among them; 0
    elsewhere.  The oracle of ``Subdivision.pair_counts``."""
    m = sub.membership
    held = holds(sub, k)
    near = None
    if nodes is not None:
        near = np.zeros(sub.mesh.n_vertices, bool)
        near[nodes] = True
        near = near[sub.mesh.elements].any(axis=1)

    def counts(e1, e2):
        n = np.zeros(len(e1), np.min_scalar_type(sub.K))
        hit = held[e1] & held[e2]
        if near is not None:
            hit &= near[e1] | near[e2]
        hit = np.flatnonzero(hit)
        n[hit] = np.bitwise_count(np.take(m, e1[hit], axis=0)
                                  & np.take(m, e2[hit], axis=0)).sum(axis=1)
        return n

    return counts


def reciprocals(counts):
    """``(e1, e2) -> w``: the reciprocal of ``counts(e1, e2)``, 0 where
    the count is 0."""

    def weights(e1, e2):
        n = counts(e1, e2)
        return np.divide(1.0, n, out=np.zeros(n.shape), where=n > 0)

    return weights


def pair_weights(sub, k: int):
    """``(e1, e2) -> w``: the reciprocal number of subdomains holding
    both elements where subdomain k holds both, 0 elsewhere."""
    return reciprocals(pair_counts(sub, k))


def weight_grid(asm, pair_weights, cells=None) -> np.ndarray:
    """(class, cy - y0, cx - x0) grid of ``pair_weights(e1, e2)``, called
    once on the element ids of every pair anchored in the cell window
    ``cells`` (the whole mesh by default) with both elements in it, in
    the type it returns; 0 at every other anchor."""
    N = asm.N
    x0, x1, y0, y1 = cells or (0, N, 0, N)
    dx, dy, t1, t2 = np.array(asm.classes()).reshape(-1, 4).T
    e1 = 2 * (np.arange(y0, y1)[:, None] * N + np.arange(x0, x1))[None] \
        + t1[:, None, None]
    e2 = e1 + (2 * (dy * N + dx) + t2 - t1)[:, None, None]
    inside = ((e2 // 2 // N >= y0) & (e2 // 2 // N < y1)
              & (e2 // 2 % N >= x0) & (e2 // 2 % N < x1)
              & (e1 // 2 % N + dx[:, None, None] == e2 // 2 % N))
    w = pair_weights(e1[inside], e2[inside])
    grid = np.zeros(inside.shape, w.dtype)
    grid[inside] = w
    return grid


def n_G(s) -> int:
    """Number of interface dofs of a subdomain system."""
    return s.A_GG.shape[0]


def full_mesh_load(asm, moments, sub, k: int) -> np.ndarray:
    """Subdomain k's load as a sum over every mesh element, each element
    weighted by its reciprocal multiplicity on the interior elements k
    holds and by 0 elsewhere.  The oracle of ``Assembler.assemble_load``
    over the held elements only."""
    els = np.flatnonzero(holds(sub, k)
                         & (asm.mesh.element_region == INTERIOR))
    w = np.zeros(asm.mesh.n_elements)
    w[els] = 1.0 / np.bitwise_count(sub.membership[els]).sum(axis=1)
    weighted = moments * w[:, None, None]
    c = asm.spec.components
    out = np.zeros(c * asm.mesh.n_vertices)
    for i in range(c):
        np.add.at(out, c * asm.mesh.elements + i, weighted[:, :, i])
    return out


def rectangle_owner(mesh, rects) -> np.ndarray:
    """Owner subdomain of every element under the cell rectangles
    ``rects`` (x0, x1, y0, y1), -1 on elements in no rectangle: the
    element-by-element form of ``partition_rectangles``."""
    cy, cx = np.divmod(np.arange(mesh.n_elements) // 2, mesh.cells_per_side)
    owner = np.full(mesh.n_elements, -1)
    for k, (x0, x1, y0, y1) in enumerate(rects):
        owner[(x0 <= cx) & (cx < x1) & (y0 <= cy) & (cy < y1)] = k
    return owner


def strip_to_owned(sub, k1: int, k2: int) -> None:
    """Sabotage a k1 x k2 subdivision: clear the membership bits of every
    subdomain's overlap elements, so pairs straddling a partition
    boundary lose their common subdomain."""
    owner = rectangle_owner(sub.mesh, partition_rectangles(sub.mesh, k1, k2))
    for k in range(sub.K):
        extra = (owner >= 0) & (owner != k)
        sub.membership[extra, k // 8] &= np.uint8(~(1 << (k % 8)) & 0xFF)


class SolveCache:
    """Memoizes assemblers, global systems, and direct solves so the
    many FETI comparisons don't re-assemble identical problems."""

    def __init__(self):
        self._meshes = {}
        self._assemblers = {}
        self._systems = {}
        self._direct = {}

    def mesh(self, n: int, delta: float):
        key = (n, delta)
        if key not in self._meshes:
            self._meshes[key] = build_structured_mesh(n, delta)
        return self._meshes[key]

    def assembler(self, family: str, n: int, delta: float) -> Assembler:
        key = (family, n, delta)
        if key not in self._assemblers:
            self._assemblers[key] = Assembler(
                self.mesh(n, delta), make_spec(family, delta))
        return self._assemblers[key]

    def system(self, family: str, n: int, delta: float):
        key = (family, n, delta)
        if key not in self._systems:
            prob = manufactured_problem(family)
            self._systems[key] = assemble_global(
                self.mesh(n, delta), make_spec(family, delta),
                prob.forcing, prob.exact,
                assembler=self.assembler(family, n, delta))
        return self._systems[key]

    def direct_solution(self, family: str, n: int, delta: float) -> np.ndarray:
        key = (family, n, delta)
        if key not in self._direct:
            sysm = self.system(family, n, delta)
            self._direct[key] = spla.spsolve(sysm.A.tocsc(), sysm.rhs)
        return self._direct[key]


@pytest.fixture(scope="session")
def cache() -> SolveCache:
    return SolveCache()


@pytest.fixture
def assembler_calls(monkeypatch) -> dict:
    """Spies on every ``Assembler``: ``calls["assemble"]`` lists the
    ``cells`` window of each ``assemble`` call (None for the whole mesh)
    and ``calls["load_moments"]`` counts the ``load_moments`` calls."""
    calls = {"assemble": [], "load_moments": 0}
    assemble, load_moments = Assembler.assemble, Assembler.load_moments

    def spy_assemble(self, weights=None, cells=None, *args, **kwargs):
        calls["assemble"].append(cells)
        return assemble(self, weights, cells, *args, **kwargs)

    def spy_load_moments(self, f):
        calls["load_moments"] += 1
        return load_moments(self, f)

    monkeypatch.setattr(Assembler, "assemble", spy_assemble)
    monkeypatch.setattr(Assembler, "load_moments", spy_load_moments)
    return calls
