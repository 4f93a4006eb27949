"""Square clipping, cell splitting, the outer cells of disjoint pairs and
the class-grid reader."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nlfeti import assembly, geometry
from nlfeti.assembly import Assembler, QuadratureConfig, pair_matrix
from nlfeti.geometry import (_segment_distance, class_grids,
                             clip_polygon_halfplane, clip_triangles_square,
                             disk_interaction_cells, fan_triangles,
                             fan_triangulate, interacting_classes,
                             triangle_distances)
from nlfeti.kernels import KernelSpec
from nlfeti.mesh import _TRI_T, build_structured_mesh
from nlfeti.quadrature import map_to_physical, triangle_rule

from conftest import (clip_triangle_square, make_spec, square_pair_matrix,
                      weight_grid)


def _tri_area(t):
    return 0.5 * abs((t[1]-t[0])[0]*(t[2]-t[0])[1] - (t[1]-t[0])[1]*(t[2]-t[0])[0])


def _cells_area(cells):
    return sum(_tri_area(c) for c in cells)


TRI = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])


def _clipped_area(tri, center, r):
    """Area of the fan of ``tri`` clipped by the batch, as a batch of
    one."""
    pieces, _ = fan_triangles(*clip_triangles_square(
        np.array([tri]), np.array([center], dtype=float), r))
    return _cells_area(pieces)


def test_square_clip_full_and_empty():
    assert np.isclose(_clipped_area(TRI, (0.5, 0.5), 2.0), 0.5)
    polys, counts = clip_triangles_square(TRI[None], np.array([[5.0, 5.0]]),
                                          1.0)
    assert counts.tolist() == [0] and polys.shape == (1, 0, 2)


def test_square_clip_half():
    # square [0,1]x[-0.5,0.5] cuts the unit right triangle at y=0.5,
    # removing the top corner of area 1/8
    assert np.isclose(_clipped_area(TRI, (0.5, 0.0), 0.5), 0.375)
    # square [-0.5,0.5]^2 keeps the half-square below the diagonal,
    # {0 <= y <= x <= 0.5}, area 1/8
    assert np.isclose(_clipped_area(TRI, (0.0, 0.0), 0.5), 0.125)


@settings(deadline=None, max_examples=40)
@given(cx=st.floats(-1.5, 2.5), cy=st.floats(-1.5, 2.5),
       r=st.floats(0.05, 2.0))
def test_square_clip_bounded_by_both(cx, cy, r):
    area = _clipped_area(TRI, (cx, cy), r)
    assert area <= 0.5 + 1e-12
    assert area <= (2 * r) ** 2 + 1e-12


# Coordinates on a coarse grid put vertices on square sides and edges
# along them far more often than uniform floats do.
_COORD = st.one_of(st.floats(-3.0, 3.0),
                   st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]))
_SQUARE_CASES = [  # (triangle, centre) against the square of half-width 1
    ([(-0.5, -0.5), (0.5, -0.5), (0.0, 0.5)], (0.0, 0.0)),  # inside
    ([(2.0, 2.0), (3.0, 2.0), (2.0, 3.0)], (0.0, 0.0)),  # outside
    ([(1.0, 0.0), (2.0, 0.5), (2.0, -0.5)], (0.0, 0.0)),  # vertex on a side
    ([(1.0, 0.0), (0.0, 0.5), (0.0, -0.5)], (0.0, 0.0)),
    ([(1.0, -0.5), (1.0, 0.5), (0.0, 0.0)], (0.0, 0.0)),  # edge along a side
    ([(1.0, -0.5), (1.0, 0.5), (2.0, 0.0)], (0.0, 0.0)),
    ([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0)], (0.0, 0.0)),
    ([(-5.0, -5.0), (5.0, -5.0), (0.0, 5.0)], (0.0, 0.0)),  # square inside
    ([(0.5, 0.5), (1.5, 0.5), (1.5, 1.5)], (1.0, 1.0)),
    # a vertex exactly _EPS beyond, then within, the side x <= 0: kept,
    # and no cut on either edge
    ([(1e-14, 0.0), (-0.5, 0.5), (-0.5, -0.5)], (-1.0, 0.0)),
    ([(-1e-14, 0.0), (0.5, 0.5), (0.5, -0.5)], (-1.0, 0.0)),
]


@settings(deadline=None, max_examples=200)
@given(cases=st.lists(st.tuples(st.lists(st.tuples(_COORD, _COORD),
                                         min_size=3, max_size=3),
                                st.tuples(_COORD, _COORD)),
                      min_size=1, max_size=8),
       r=st.one_of(st.floats(0.01, 3.0), st.sampled_from([0.5, 1.0, 2.0])))
@example(cases=_SQUARE_CASES, r=1.0)
@example(cases=_SQUARE_CASES[7:], r=0.5)
def test_batched_square_clip_equals_per_polygon_clip(cases, r):
    """Polygon by polygon, the batched clip has the vertex count and the
    vertex bytes of four ``clip_polygon_halfplane`` calls, and its pad is
    zero; the batched fan has the triangles of ``fan_triangulate`` of
    each polygon, in polygon order and fan order."""
    tris = np.array([tri for tri, _ in cases], dtype=float)
    centers = np.array([center for _, center in cases], dtype=float)
    polys, counts = clip_triangles_square(tris, centers, r)
    want = [clip_triangle_square(tri, center, r)
            for tri, center in zip(tris, centers)]
    assert counts.tolist() == [len(w) for w in want]
    for poly, count, w in zip(polys, counts, want):
        assert poly[:count].tobytes() == np.asarray(w, float).tobytes()
        assert not poly[count:].any()
    pieces, owner = fan_triangles(polys, counts)
    fans = [fan_triangulate(w) for w in want]
    assert owner.tolist() == [k for k, fan in enumerate(fans) for _ in fan]
    assert pieces.tobytes() == np.array(
        [t for fan in fans for t in fan]).reshape(-1, 3, 2).tobytes()


def test_interaction_cells_partition_outer_triangle():
    """Splitting an outer triangle along ball-boundary break lines must
    repartition it exactly (the union of cells is the triangle)."""
    inner = TRI + np.array([0.6, 0.3])
    cells = disk_interaction_cells(TRI, inner, 0.5, arc_segments=3)
    assert np.isclose(_cells_area(cells), 0.5, atol=1e-12)
    for c in cells:
        assert _tri_area(c) > 0


def _polygon_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def square_interaction_cells(tri_outer, tri_inner, r):
    """Oracle: split the outer triangle along every line where the
    combinatorics of ``tri_inner`` clipped by the square of half-width
    ``r`` around the moving point can change.

    Those events are (a) an inner vertex crossing a square side (four
    axis-aligned lines per vertex) and (b) a square corner crossing an
    inner edge line (four parallel lines per edge).  Inside each cell of
    the arrangement the clipped polygon has vertices affine in the outer
    point, so the pair integrand of a piecewise-constant kernel is a
    polynomial there and fixed-order Gauss rules are exact.
    """
    tri_inner = np.asarray(tri_inner, dtype=float)
    lines = []
    ex = np.array([1.0, 0.0])
    ey = np.array([0.0, 1.0])
    for v in tri_inner:
        for n, coord in ((ex, v[0]), (ey, v[1])):
            lines.append((n, coord - r))
            lines.append((n, coord + r))
    for i in range(3):
        a, b = tri_inner[i], tri_inner[(i + 1) % 3]
        e = b - a
        n = np.array([-e[1], e[0]])
        nn = np.linalg.norm(n)
        if nn < 1e-30:
            continue
        n = n / nn
        c = float(n @ a)
        for s1 in (-1.0, 1.0):
            for s2 in (-1.0, 1.0):
                lines.append((n, c - r * (s1 * n[0] + s2 * n[1])))
    polys = [np.asarray(tri_outer, dtype=float)]
    for n, c in lines:
        nxt = []
        for poly in polys:
            for half in (clip_polygon_halfplane(poly, n, c),
                         clip_polygon_halfplane(poly, -n, -c)):
                if len(half) >= 3 and _polygon_area(half) > 1e-28:
                    nxt.append(half)
        polys = nxt
    cells = []
    for poly in polys:
        cells.extend(fan_triangulate(poly))
    return cells


@settings(deadline=None, max_examples=8)
@given(n=st.integers(2, 16), ratio=st.integers(1, 4))
@example(n=10, ratio=3)  # delta = 0.3, not a power of two
@example(n=13, ratio=5)  # delta = 5/13
def test_lattice_constant_classes_need_one_outer_cell(n, ratio):
    """With delta * n an integer every line of the square arrangement
    lies at an integer cell offset, so no constant-kernel class splits:
    the arrangement is the outer element itself, and the pair rule on
    its cells is the class matrix of the assembler byte for byte.  Class
    matrices are computed on the integer lattice (cell side 1) with the
    horizon in cell units, R = delta * n, so the oracle is built there."""
    # off the lattice the oracle does split, into a tiling
    off = square_interaction_cells(TRI, TRI + np.array([0.6, 0.3]), 0.5)
    assert len(off) > 1 and np.isclose(_cells_area(off), 0.5, atol=1e-12)
    delta = ratio / n
    mesh = build_structured_mesh(n, delta)
    asm = Assembler(mesh, KernelSpec("constant", delta))
    spec, quad = KernelSpec("constant", delta * n), asm.quad
    for key, (got, _, _) in zip(asm.classes(),
                                asm.class_matrices(asm.classes())):
        dx, dy, t1, t2 = key
        v1 = _TRI_T[t1].astype(float)
        v2 = (_TRI_T[t2] + (dx, dy)).astype(float)
        cells = square_interaction_cells(v1, v2, spec.delta)
        if (dx, dy, t1) != (0, 0, t2):
            M = square_pair_matrix(v1, v2, spec, quad, np.array(cells))
            assert M.tobytes() == got.tobytes(), key
        assert len(cells) == 1 and np.array_equal(cells[0], v1), key


@pytest.mark.parametrize("R", [2, 3, 4, 5])
def test_disk_cells_with_areas_in_one_pass_change_no_byte(R, monkeypatch):
    """The cells of every disjoint class straddling the horizon at
    R = 2..5 come out byte-equal whether the split keeps its pieces by
    areas taken in one pass or polygon by polygon, so the class matrices
    of the singular kernels keep their bytes."""
    pairs = []
    for dx, dy, t1, t2 in interacting_classes(R, False):
        v1 = _TRI_T[t1].astype(float)
        v2 = (_TRI_T[t2] + (dx, dy)).astype(float)
        gaps = np.linalg.norm(v1[:, None] - v2[None], axis=2)
        if gaps.min() > 0 and gaps.max() > R:
            pairs.append((v1, v2))
    assert pairs
    arcs = QuadratureConfig().arc_segments
    got = [disk_interaction_cells(v1, v2, R, arcs) for v1, v2 in pairs]
    monkeypatch.setattr(geometry, "_polygon_areas", lambda polys: np.array(
        [_polygon_area(p) for p in polys]))
    for (v1, v2), cells in zip(pairs, got):
        want = disk_interaction_cells(v1, v2, R, arcs)
        assert np.array(cells).tobytes() == np.array(want).tobytes()


@settings(deadline=None, max_examples=25)
@given(dx=st.floats(-1.5, 1.5), dy=st.floats(-1.5, 1.5),
       r=st.floats(0.2, 1.2))
def test_disk_cells_always_tile(dx, dy, r):
    inner = TRI + np.array([dx, dy])
    cells = disk_interaction_cells(TRI, inner, r, arc_segments=2)
    assert np.isclose(_cells_area(cells), 0.5, atol=1e-10)


def closest_point_triangle(p, tri):
    """Oracle: the closest point of a triangle to ``p`` (Ericson,
    *Real-Time Collision Detection*, 2005, 5.1.5), which the replaced
    cell distances projected onto."""
    a, b, c = np.asarray(tri, dtype=float)
    ab, ac, ap = b - a, c - a, p - a
    d1, d2 = ab @ ap, ac @ ap
    if d1 <= 0 and d2 <= 0:
        return a
    bp = p - b
    d3, d4 = ab @ bp, ac @ bp
    if d3 >= 0 and d4 <= d3:
        return b
    vc = d1 * d4 - d3 * d2
    if vc <= 0 and d1 >= 0 and d3 <= 0:
        return a + (d1 / (d1 - d3)) * ab
    cp = p - c
    d5, d6 = ab @ cp, ac @ cp
    if d6 >= 0 and d5 <= d6:
        return c
    vb = d5 * d2 - d1 * d6
    if vb <= 0 and d2 >= 0 and d6 <= 0:
        return a + (d2 / (d2 - d6)) * ac
    va = d3 * d6 - d5 * d4
    if va <= 0 and (d4 - d3) >= 0 and (d5 - d6) >= 0:
        return b + ((d4 - d3) / ((d4 - d3) + (d5 - d6))) * (c - b)
    denom = 1.0 / (va + vb + vc)
    return a + ab * (vb * denom) + ac * (vc * denom)


def _oracle_distance(p, tri):
    return np.linalg.norm(p - closest_point_triangle(p, tri))


def test_point_edge_distance_outside_a_triangle():
    """Outside a triangle its least point-to-edge distance is the distance
    to its closest point."""
    rng = np.random.default_rng(3)
    pts = np.concatenate([[[2.0, 0.5], [-1.0, -1.0], [0.5, 0.7]],
                          rng.uniform(-2.0, 3.0, (400, 2))])
    got = _segment_distance(pts[:, None], TRI, TRI[[1, 2, 0]]).min(axis=1)
    want = np.array([_oracle_distance(p, TRI) for p in pts])
    assert got[0] == 1.0
    outside = want > 1e-12  # inside, the oracle returns p up to rounding
    assert outside.sum() > 300
    assert np.allclose(got[outside], want[outside], rtol=1e-12, atol=1e-15)


def _edge_samples(tri, m=40):
    t = np.linspace(0.0, 1.0, m)[:, None]
    return np.concatenate([tri[i] + t * (tri[(i + 1) % 3] - tri[i])
                           for i in range(3)])


def test_triangle_distances():
    """For triangles on the far side of a line from TRI, the distance is
    that of the nearest vertex of either triangle from the other one (the
    projection oracle), and no two boundary samples of the two triangles
    come closer."""
    rng = np.random.default_rng(5)
    cells = rng.uniform(-1.0, 1.0, (200, 3, 2))
    ang = rng.uniform(0.0, 2.0 * np.pi, 200)
    n = np.column_stack([np.cos(ang), np.sin(ang)])
    gap = rng.uniform(0.0, 0.8, 200)
    # shift each cell along n past the line n . x = max(TRI @ n) + gap
    lead = (TRI @ n.T).max(axis=0) - np.einsum("kvx,kx->kv", cells, n).min(axis=1)
    cells += ((lead + gap)[:, None] * n)[:, None, :]
    got = triangle_distances(cells, TRI)
    for cell, d in zip(cells, got):
        want = min(min(_oracle_distance(v, TRI) for v in cell),
                   min(_oracle_distance(w, cell) for w in TRI))
        assert np.isclose(d, want, rtol=1e-12, atol=1e-15)
        pairs = _edge_samples(cell)[:, None] - _edge_samples(TRI)[None]
        assert d <= np.linalg.norm(pairs, axis=2).min() + 1e-12


# The replaced set-up of the outer cells of a disjoint pair, as oracle.

def _projected_level(cell, v2, diam, quad, straddle):
    """The replaced ``_proximity_level``: an alternating projection between
    the cell and the inner element, which bounds their distance from
    above."""
    p = closest_point_triangle(cell.mean(axis=0), v2)
    for _ in range(3):
        q = closest_point_triangle(p, cell)
        p = closest_point_triangle(q, v2)
    dist = float(np.linalg.norm(p - q))
    if dist < 1.5 * diam:
        lev = quad.cut_subdiv - 2
    elif straddle:
        lev = quad.cut_subdiv - 3
    else:
        lev = 0
    return max(lev, 0)


def _subdivide_list(tri, levels):
    """The replaced list subdivision into 4^levels triangles."""
    out = [np.asarray(tri, dtype=float)]
    for _ in range(levels):
        nxt = []
        for t in out:
            m01 = 0.5 * (t[0] + t[1])
            m12 = 0.5 * (t[1] + t[2])
            m20 = 0.5 * (t[2] + t[0])
            nxt.extend([
                np.array([t[0], m01, m20]),
                np.array([m01, t[1], m12]),
                np.array([m20, m12, t[2]]),
                np.array([m01, m12, m20]),
            ])
        out = nxt
    return out


def _replaced_outer_cells(v1, v2, spec, quad):
    """The outer cells (a list) and outer rule degree that the replaced
    ``pair_matrix`` gave ``regular_pair_matrix``."""
    if not spec.singular:
        return [v1], max(quad.outer_degree, 5)
    straddle = assembly._straddles_horizon(v1, v2, spec)
    if straddle:
        cells = disk_interaction_cells(v1, v2, spec.delta, quad.arc_segments)
    else:
        cells = [v1]
    diam = max(np.linalg.norm(v1[1] - v1[0]), np.linalg.norm(v1[2] - v1[0]),
               np.linalg.norm(v1[2] - v1[1]))
    outer = []
    for cell in cells:
        lev = _projected_level(cell, v2, diam, quad, straddle)
        outer.extend(_subdivide_list(cell, lev) if lev else [cell])
    return outer, max(quad.outer_degree, 5) if straddle else quad.outer_degree


def test_subdivision_keeps_the_list_order():
    """Mixed levels subdivide each triangle in place, in the child order
    and with the midpoints of the list version; a level below 1 keeps a
    triangle whole."""
    tris = np.array([TRI, TRI[::-1] + 2.0, TRI * 0.3 - 1.0, TRI + 0.1])
    levels = [2, 0, 1, -1]
    want = [t for tri, lev in zip(tris, levels)
            for t in _subdivide_list(tri, lev)]
    got = assembly.subdivide_triangle(tris, levels)
    assert got.tobytes() == np.array(want).tobytes()


# The classes at R = 3 where the projection overshot the distance and
# left an outer cell one level too coarse.
_MOVED_AT_3 = {(-2, 1, 0, 1), (-1, 2, 0, 1)}


@pytest.mark.parametrize("family,R", [
    ("constant", 2), ("fractional", 2), ("fractional", 3), ("fractional", 4),
    ("peridynamic", 2), ("peridynamic", 3), ("peridynamic", 4)])
def test_outer_cells_match_the_replaced_set_up(family, R, monkeypatch):
    """For every lattice class that ``pair_matrix`` integrates by
    ``regular_pair_matrix``, the outer cells it passes equal the replaced
    set-up's byte for byte, with the same rule degree, and their outer
    points and weights are the per-cell maps of the replaced rule: the
    class matrix, a deterministic function of these, is bitwise
    unchanged.  Only the two classes of ``_MOVED_AT_3`` differ; each
    matrix moves by less than 5e-6 of its largest entry.  A constant
    class that does not coincide has the bytes of the per-point oracle
    on the replaced set-up's cells and degree."""
    spec, quad = make_spec(family, float(R)), QuadratureConfig()
    outer_rule = assembly.regular_pair_matrix
    seen = []
    monkeypatch.setattr(assembly, "regular_pair_matrix",
                        lambda *args: seen.append(args) or np.zeros((1, 1)))
    moved = set()
    for key in interacting_classes(R, family == "constant"):
        dx, dy, t1, t2 = key
        v = np.concatenate([_TRI_T[t1], _TRI_T[t2] + (dx, dy)]).astype(float)
        seen.clear()
        M, _ = pair_matrix(v[:3], v[3:], spec, quad)
        if family == "constant" and (dx, dy, t1) != (0, 0, t2):
            old, old_deg = _replaced_outer_cells(v[:3], v[3:], spec, quad)
            want = square_pair_matrix(v[:3], v[3:], spec, quad,
                                      np.array(old), old_deg)
            assert M.tobytes() == want.tobytes(), key
        if not seen:
            continue  # constant, coinciding or touching pair
        (args,) = seen
        cells, deg = args[6:]
        old, old_deg = _replaced_outer_cells(v[:3], v[3:], spec, quad)
        assert deg == old_deg, key
        if cells.shape != (len(old), 3, 2) or not np.array_equal(cells, old):
            moved.add(key)
            M = outer_rule(*args)
            ref = outer_rule(*args[:6], np.array(old), deg)
            assert np.abs(M - ref).max() < 5e-6 * np.abs(ref).max(), key
            continue
        X, WX = map_to_physical(cells, *triangle_rule(deg))
        per_cell = [map_to_physical(c, *triangle_rule(deg)) for c in old]
        assert X.tobytes() == np.concatenate([x for x, _ in per_cell]).tobytes()
        assert WX.tobytes() == np.concatenate([w for _, w in per_cell]).tobytes()
    assert moved == (_MOVED_AT_3 if R == 3 else set())


# ---------------------------------------------------------------------------
# The class-grid reader


def _read(planes, classes):
    """The reader's (first, second) grids of all ``classes``, joined."""
    views = [(first, second) for _, first, second in class_grids(planes,
                                                                classes)]
    return tuple(np.concatenate([v[i] for v in views]) for i in (0, 1))


@settings(deadline=None, max_examples=50)
@given(n=st.integers(1, 8), ratio=st.integers(1, 3), chunk=st.sampled_from(
    [geometry._CHUNK_ENTRIES, 1]), data=st.data())
def test_class_grids_equal_the_element_id_gathers(n, ratio, chunk, data):
    """For any classes, also of negative dy, and any cell window, at the
    mesh edge too, the first and second grids the reader yields equal
    the per-element quantity gathered at the pair's element ids, 0 where
    the second element leaves the window; on a plane of ones the second
    grid is the oracle's validity mask."""
    mesh = build_structured_mesh(n, ratio / n)
    N = mesh.cells_per_side
    x0 = data.draw(st.integers(0, N - 1))
    y0 = data.draw(st.integers(0, N - 1))
    x1 = data.draw(st.integers(x0 + 1, N))
    y1 = data.draw(st.integers(y0 + 1, N))
    cells = (x0, x1, y0, y1)
    offset = st.integers(-ratio - 1, ratio + 1)
    classes = data.draw(st.lists(
        st.tuples(offset, offset, st.integers(0, 1), st.integers(0, 1)),
        min_size=1, max_size=12))
    q = data.draw(st.integers(1, 3))
    values = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))
                                   ).integers(1, 256, (mesh.n_elements, q),
                                              dtype=np.uint8)
    planes = values.reshape(N, N, 2, q)[y0:y1, x0:x1].transpose(2, 3, 0, 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_CHUNK_ENTRIES", chunk)
        first, second = _read(planes, classes)
        _, inside = _read(np.ones((2, y1 - y0, x1 - x0), bool), classes)
    cy, cx = np.mgrid[y0:y1, x0:x1]
    assert first.shape == second.shape == (len(classes), q, y1 - y0, x1 - x0)
    for i, (dx, dy, t1, t2) in enumerate(classes):
        into = ((y0 <= cy + dy) & (cy + dy < y1)
                & (x0 <= cx + dx) & (cx + dx < x1))
        e1 = 2 * (cy * N + cx) + t1
        e2 = np.where(into, 2 * ((cy + dy) * N + cx + dx) + t2, 0)
        assert np.array_equal(first[i], values[e1].transpose(2, 0, 1))
        assert np.array_equal(
            second[i], np.where(into, values[e2].transpose(2, 0, 1), 0))
    oracle = SimpleNamespace(N=N, classes=lambda: classes)
    valid = weight_grid(oracle, lambda e1, e2: np.ones(len(e1), bool), cells)
    assert inside.dtype == valid.dtype
    assert inside.tobytes() == valid.tobytes()
