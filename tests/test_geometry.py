"""Square clipping and cell splitting."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from nlfeti import assembly
from nlfeti.assembly import Assembler, regular_pair_matrix
from nlfeti.geometry import (clip_polygon_halfplane, clip_triangle_square,
                             closest_point_triangle, disk_interaction_cells,
                             fan_triangulate)
from nlfeti.kernels import KernelSpec
from nlfeti.mesh import _TRI_T, build_structured_mesh


def _tri_area(t):
    return 0.5 * abs((t[1]-t[0])[0]*(t[2]-t[0])[1] - (t[1]-t[0])[1]*(t[2]-t[0])[0])


def _cells_area(cells):
    return sum(_tri_area(c) for c in cells)


TRI = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])


def test_square_clip_full_and_empty():
    inside = clip_triangle_square(TRI, np.array([0.5, 0.5]), 2.0)
    assert np.isclose(_cells_area(fan_triangulate(inside)), 0.5)
    outside = clip_triangle_square(TRI, np.array([5.0, 5.0]), 1.0)
    assert len(outside) == 0


def test_square_clip_half():
    # square [0,1]x[-0.5,0.5] cuts the unit right triangle at y=0.5,
    # removing the top corner of area 1/8
    poly = clip_triangle_square(TRI, np.array([0.5, 0.0]), 0.5)
    assert np.isclose(_cells_area(fan_triangulate(poly)), 0.375)
    # square [-0.5,0.5]^2 keeps the half-square below the diagonal,
    # {0 <= y <= x <= 0.5}, area 1/8
    poly = clip_triangle_square(TRI, np.array([0.0, 0.0]), 0.5)
    assert np.isclose(_cells_area(fan_triangulate(poly)), 0.125)


@settings(deadline=None, max_examples=40)
@given(cx=st.floats(-1.5, 2.5), cy=st.floats(-1.5, 2.5),
       r=st.floats(0.05, 2.0))
def test_square_clip_bounded_by_both(cx, cy, r):
    poly = clip_triangle_square(TRI, np.array([cx, cy]), r)
    area = _cells_area(fan_triangulate(poly)) if len(poly) else 0.0
    assert area <= 0.5 + 1e-12
    assert area <= (2 * r) ** 2 + 1e-12


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
    for key in asm.classes():
        dx, dy, t1, t2 = key
        v1 = _TRI_T[t1].astype(float)
        v2 = (_TRI_T[t2] + (dx, dy)).astype(float)
        cells = square_interaction_cells(v1, v2, spec.delta)
        if (dx, dy, t1) != (0, 0, t2):
            _, loc1, loc2 = assembly._patch(v1, v2)
            M = regular_pair_matrix(v1, v2, loc1, loc2, spec, quad, cells,
                                    max(quad.outer_degree, 5))
            assert M.tobytes() == asm.class_matrix(key)[0].tobytes(), key
        assert len(cells) == 1 and np.array_equal(cells[0], v1), key


@settings(deadline=None, max_examples=25)
@given(dx=st.floats(-1.5, 1.5), dy=st.floats(-1.5, 1.5),
       r=st.floats(0.2, 1.2))
def test_disk_cells_always_tile(dx, dy, r):
    inner = TRI + np.array([dx, dy])
    cells = disk_interaction_cells(TRI, inner, r, arc_segments=2)
    assert np.isclose(_cells_area(cells), 0.5, atol=1e-10)


def test_closest_point_triangle():
    p = np.array([2.0, 0.5])
    cp = closest_point_triangle(p, TRI)
    assert np.allclose(cp, [1.0, 0.5])
    inside = np.array([0.7, 0.3])
    assert np.allclose(closest_point_triangle(inside, TRI), inside)
