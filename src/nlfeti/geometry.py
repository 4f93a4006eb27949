"""Clipping and cell splitting for the interaction ball.

The inner integration domain of every element pair is the intersection of
the inner triangle with the horizon ball around the outer quadrature
point.  For the max-norm ball that intersection is exact: the triangle is
clipped against the axis-aligned square and the convex polygon left is
fanned into triangles.  ``clip_triangles_square`` clips any number of
(triangle, square) pairs at once, by the four ``clip_polygon_halfplane``
steps on padded polygons, and ``fan_triangles`` fans every polygon it
leaves in one pass.  The Euclidean ball is
integrated by the polar rule of ``assembly``, which needs no clipping
here; for pairs that straddle its horizon ``disk_interaction_cells`` splits
the outer triangle along the curves where the intersection loses
smoothness, so that the outer rule is aligned with them, and
``triangle_distances`` gives the exact distance of those cells from the
inner triangle, which sets how finely each one is subdivided.
``interacting_classes`` decides which translation classes of the mesh
interact; the assembler forms them and the coverage check checks them.
``class_grids`` is the one reader of a class's pairs on the cell grid:
the validity mask and the pair weights of the assembler, and the pairs
the coverage check checks, are read through it off cell planes.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .mesh import _TRI_T
from .quadrature import triangle_area

_EPS = 1e-14

# Entries of a chunk's gathers (classes x planes x window cells); bounds
# the working set of ``class_grids``.
_CHUNK_ENTRIES = 1 << 16


def clip_polygon_halfplane(
    poly: np.ndarray, normal: np.ndarray, offset: float
) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon against ``n.x <= c``."""
    if len(poly) == 0:
        return poly
    d = poly @ normal - offset
    out: list[np.ndarray] = []
    m = len(poly)
    for i in range(m):
        j = (i + 1) % m
        di, dj = d[i], d[j]
        if di <= _EPS:
            out.append(poly[i])
        if (di < -_EPS and dj > _EPS) or (di > _EPS and dj < -_EPS):
            t = di / (di - dj)
            out.append(poly[i] + t * (poly[j] - poly[i]))
    if not out:
        return np.empty((0, 2))
    return np.asarray(out)


def clip_triangles_square(
    tris: np.ndarray, centers: np.ndarray, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """Clip each triangle of the (k, 3, 2) array ``tris`` against the
    axis-aligned square of half-width r around its centre, row k of the
    (k, 2) array ``centers``, all triangles at once.

    Returns (polys, counts): polygon k is ``polys[k, :counts[k]]``, the
    slots after it are zero.  Each of the four steps (sides x <= cx + r,
    -x <= -(cx - r), y <= cy + r, -y <= -(cy - r), in this order) makes,
    per polygon, the vertices and the ``_EPS`` tests of one
    ``clip_polygon_halfplane`` call: vertex i is kept when its offset d_i
    is at most ``_EPS``, and the edge to vertex i + 1 is cut when the two
    offsets lie beyond ``_EPS`` on either side, in that order, so every
    polygon has the bytes and the vertex order of that call's result.
    """
    poly = np.asarray(tris, dtype=float)
    count = np.full(len(poly), poly.shape[1])
    cx, cy = np.asarray(centers, dtype=float).T
    for axis, sign, offset in ((0, 1.0, cx + r), (0, -1.0, -(cx - r)),
                               (1, 1.0, cy + r), (1, -1.0, -(cy - r))):
        slot = np.arange(poly.shape[1])
        live = slot < count[:, None]
        # the next vertex of each slot, the last one wrapping around
        nxt = np.where(slot + 1 < count[:, None], slot + 1, 0)
        d = sign * poly[..., axis] - offset[:, None]
        dn = np.take_along_axis(d, nxt, axis=1)
        keep = live & (d <= _EPS)
        cut = live & (((d < -_EPS) & (dn > _EPS))
                      | ((d > _EPS) & (dn < -_EPS)))
        # slot i writes its vertex, then its cut, after those of slots < i
        size = keep.astype(np.intp) + cut
        at = np.cumsum(size, axis=1) - size
        count = size.sum(axis=1)
        out = np.zeros((len(poly), count.max(initial=0), 2))
        out[np.nonzero(keep)[0], at[keep]] = poly[keep]
        rows = np.nonzero(cut)[0]
        p, q, di = poly[cut], poly[rows, nxt[cut]], d[cut]
        t = di / (di - dn[cut])
        out[rows, (at + keep)[cut]] = p + t[:, None] * (q - p)
        poly = out
    return poly, count


def fan_triangles(polys: np.ndarray,
                  counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``fan_triangulate`` of every padded polygon of
    ``clip_triangles_square`` in one pass: (tris, owner), the (s, 3, 2)
    triangles of all polygons, polygon by polygon in fan order, and the
    polygon ``owner[i]`` that triangle i comes from."""
    i = np.arange(1, polys.shape[1] - 1)
    tris = np.stack(np.broadcast_arrays(polys[:, :1], polys[:, i],
                                        polys[:, i + 1]), axis=2)
    keep = (i < counts[:, None] - 1) & (triangle_area(tris) > 1e-30)
    return tris[keep], np.nonzero(keep)[0]


def disk_interaction_cells(
    tri_outer: np.ndarray, tri_inner: np.ndarray, r: float,
    arc_segments: int,
) -> list[np.ndarray]:
    """Split the outer triangle along the curves where the intersection
    of the Euclidean ball around the moving point with ``tri_inner``
    loses smoothness.

    Those curves are the lines at distance ``r`` from the inner edge
    lines (tangency events) and the circles of radius ``r`` around the
    inner vertices (vertex-crossing events); the circles are replaced by
    chord polylines with ``arc_segments`` pieces across the subtended
    span.  Aligning the outer composite rule with these curves restores
    fast convergence for pairs straddling the horizon.
    """
    tri_outer = np.asarray(tri_outer, dtype=float)
    tri_inner = np.asarray(tri_inner, dtype=float)
    lines: list[tuple[np.ndarray, float]] = []
    for i in range(3):
        a, b = tri_inner[i], tri_inner[(i + 1) % 3]
        e = b - a
        nn = np.linalg.norm(e)
        if nn < 1e-30:
            continue
        n = np.array([-e[1], e[0]]) / nn
        c = float(n @ a)
        lines.append((n, c - r))
        lines.append((n, c + r))
    # distances of the inner vertices from the outer triangle, which does
    # not hold them for the disjoint pairs split here
    dmins = _segment_distance(tri_inner[:, None], tri_outer,
                              tri_outer[[1, 2, 0]]).min(axis=1)
    for v, dmin in zip(tri_inner, dmins):
        dmax = float(np.linalg.norm(tri_outer - v, axis=1).max())
        if not (dmin < r < dmax):
            continue
        # chord polyline across the angular span of the outer triangle
        ref = np.arctan2(*(tri_outer.mean(axis=0) - v)[::-1])
        rel = [
            (np.arctan2(*(p - v)[::-1]) - ref + np.pi) % (2 * np.pi) - np.pi
            for p in tri_outer
        ]
        th0, th1 = ref + min(rel), ref + max(rel)
        ths = np.linspace(th0, th1, arc_segments + 1)
        pts = v + r * np.column_stack([np.cos(ths), np.sin(ths)])
        for p0, p1 in zip(pts[:-1], pts[1:]):
            e = p1 - p0
            nn = np.linalg.norm(e)
            if nn < 1e-30:
                continue
            n = np.array([-e[1], e[0]]) / nn
            lines.append((n, float(n @ p0)))
    polys = [tri_outer]
    for n, c in lines:
        d = tri_outer @ n - c
        if d.min() > -1e-12 or d.max() < 1e-12:
            continue  # line misses the outer triangle
        halves = [half for poly in polys
                  for half in (clip_polygon_halfplane(poly, n, c),
                               clip_polygon_halfplane(poly, -n, -c))
                  if len(half) >= 3]
        polys = [half for half, area in zip(halves, _polygon_areas(halves))
                 if area > 1e-28]
    cells: list[np.ndarray] = []
    for poly in polys:
        cells.extend(fan_triangulate(poly))
    return cells


def _polygon_areas(polys: list[np.ndarray]) -> np.ndarray:
    """Areas of the polygons, all in one shoelace pass over their stacked
    vertices."""
    sizes = [len(p) for p in polys]
    v = np.concatenate(polys)
    ends = np.cumsum(sizes)
    nxt = np.arange(1, len(v) + 1)
    nxt[ends - 1] = ends - sizes  # each polygon's last vertex wraps around
    cross = v[:, 0] * v[nxt, 1] - v[:, 1] * v[nxt, 0]
    return 0.5 * np.abs(np.add.reduceat(cross, ends - sizes))


def fan_triangulate(poly: np.ndarray) -> list[np.ndarray]:
    """Split a convex polygon into triangles fanned from its first vertex."""
    tris = []
    for i in range(1, len(poly) - 1):
        t = np.asarray([poly[0], poly[i], poly[i + 1]])
        if triangle_area(t) > 1e-30:
            tris.append(t)
    return tris


def _segment_distance(p: np.ndarray, a: np.ndarray,
                      b: np.ndarray) -> np.ndarray:
    """Distance of the points p from the segments [a, b], broadcast over
    the leading axes of the (..., 2) arrays."""
    e = b - a
    t = np.clip(((p - a) * e).sum(axis=-1) / (e * e).sum(axis=-1), 0.0, 1.0)
    return np.linalg.norm(p - a - t[..., None] * e, axis=-1)


def triangle_distances(cells: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """Distance of each triangle of the (k, 3, 2) array ``cells`` from the
    triangle ``tri``, for triangles whose interiors are disjoint from it.

    It is the least of the 18 distances of a vertex of one triangle from
    an edge of the other (Ericson, *Real-Time Collision Detection*, 2005,
    ch. 5): two such triangles come closest at a vertex of one of them.
    """
    cells = np.asarray(cells, dtype=float)
    nxt = [1, 2, 0]
    # (k, vertex, edge): cell vertices against the edges of tri, then the
    # vertices of tri against the edges of each cell
    into = _segment_distance(cells[:, :, None], tri, tri[nxt])
    out = _segment_distance(tri[None, :, None], cells[:, None, :],
                            cells[:, None, nxt])
    return np.minimum(into.min(axis=(1, 2)), out.min(axis=(1, 2)))


def _closer_than(diffs: np.ndarray, R: int, linf: bool) -> np.ndarray:
    """Whether the convex hull of each row of integer points ``diffs``
    (k, q, 2) comes closer than R to the origin, in the l-infinity or the
    Euclidean norm.  The hull distance is the least distance over the
    segments between any two points, since the origin lies outside the
    hull or is one of the points (two lattice triangles that meet share
    a vertex).  Comparisons are exact on integer coordinates and the
    integer R."""
    i, j = np.triu_indices(diffs.shape[1])
    a = diffs[:, i].astype(float)
    e = diffs[:, j] - a
    if linf:
        # max(|a_x + t e_x|, |a_y + t e_y|) is least at an end point or
        # where the two coordinates agree in magnitude, t = num / den
        below = np.abs(a).max(axis=2) < R
        below |= np.abs(a + e).max(axis=2) < R
        for sign in (1.0, -1.0):
            num = sign * a[..., 1] - a[..., 0]
            den = e[..., 0] - sign * e[..., 1]
            num, den = np.where(den < 0, -num, num), np.abs(den)
            inside = (den > 0) & (num >= 0) & (num <= den)
            at = np.abs(a[..., 0] * den + num * e[..., 0])
            below |= inside & (at < R * den)
    else:
        aa = (a * a).sum(axis=2)
        ae = (a * e).sum(axis=2)
        ee = (e * e).sum(axis=2)
        cross = a[..., 0] * e[..., 1] - a[..., 1] * e[..., 0]
        below = np.where(ae >= 0, aa < R * R,
                         np.where(ae + ee <= 0, aa + 2 * ae + ee < R * R,
                                  cross * cross < R * R * ee))
    return below.any(axis=1)


@functools.cache
def interacting_classes(R: int,
                        linf: bool) -> tuple[tuple[int, int, int, int], ...]:
    """Canonical (unordered) pair classes (dx, dy, t1, t2) whose two
    triangles, ``_TRI_T[t1]`` and ``_TRI_T[t2]`` shifted by (dx, dy)
    cells, come closer than R cells in the ball norm (the max norm when
    ``linf``); every other class has a zero pair matrix.  The distance is
    that of the origin to the triangles' Minkowski difference, exact on
    their integer vertices and the integer R."""
    rng = R + 1
    keys = np.array([
        (dx, dy, t1, t2)
        for dy in range(0, rng + 1) for dx in range(-rng, rng + 1)
        for t1 in range(2) for t2 in range(2)
        if dy > 0 or dx > 0 or (dx == 0 and t1 <= t2)])
    # vertex differences of the second triangle minus the first
    diffs = (keys[:, None, None, :2] + _TRI_T[keys[:, 3]][:, :, None, :]
             - _TRI_T[keys[:, 2]][:, None, :, :]).reshape(len(keys), 9, 2)
    near = _closer_than(diffs, R, linf)
    return tuple(tuple(int(v) for v in k) for k in keys[near])


def class_grids(planes: np.ndarray, classes):
    """Yield ``(chunk, first, second)`` for the pair classes
    (dx, dy, t1, t2), a slice ``chunk`` of them at a time.

    ``planes`` (type, ..., cy - y0, cx - x0) hold a per-element quantity
    over a cell window, one plane per triangle type.  For the pairs
    anchored in the window, element t1 of cell (cx, cy) with element t2
    of cell (cx + dx, cy + dy), ``first`` (class, ..., cy - y0, cx - x0)
    holds the quantity of the first element and ``second`` that of the
    second, 0 where its cell lies outside the window.  The planes are
    zero-padded by the largest class offset once, and each class reads
    its second planes at its offset.
    """
    dx, dy, t1, t2 = np.array(classes, dtype=np.intp).reshape(-1, 4).T
    px, py = int(np.abs(dx).max(initial=0)), int(np.abs(dy).max(initial=0))
    H, W = planes.shape[-2:]
    padded = np.zeros(planes.shape[:-2] + (H + 2 * py, W + 2 * px),
                      planes.dtype)
    padded[..., py:py + H, px:px + W] = planes
    # (type, offset y, offset x, ..., cy, cx)
    at = np.moveaxis(sliding_window_view(padded, (H, W), axis=(-2, -1)),
                     (-4, -3), (1, 2))
    step = max(1, _CHUNK_ENTRIES // planes[0].size)  # classes
    for s in range(0, len(dx), step):
        c = slice(s, s + step)
        yield c, at[t1[c], py, px], at[t2[c], py + dy[c], px + dx[c]]
