"""Quadrature rules on triangles and intervals.

Triangle rules are symmetric Dunavant-type rules given in barycentric
coordinates; weights sum to 1 and are applied as ``area * sum(w * f(p))``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Symmetric triangle rules, stored as (barycentric points, weights).
# Weights sum to 1 (i.e. they are normalized by the triangle area).
_TRIANGLE_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _orbit1() -> tuple[list[list[float]], list[float]]:
    return [[1 / 3, 1 / 3, 1 / 3]], [1.0]


def _orbit3(a: float, w: float) -> tuple[list[list[float]], list[float]]:
    b = 1.0 - 2.0 * a
    pts = [[b, a, a], [a, b, a], [a, a, b]]
    return pts, [w] * 3


def _register(degree: int, orbits: list[tuple[list[list[float]], list[float]]]) -> None:
    pts: list[list[float]] = []
    wts: list[float] = []
    for p, w in orbits:
        pts.extend(p)
        wts.extend(w)
    P = np.asarray(pts, dtype=float)
    W = np.asarray(wts, dtype=float)
    assert abs(W.sum() - 1.0) < 1e-13
    _TRIANGLE_RULES[degree] = (P, W)


_register(1, [_orbit1()])
_register(2, [_orbit3(1 / 6, 1 / 3)])
# Degree 3 (4 points: centroid with negative weight plus a 3-orbit).
_register(3, [([[1 / 3, 1 / 3, 1 / 3]], [-27 / 48]), _orbit3(0.2, 25 / 48)])
# Dunavant degree 4 (6 points).
_register(
    4,
    [
        _orbit3(0.445948490915965, 0.223381589678011),
        _orbit3(0.091576213509771, 0.109951743655322),
    ],
)
# Dunavant degree 5 (7 points).
_register(
    5,
    [
        ([[1 / 3, 1 / 3, 1 / 3]], [0.225]),
        _orbit3(0.470142064105115, 0.132394152788506),
        _orbit3(0.101286507323456, 0.125939180544827),
    ],
)


def triangle_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (barycentric points (m, 3), weights (m,)) exact to `degree`.

    Picks the smallest stored rule with sufficient degree.
    """
    for d in sorted(_TRIANGLE_RULES):
        if d >= degree:
            return _TRIANGLE_RULES[d]
    raise ValueError(f"no triangle rule of degree {degree} available")


def map_to_physical(
    vertices: np.ndarray, bary: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Map a barycentric rule onto a physical triangle (3, 2), or onto
    each triangle of a (..., 3, 2) stack.

    Returns (points (..., m, 2), weights (..., m)) with weights scaled by
    the triangle area so that ``sum(w * f(p))`` approximates the
    integral.  A stack is mapped by stacked matmuls, which round each
    triangle's points as its own product does.
    """
    verts = np.asarray(vertices, dtype=float)
    pts = bary @ verts
    area = triangle_area(verts)
    return pts, weights * area[..., None]


def triangle_area(vertices: np.ndarray) -> np.ndarray:
    """Areas of the triangles of a (..., 3, 2) vertex array, shape (...)."""
    v = np.asarray(vertices, dtype=float)
    a = v[..., 1, :] - v[..., 0, :]
    b = v[..., 2, :] - v[..., 0, :]
    return 0.5 * np.abs(a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0])


@lru_cache(maxsize=64)
def gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule with n points on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w
