"""Quadrature rules on triangles, intervals, and radial weights.

Triangle rules are symmetric Dunavant-type rules given in barycentric
coordinates; weights sum to 1 and are applied as ``area * sum(w * f(p))``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

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
    """Map a barycentric rule onto a physical triangle.

    Returns (points (m, 2), weights (m,)) with weights scaled by the
    triangle area so that ``sum(w * f(p))`` approximates the integral.
    """
    verts = np.asarray(vertices, dtype=float)
    pts = bary @ verts
    area = triangle_area(verts)
    return pts, weights * area


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


@lru_cache(maxsize=64)
def gauss_jacobi01(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule for ``int_0^1 x^alpha f(x) dx`` (alpha > -1).

    Returns nodes and weights such that ``sum(w * f(x))`` integrates
    ``x^alpha * f`` exactly for polynomial f of degree <= 2n-1.
    """
    if alpha == 0.0:
        return gauss01(n)
    # roots_jacobi uses weight (1-x)^a (1+x)^b on [-1, 1]; take a=0, b=alpha
    # and substitute x = 2t - 1 so that (1+x)^alpha = (2t)^alpha, dx = 2 dt.
    x, w = roots_jacobi(n, 0.0, alpha)
    t = 0.5 * (x + 1.0)
    return t, w / 2.0 ** (alpha + 1.0)
