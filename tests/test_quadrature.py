"""Quadrature rules: polynomial exactness on triangle and interval."""

import math

import numpy as np
import pytest

from nlfeti.quadrature import (gauss01, map_to_physical, triangle_area,
                               triangle_rule)


def _ref_monomial(i, j):
    """Integral of x^i y^j over the reference triangle {x,y>=0, x+y<=1}."""
    return math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_triangle_rule_exactness(degree):
    bary, w = triangle_rule(degree)
    # rule points in barycentric coordinates: convert to (x, y)
    x = bary[:, 1]
    y = bary[:, 2]
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            integral = 0.5 * np.sum(w * x**i * y**j)
            assert np.isclose(integral, _ref_monomial(i, j), rtol=1e-13), \
                (degree, i, j)


def test_triangle_rule_unknown_degree():
    with pytest.raises(ValueError):
        triangle_rule(7)


def test_map_to_physical_area_weighting():
    tri = np.array([[1.0, 1.0], [3.0, 1.5], [1.5, 4.0]])
    bary, w = triangle_rule(3)
    pts, wts = map_to_physical(tri, bary, w)
    assert np.isclose(wts.sum(), triangle_area(tri))
    # integrate an affine function exactly: mean of vertex values x area
    f = lambda p: 2.0 * p[:, 0] - 0.5 * p[:, 1] + 1.0
    exact = triangle_area(tri) * f(tri).mean()
    assert np.isclose(np.sum(wts * f(pts)), exact)


@pytest.mark.parametrize("npts", [2, 5, 12])
def test_gauss01_exactness(npts):
    x, w = gauss01(npts)
    for k in range(2 * npts):
        assert np.isclose(np.sum(w * x**k), 1.0 / (k + 1), rtol=1e-12)

