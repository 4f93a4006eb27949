"""The batched polar inner rule against the per-point polar rule, kept
here as the reference."""

import numpy as np
import pytest

from nlfeti.assembly import QuadratureConfig, _polar_inner_rule
from nlfeti.kernels import KernelSpec
from nlfeti.quadrature import gauss01, map_to_physical, triangle_rule


def _segment_circle_params(a, b, center, r):
    """Parameters t in (0, 1) where segment a + t (b - a) crosses the
    circle of radius r around ``center``."""
    d = b - a
    f = a - center
    A = d @ d
    B = 2.0 * (f @ d)
    disc = B * B - 4.0 * A * (f @ f - r * r)
    if disc <= 0.0 or A == 0.0:
        return []
    sq = np.sqrt(disc)
    ts = [(-B - sq) / (2 * A), (-B + sq) / (2 * A)]
    return [t for t in ts if 1e-12 < t < 1.0 - 1e-12]


def _polar_inner_points(x, tri, spec, quad):
    """Reference: the per-point polar rule, one outer point per call."""
    delta = spec.delta
    d = np.linalg.norm(tri - x[None, :], axis=1)
    diam = max(np.linalg.norm(tri[1] - tri[0]), np.linalg.norm(tri[2] - tri[0]),
               np.linalg.norm(tri[2] - tri[1]))
    if d.max() <= delta and d.min() >= 2.0 * diam:
        bary, wts = triangle_rule(quad.inner_degree)
        return map_to_physical(tri, bary, wts)
    bounds = [float(np.arctan2(v[1] - x[1], v[0] - x[0])) for v in tri]
    edges = []
    for i in range(3):
        a, b = tri[i], tri[(i + 1) % 3]
        e = b - a
        n = np.array([-e[1], e[0]])
        if n @ (tri[(i + 2) % 3] - a) < 0:
            n = -n
        edges.append((a, n))
        for t in _segment_circle_params(a, b, x, delta):
            p = a + t * e
            bounds.append(float(np.arctan2(p[1] - x[1], p[0] - x[0])))
    th = np.sort(np.asarray(bounds))
    th = np.concatenate([th, [th[0] + 2.0 * np.pi]])
    ga, gwa = gauss01(quad.polar_angular)
    gr, gwr = gauss01(quad.polar_radial)
    pts_out, w_out = [], []
    for t0, t1 in zip(th[:-1], th[1:]):
        width = t1 - t0
        if width < 1e-14:
            continue
        theta = t0 + width * ga
        u = np.column_stack([np.cos(theta), np.sin(theta)])
        lo = np.zeros(len(theta))
        hi = np.full(len(theta), delta)
        ok = np.ones(len(theta), dtype=bool)
        for a, n in edges:
            num = n @ (x - a)
            den = u @ n
            small = np.abs(den) < 1e-14
            ok &= ~(small & (num < 0.0))
            with np.errstate(divide="ignore", invalid="ignore"):
                rr = -num / den
            pos = den > 1e-14
            neg = den < -1e-14
            lo = np.where(pos, np.maximum(lo, rr), lo)
            hi = np.where(neg, np.minimum(hi, rr), hi)
        ok &= hi > lo + 1e-15
        if not ok.any():
            continue
        lo, hi, u = lo[ok], hi[ok], u[ok]
        wa = gwa[ok] * width
        r = lo[:, None] + (hi - lo)[:, None] * gr[None, :]
        w = (wa * (hi - lo))[:, None] * gwr[None, :] * r
        pts_out.append((x[None, None, :] + r[:, :, None] * u[:, None, :])
                       .reshape(-1, 2))
        w_out.append(w.ravel())
    if not pts_out:
        return np.empty((0, 2)), np.empty(0)
    return np.concatenate(pts_out), np.concatenate(w_out)


TRI = 0.1 * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
SMOOTH_F = [
    lambda y: np.ones(len(y)),
    lambda y: y[:, 0] - 2.0 * y[:, 1],
    lambda y: y[:, 0] ** 2 * y[:, 1] + 0.3,
    lambda y: np.exp(y[:, 0] + 0.5 * y[:, 1]),
]


def _category(x, spec):
    """'smooth', 'outside', or the number of edges the horizon crosses."""
    d = np.linalg.norm(TRI - x, axis=1)
    diam = np.linalg.norm(TRI[2] - TRI[0])
    if d.max() <= spec.delta and d.min() >= 2.0 * diam:
        return "smooth"
    crossed = sum(bool(_segment_circle_params(TRI[i], TRI[(i + 1) % 3], x,
                                              spec.delta))
                  for i in range(3))
    if crossed == 0 and d.min() > spec.delta:
        return "outside"
    return crossed


@pytest.mark.parametrize("refined", [False, True])
@pytest.mark.parametrize("delta", [0.12, 0.5])
def test_batched_polar_rule_matches_per_point_rule(delta, refined):
    quad = QuadratureConfig().refined() if refined else QuadratureConfig()
    spec = KernelSpec("fractional", delta, 0.4)
    rng = np.random.default_rng(7)
    X = rng.uniform(-0.1 - delta, 0.2 + delta, size=(300, 2))
    owner, Y, W = _polar_inner_rule(X, TRI, spec, quad)
    assert np.all(np.diff(owner) >= 0)
    seen = set()
    for i, x in enumerate(X):
        seen.add(_category(x, spec))
        y_ref, w_ref = _polar_inner_points(x, TRI, spec, quad)
        mine = owner == i
        assert mine.sum() == len(w_ref)
        if not len(w_ref):
            continue
        scale = np.abs(w_ref).max()
        # points relative to the coordinate scale they are computed at
        assert np.abs(Y[mine] - y_ref).max() <= 1e-13 * (np.abs(x).max()
                                                         + delta)
        assert np.abs(W[mine] - w_ref).max() <= 1e-13 * scale
        for f in SMOOTH_F:
            ref = w_ref @ f(y_ref)
            assert abs(W[mine] @ f(Y[mine]) - ref) <= 1e-13 * (
                np.abs(w_ref) @ np.abs(f(y_ref)))
    expected = {"smooth"} if delta == 0.5 else {0, 1, 2, "outside"}
    assert expected <= seen
