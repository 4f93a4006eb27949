"""The polar rules.  The inner rule of the Euclidean ball: its batched
directions against the per-point polar rule, and its closed-form radial
integrals against the radial Gauss expansion they replace.  The
coinciding pair's relative polar rule: its closed-form radial integrals
against the Gauss-Jacobi rule they replace.  The replaced rules are kept
here as references."""

import numpy as np
import pytest
from scipy.special import roots_jacobi

from nlfeti import assembly
from nlfeti.assembly import (QuadratureConfig, _lattice_class,
                             _polar_inner_rule, coinciding_pair_matrix,
                             pair_matrix)
from nlfeti.geometry import interacting_classes
from nlfeti.kernels import KernelSpec
from nlfeti.mesh import _TRI_T, p1_gradients
from nlfeti.quadrature import gauss01, map_to_physical, triangle_rule

from conftest import refined_quadrature

# radial Gauss points per direction of the references: the polar rule's
# former default order
RADIAL = 8


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


def _polar_directions(x, tri, spec, quad):
    """Reference: the per-point polar rule, one outer point per call.

    Returns the kept directions (u, lo, hi, wa) in panel order, or None
    when x takes the triangle rule."""
    delta = spec.delta
    d = np.linalg.norm(tri - x[None, :], axis=1)
    diam = max(np.linalg.norm(tri[1] - tri[0]), np.linalg.norm(tri[2] - tri[0]),
               np.linalg.norm(tri[2] - tri[1]))
    if d.max() <= delta and d.min() >= 2.0 * diam:
        return None
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
    rays = []
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
        rays.append((u[ok], lo[ok], hi[ok], gwa[ok] * width))
    return [np.concatenate(parts) for parts in zip(*rays)]


def _radial_gauss_points(X, rays, order):
    """The radial Gauss expansion that the closed form replaces: each
    direction of ``rays = (owner, u, lo, hi, wa)`` from the outer point
    X[owner] becomes ``order`` points with weights wa (hi - lo) w_j r_j.
    Returns (owner, points, weights)."""
    owner, u, lo, hi, wa = rays
    gr, gwr = gauss01(order)
    r = lo[:, None] + (hi - lo)[:, None] * gr
    W = ((wa * (hi - lo))[:, None] * gwr * r).ravel()
    Y = (X[owner, None, :] + r[:, :, None] * u[:, None, :]).reshape(-1, 2)
    return np.repeat(owner, order), Y, W


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
    """Directions, radial intervals and angular weights equal the
    per-point rule's; the triangle-rule points are the inner triangle's;
    and with RADIAL points per direction the rule integrates smooth
    functions as the per-point rule does."""
    quad = refined_quadrature() if refined else QuadratureConfig()
    spec = KernelSpec("fractional", delta, 0.4)
    rng = np.random.default_rng(7)
    X = rng.uniform(-0.1 - delta, 0.2 + delta, size=(300, 2))
    rays, (near, Ys, Ws) = _polar_inner_rule(X, TRI, spec, quad)
    owner, u, lo, hi, wa = rays
    assert np.all(np.diff(owner) >= 0) and np.all(np.diff(near) >= 0)
    o_pts, Y, W = _radial_gauss_points(X, rays, RADIAL)
    ys, ws = map_to_physical(TRI, *triangle_rule(quad.inner_degree))
    seen = set()
    for i, x in enumerate(X):
        seen.add(_category(x, spec))
        ref = _polar_directions(x, TRI, spec, quad)
        if ref is None:
            assert not (owner == i).any()
            assert np.array_equal(Ys[near == i], ys)
            assert np.array_equal(Ws[near == i], ws)
            continue
        assert not (near == i).any()
        u_ref, lo_ref, hi_ref, wa_ref = ref
        mine = owner == i
        assert mine.sum() == len(wa_ref)
        if not len(wa_ref):
            continue
        # lengths relative to the coordinate scale they are computed at
        scale = np.abs(x).max() + delta
        assert np.abs(u[mine] - u_ref).max() <= 1e-13
        assert np.abs(lo[mine] - lo_ref).max() <= 1e-13 * scale
        assert np.abs(hi[mine] - hi_ref).max() <= 1e-13 * scale
        assert np.abs(wa[mine] - wa_ref).max() <= 1e-13 * np.abs(wa_ref).max()
        _, y_ref, w_ref = _radial_gauss_points(
            x[None, :], (np.zeros(len(wa_ref), dtype=int), *ref), RADIAL)
        pts = o_pts == i
        for f in SMOOTH_F:
            want = w_ref @ f(y_ref)
            assert abs(W[pts] @ f(Y[pts]) - want) <= 1e-13 * (
                np.abs(w_ref) @ np.abs(f(y_ref)))
    expected = {"smooth"} if delta == 0.5 else {0, 1, 2, "outside"}
    assert expected <= seen


def _gauss_radial_rule(order):
    """``_polar_inner_rule`` with every direction expanded into ``order``
    radial Gauss points, which ``regular_pair_matrix`` then contracts
    point by point: the path of the closed form's parent."""
    closed_form = assembly._polar_inner_rule

    def rule(X, tri, spec, quad):
        rays, points = closed_form(X, tri, spec, quad)
        gauss = _radial_gauss_points(X, rays, order)
        none = (np.empty(0, dtype=np.int64), np.empty((0, 2)),
                *np.empty((3, 0)))
        return none, tuple(np.concatenate(pair)
                           for pair in zip(gauss, points))
    return rule


def _class_errors(spec, quad, monkeypatch, order):
    """Per class of the lattice horizon R = spec.delta: the largest
    difference of the class matrix from its radial Gauss rule of
    ``order`` points, relative to the largest entry."""
    R = round(spec.delta)
    keys = interacting_classes(R, False)
    closed = [_lattice_class(spec, quad, key)[0] for key in keys]
    errors = {}
    with monkeypatch.context() as m:
        m.setattr(assembly, "_polar_inner_rule", _gauss_radial_rule(order))
        for key, M in zip(keys, closed):
            dx, dy, t1, t2 = key
            v = np.concatenate([_TRI_T[t1], _TRI_T[t2] + (dx, dy)]).astype(float)
            ref, _ = pair_matrix(v[:3], v[3:], spec, quad)
            errors[key] = np.abs(M - ref).max() / np.abs(ref).max()
    return errors


@pytest.mark.parametrize("R", [2, 3, 4])
def test_peridynamic_closed_form_equals_gauss_path(R, monkeypatch):
    """The peridynamic radial integrand is a quadratic polynomial, which
    the replaced RADIAL-point Gauss rule integrates exactly: every class
    agrees with it to rounding."""
    errors = _class_errors(KernelSpec("peridynamic", float(R)),
                           QuadratureConfig(), monkeypatch, RADIAL)
    assert max(errors.values()) <= 1e-13, max(errors, key=errors.get)


def test_fractional_closed_form_is_exact_radially(monkeypatch):
    """The fractional radial integrand r^-2s (a + r b)^2 is not a
    polynomial: every class agrees with a 40-point radial rule to
    rounding, and with the replaced RADIAL-point rule to that rule's
    error."""
    spec, quad = KernelSpec("fractional", 2.0, 0.4), QuadratureConfig()
    exact = _class_errors(spec, quad, monkeypatch, 40)
    assert max(exact.values()) <= 1e-13, max(exact, key=exact.get)
    replaced = _class_errors(spec, quad, monkeypatch, RADIAL)
    assert max(replaced.values()) <= 1e-10, max(replaced, key=replaced.get)


@pytest.mark.parametrize("s", [0.5 - 1e-9, 0.5, 0.5 + 1e-7, 0.95])
def test_radial_moments_stay_accurate_near_exponent_zero(s, monkeypatch):
    """At s = 1/2 the moment mu_1 = int r^(1 - beta + 1) dr has exponent
    e = 2 - beta + 1 = 0, and a difference of powers divided by e loses
    every digit nearby; the expm1 form keeps each class within rounding
    of a 40-point radial rule on either side and at s = 1/2.  One
    direction per angular panel: the radial integral alone is checked."""
    quad = QuadratureConfig(polar_angular=1)
    errors = _class_errors(KernelSpec("fractional", 2.0, s), quad,
                           monkeypatch, 40)
    assert max(errors.values()) <= 1e-13, max(errors, key=errors.get)


def _gauss_jacobi_coinciding(verts, spec, quad, radial_points=4):
    """The replaced ``coinciding_pair_matrix``: the radial integral of each
    direction by a ``radial_points``-point Gauss-Jacobi rule for the
    weight xi^alpha on [0, 1], its former default order."""
    v = np.asarray(verts, dtype=float)
    B = np.column_stack([v[1] - v[0], v[2] - v[0]])
    detB = abs(np.linalg.det(B))
    area = 0.5 * detB
    grads = p1_gradients(v)
    alpha = 3.0 - spec.homogeneity
    t_nodes, t_wts = gauss01(quad.angular_points)
    x, w = roots_jacobi(radial_points, 0.0, alpha)
    r_nodes, r_wts = 0.5 * (x + 1.0), w / 2.0 ** (alpha + 1.0)
    c = spec.components
    M = np.zeros((3 * c, 3 * c))
    for k in range(6):
        r0, r1 = assembly._HEX[k], assembly._HEX[(k + 1) % 6]
        mh = r0[None, :] + t_nodes[:, None] * (r1 - r0)[None, :]
        mw = mh @ B.T
        if spec.ball_norm == "linf":
            nrm = np.max(np.abs(mw), axis=1)
        else:
            nrm = np.linalg.norm(mw, axis=1)
        cut = np.minimum(1.0, spec.delta / nrm)
        xi = cut[:, None] * r_nodes[None, :]
        wa = xi[:, :, None] * mh[:, None, :]
        Lr = (1.0 - np.maximum(0.0, wa.sum(axis=2))
              - np.maximum(0.0, -wa[:, :, 0]) - np.maximum(0.0, -wa[:, :, 1]))
        Aref = 0.5 * np.maximum(Lr, 0.0) ** 2
        radial = cut ** (alpha + 1.0) * (Aref * r_wts[None, :]).sum(axis=1)
        M += assembly._tensor_contract(spec, t_wts * radial * 2.0 * area * detB,
                                       mw, mw @ grads.T)
    return M


@pytest.mark.parametrize("family,s", [
    ("constant", None), ("fractional", 0.05), ("fractional", 0.5),
    ("fractional", 0.95), ("peridynamic", None)])
def test_coinciding_closed_form_equals_gauss_jacobi(family, s):
    """Along every direction of the difference hexagon the overlap length
    is affine in the radius and stays nonnegative up to the cut, so the
    radial integrand is xi^alpha times a quadratic, which the replaced
    Gauss-Jacobi rule integrates exactly: both lattice triangles agree
    with it to rounding at every horizon."""
    quad = QuadratureConfig()
    for R in (1.0, 2.0, 3.0, 8.0):
        spec = KernelSpec(family, R, s)
        for t in (0, 1):
            tri = _TRI_T[t].astype(float)
            M = coinciding_pair_matrix(tri, spec, quad)
            ref = _gauss_jacobi_coinciding(tri, spec, quad)
            assert np.abs(M - ref).max() <= 1e-14 * np.abs(ref).max(), (R, t)
