"""Kernel families: scaling constants, tensor structure, homogeneity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlfeti.kernels import KernelSpec, kernel_on_support, scaling_constant


def test_family_validation():
    with pytest.raises(ValueError):
        KernelSpec("gauss", 0.1)
    with pytest.raises(ValueError):
        KernelSpec("constant", -0.1)
    with pytest.raises(ValueError):
        KernelSpec("fractional", 0.1)          # missing s
    with pytest.raises(ValueError):
        KernelSpec("fractional", 0.1, s=1.5)


def test_scaling_constants():
    assert np.isclose(scaling_constant(KernelSpec("constant", 0.5)),
                      3.0 / (4.0 * 0.5**4))
    s = 0.4
    assert np.isclose(scaling_constant(KernelSpec("fractional", 0.5, s)),
                      (2 - 2 * s) / (np.pi * 0.5 ** (2 - 2 * s)))
    assert np.isclose(scaling_constant(KernelSpec("peridynamic", 0.5)),
                      3.0 / 0.5**3)


def test_peridynamic_tensor_structure():
    spec = KernelSpec("peridynamic", 0.5)
    z = np.array([[0.1, 0.2]])
    out = kernel_on_support(spec, z)
    assert out.shape == (1, 2, 2)
    # rank-one symmetric: gamma = c z z^T / |z|^3
    assert np.allclose(out[0], out[0].T)
    assert abs(np.linalg.det(out[0])) < 1e-12
    r = np.linalg.norm(z)
    assert np.isclose(out[0, 0, 1], (3 / 0.5**3) * z[0, 0] * z[0, 1] / r**3)


@settings(deadline=None, max_examples=60)
@given(
    family=st.sampled_from(["constant", "fractional", "peridynamic"]),
    zx=st.floats(-1, 1), zy=st.floats(-1, 1),
    t=st.floats(0.1, 5.0),
)
def test_homogeneity_degree(family, zx, zy, t):
    z = np.array([[zx, zy]])
    if np.linalg.norm(z) < 1e-3:
        return
    spec = KernelSpec(family, 1.0, 0.4 if family == "fractional" else None)
    beta = spec.homogeneity
    a = kernel_on_support(spec, t * z)
    b = kernel_on_support(spec, z)
    assert np.allclose(a, t ** (-beta) * b, rtol=1e-12)


def test_second_moment_normalization():
    """Each scalar kernel integrates z_1^2 over its ball to exactly 1,
    which is what makes the operators reduce to the Laplacian on
    smooth fields (checked by high-order polar / tensor quadrature)."""
    from numpy.polynomial.legendre import leggauss
    delta = 0.37
    # constant kernel on the max-norm square: analytic
    c = scaling_constant(KernelSpec("constant", delta))
    assert np.isclose(c * (2 * delta) * (2 * delta**3 / 3), 1.0)
    # fractional on the disk: radial closed form, cross-checked by quadrature
    s = 0.4
    spec = KernelSpec("fractional", delta, s)
    val = kernel_on_support(spec, np.array([[1.0, 0.0]]))[0]  # C * 1^{-2-2s}
    # int over the disk of z1^2 * C r^{-2-2s}: pi * C * delta^{2-2s}/(2-2s)
    assert np.isclose(np.pi * val * delta ** (2 - 2 * s) / (2 - 2 * s), 1.0,
                      rtol=1e-12)
    gr, gw = leggauss(200)
    r = 0.5 * delta * (gr + 1)
    wr = 0.5 * delta * gw
    vals = kernel_on_support(spec, np.column_stack([r, np.zeros_like(r)]))
    integral = np.pi * np.sum(wr * vals * r**3)  # angular avg of z1^2 = r^2/2
    assert np.isclose(integral, 1.0, rtol=1e-4)
