"""Interaction kernels for nonlocal diffusion and bond-based peridynamics.

Three families on the plane, each supported on a horizon ball of radius
``delta``:

- ``constant``: scalar kernel, constant on the max-norm ball,
  ``3 / (4 delta^4)``.
- ``fractional``: scalar kernel ``(2 - 2s) / (pi delta^(2-2s)) * r^-(2+2s)``
  on the Euclidean ball, ``s in (0, 1)``.
- ``peridynamic``: 2x2 tensor kernel
  ``3 / delta^3 * (z z^T) / |z|^3`` on the Euclidean ball.

The scaling constants are chosen so the operators converge to
``-Laplace`` (diffusion) and to the Navier operator with Poisson ratio
1/4 (peridynamics) as ``delta -> 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILIES = ("constant", "fractional", "peridynamic")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus parameters.

    ``components`` is 1 for scalar families and 2 for the peridynamic
    (vector-valued) family.  ``ball_norm`` is the norm defining the
    interaction neighborhood ("linf" or "l2").
    """

    family: str
    delta: float
    s: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise ValueError("kernel.delta must be finite and positive, "
                             f"got {self.delta}")
        if self.family == "fractional":
            if self.s is None or not (0.0 < self.s < 1.0):
                raise ValueError("fractional kernel needs s in (0, 1)")

    @property
    def components(self) -> int:
        return 2 if self.family == "peridynamic" else 1

    @property
    def ball_norm(self) -> str:
        return "linf" if self.family == "constant" else "l2"

    @property
    def singular(self) -> bool:
        """True when the kernel is unbounded at coincident points."""
        return self.family in ("fractional", "peridynamic")

    @property
    def homogeneity(self) -> float:
        """Degree beta with ``kernel(t z) = t^-beta kernel(z)``."""
        if self.family == "constant":
            return 0.0
        if self.family == "fractional":
            return 2.0 + 2.0 * self.s
        return 1.0  # peridynamic: z z^T / |z|^3


def scaling_constant(spec: KernelSpec) -> float:
    """Leading constant of the kernel family."""
    d = spec.delta
    if spec.family == "constant":
        return 3.0 / (4.0 * d**4)
    if spec.family == "fractional":
        return (2.0 - 2.0 * spec.s) / (np.pi * d ** (2.0 - 2.0 * spec.s))
    return 3.0 / d**3


def kernel_on_support(spec: KernelSpec, z: np.ndarray) -> np.ndarray:
    """Kernel as a function of the offset ``z = y - x``, without the
    horizon indicator (caller guarantees the points lie in the support)."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    c = scaling_constant(spec)
    if spec.family == "constant":
        return np.full(z.shape[0], c)
    r = np.linalg.norm(z, axis=1)
    if spec.family == "fractional":
        return c * r ** (-2.0 - 2.0 * spec.s)
    return c * np.einsum("mi,mj->mij", z, z) / r[:, None, None] ** 3
