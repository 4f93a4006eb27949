"""Manufactured solutions with matching forcing terms.

The exact fields are cubic polynomials, for which the nonlocal operators
agree exactly with their local (differential) limits, so the recorded
errors are pure discretization errors of the finite element space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ManufacturedProblem:
    """Forcing, constraint data, and exact solution for one family."""

    forcing: callable
    exact: callable


def _diffusion_exact(p: np.ndarray) -> np.ndarray:
    p = np.atleast_2d(p)
    return p[:, 0] ** 2 * p[:, 1] + p[:, 1] ** 2


def _diffusion_forcing(p: np.ndarray) -> np.ndarray:
    # minus the Laplacian of the exact field
    p = np.atleast_2d(p)
    return -2.0 * (1.0 + p[:, 1])


def _peridynamic_exact(p: np.ndarray) -> np.ndarray:
    p = np.atleast_2d(p)
    return np.column_stack([p[:, 1] ** 2, p[:, 0] ** 2 * p[:, 1]])


def _peridynamic_forcing(p: np.ndarray) -> np.ndarray:
    # minus (pi/4) (laplacian + 2 grad div) of the exact field
    p = np.atleast_2d(p)
    return -(np.pi / 2.0) * np.column_stack(
        [1.0 + 2.0 * p[:, 0], p[:, 1]]
    )


def manufactured_problem(family: str) -> ManufacturedProblem:
    """Exact solution / forcing pair for a kernel family.

    Scalar families share the cubic diffusion field; the vector family
    gets the matching momentum-balance pair.
    """
    if family in ("constant", "fractional"):
        return ManufacturedProblem(forcing=_diffusion_forcing,
                                   exact=_diffusion_exact)
    if family == "peridynamic":
        return ManufacturedProblem(forcing=_peridynamic_forcing,
                                   exact=_peridynamic_exact)
    raise ValueError(f"unknown kernel family {family!r}")
