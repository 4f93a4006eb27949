"""Shared fixtures: meshes, kernels, and cached global solves."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from nlfeti.assembly import Assembler, assemble_global
from nlfeti.kernels import KernelSpec
from nlfeti.mesh import build_structured_mesh
from nlfeti.problems import manufactured_problem


def make_spec(family: str, delta: float) -> KernelSpec:
    return KernelSpec(family, delta, 0.4 if family == "fractional" else None)


def assert_csr_bitwise(got, want) -> None:
    """Same shape, sparsity pattern and bytes of every stored value."""
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


def strip_to_owned(sub) -> None:
    """Sabotage a subdivision: clear the membership bits of every
    subdomain's overlap elements, so pairs straddling a partition
    boundary lose their common subdomain."""
    for k in range(sub.K):
        extra = np.setdiff1d(sub.extended_elements[k], sub.owned_elements[k])
        sub.membership[extra, k // 8] &= np.uint8(~(1 << (k % 8)) & 0xFF)


class SolveCache:
    """Memoizes assemblers, global systems, and direct solves so the
    many FETI comparisons don't re-assemble identical problems."""

    def __init__(self):
        self._meshes = {}
        self._assemblers = {}
        self._systems = {}
        self._direct = {}

    def mesh(self, n: int, delta: float):
        key = (n, delta)
        if key not in self._meshes:
            self._meshes[key] = build_structured_mesh(n, delta)
        return self._meshes[key]

    def assembler(self, family: str, n: int, delta: float) -> Assembler:
        key = (family, n, delta)
        if key not in self._assemblers:
            self._assemblers[key] = Assembler(
                self.mesh(n, delta), make_spec(family, delta))
        return self._assemblers[key]

    def system(self, family: str, n: int, delta: float):
        key = (family, n, delta)
        if key not in self._systems:
            prob = manufactured_problem(family)
            self._systems[key] = assemble_global(
                self.mesh(n, delta), make_spec(family, delta),
                prob.forcing, prob.exact,
                assembler=self.assembler(family, n, delta))
        return self._systems[key]

    def direct_solution(self, family: str, n: int, delta: float) -> np.ndarray:
        key = (family, n, delta)
        if key not in self._direct:
            sysm = self.system(family, n, delta)
            self._direct[key] = spla.spsolve(sysm.A.tocsc(), sysm.rhs)
        return self._direct[key]


@pytest.fixture(scope="session")
def cache() -> SolveCache:
    return SolveCache()
