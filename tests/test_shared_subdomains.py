"""Subdomains with equal local systems share one assembly and one set of
factorizations within a FETI build: equivalence with the unshared path,
soundness and completeness of the key, and concurrent solves with one
shared factor."""

import os

import numpy as np
import pytest

from nlfeti import feti
from nlfeti.feti import build_feti_system, feti_solve, gather_solution
from nlfeti.subdivision import build_subdivision

from conftest import assert_csr_bitwise, holds, make_spec, n_G

# (family, n, delta / h, k1, k2, distinct local systems)
SHARED = [("peridynamic", 32, 2, 4, 4, 9),
          ("fractional", 32, 2, 4, 4, 9),
          ("constant", 32, 2, 4, 2, 6)]
COUNTED = SHARED + [("constant", 16, 8, 3, 4, 12),
                    ("fractional", 24, 2, 6, 6, 25)]


def _subdivision(family, n, ratio, k1, k2, cache):
    spec = make_spec(family, ratio / n)
    return build_subdivision(cache.mesh(n, ratio / n), k1, k2,
                             ball_norm=spec.ball_norm)


def _build(family, n, ratio, k1, k2, cache, sub=None):
    sub = sub or _subdivision(family, n, ratio, k1, k2, cache)
    return build_feti_system(cache.system(family, n, ratio / n), sub)


def _unshared(monkeypatch):
    """Make ``build_feti_system`` assemble every subdomain without the
    table, so each makes its own blocks and factorizations."""
    real = feti.assemble_subdomain
    monkeypatch.setattr(feti, "assemble_subdomain",
                        lambda *args, table=None, **kw: real(*args, **kw))
    return real


def _groups(system) -> list[list[int]]:
    """Subdomains by the factorizations object they hold, in order."""
    groups: dict[int, list[int]] = {}
    for k, s in enumerate(system.subsystems):
        groups.setdefault(id(s._factors), []).append(k)
    return list(groups.values())


def _solve(system):
    result = feti_solve(system, 1e-10, 20_000)
    return result.iterations, gather_solution(system, result)


@pytest.mark.parametrize("family,n,ratio,k1,k2,distinct", SHARED)
def test_shared_build_matches_the_unshared_one(family, n, ratio, k1, k2,
                                              distinct, cache, monkeypatch):
    """Every block, load, pin set, d, iteration count and gathered
    solution is byte-equal to the build in which each subdomain
    assembles and factorizes for itself."""
    shared = _build(family, n, ratio, k1, k2, cache)
    assert len(_groups(shared)) == distinct < shared.sub.K
    if family == "peridynamic":
        floating = [g for g in _groups(shared)
                    if shared.sub.floating[g[0]]]
        assert any(len(g) > 1 for g in floating)
    iters, u = _solve(shared)
    real = _unshared(monkeypatch)
    alone = _build(family, n, ratio, k1, k2, cache)
    monkeypatch.setattr(feti, "assemble_subdomain", real)
    assert len(_groups(alone)) == alone.sub.K
    for a, b in zip(shared.subsystems, alone.subsystems):
        for name in ("A_OO", "A_OG", "A_GG"):
            assert_csr_bitwise(getattr(a, name), getattr(b, name))
        for name in ("f", "pinned", "modes"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert shared.d.tobytes() == alone.d.tobytes()
    alone_iters, alone_u = _solve(alone)
    assert iters == alone_iters
    assert u.tobytes() == alone_u.tobytes()


def _neumann_bytes(s) -> bytes:
    A = s._neumann_matrix()
    return b"".join(x.tobytes() for x in (A.indptr, A.indices, A.data))


@pytest.mark.parametrize("family,n,ratio,k1,k2,distinct", COUNTED)
def test_one_neumann_factorization_per_distinct_matrix(
        family, n, ratio, k1, k2, distinct, cache, monkeypatch):
    """The key sets no two subdomains apart whose Neumann matrices are
    equal: the build factorizes as often as there are distinct ones."""
    calls = []
    real = feti.factorize
    monkeypatch.setattr(feti, "factorize",
                        lambda A: calls.append(1) or real(A))
    shared = _build(family, n, ratio, k1, k2, cache)
    assert len(calls) == len(_groups(shared)) == distinct
    _unshared(monkeypatch)
    alone = _build(family, n, ratio, k1, k2, cache)
    assert len({_neumann_bytes(s) for s in alone.subsystems}) == distinct


def _perturbed_build(cache, element):
    """fractional n=24, delta=2h, 6 x 6 (K = 36) with one more
    membership bit, that of no subdomain, on ``element``: only the
    count of the pair (element, element) changes."""
    sub = _subdivision("fractional", 24, 2, 6, 6, cache)
    assert sub.K % 8 and not sub.membership[element, -1] & 0x80
    sub.membership[element, -1] |= np.uint8(0x80)
    return _build("fractional", 24, 2, 6, 6, cache, sub=sub)


def test_key_holds_exactly_the_pairs_that_reach_kept_rows(cache):
    """A changed weight of a pair with a kept vertex sets its subdomain
    apart from its twins; one of a pair whose vertices are all
    constrained does not."""
    plain = _build("fractional", 24, 2, 6, 6, cache)
    mesh, sub = plain.assembled.mesh, plain.sub
    groups = _groups(plain)
    twins = next(g for g in groups if len(g) > 1)
    k = twins[0]
    held = np.flatnonzero(holds(sub, k))
    kept = np.concatenate([sub.inner_nodes[k], sub.interface_nodes[k]])
    constrained = held[np.isin(mesh.elements[held],
                               sub.constrained_nodes[k]).all(axis=1)]
    near = held[np.isin(mesh.elements[held], kept).any(axis=1)]
    assert constrained.size and near.size
    assert _groups(_perturbed_build(cache, constrained[0])) == groups
    split = _groups(_perturbed_build(cache, near[0]))
    assert set(next(g for g in split if k in g)) & set(twins) == {k}


def test_different_pins_mean_no_shared_neumann_factor(cache, monkeypatch):
    """Floating twins whose pinned dofs differ keep their own Neumann
    factorizations, and the solve stays correct."""
    plain = _build("peridynamic", 32, 2, 4, 4, cache)
    twins = next(g for g in _groups(plain)
                 if len(g) > 1 and plain.sub.floating[g[0]])
    real = feti._pin_dofs

    def reversed_walk(k, modes, nodes, c):
        # walks the nodes in descending id order for the last twin
        return real(k, modes, -nodes if k == twins[-1] else nodes, c)

    monkeypatch.setattr(feti, "_pin_dofs", reversed_walk)
    moved = _build("peridynamic", 32, 2, 4, 4, cache)
    last = moved.subsystems[twins[-1]]
    assert not np.array_equal(last.pinned, plain.subsystems[twins[-1]].pinned)
    assert all(last._factors is not moved.subsystems[j]._factors
               for j in twins[:-1])
    assert len(_groups(moved)) == len(_groups(plain)) + 1
    iters, u = _solve(plain)
    moved_iters, moved_u = _solve(moved)
    assert abs(moved_iters - iters) <= 1
    assert np.abs(moved_u - u).max() <= 1e-8 * np.abs(u).max()


def test_keys_tell_apart_arrays_that_split_the_same_bytes(cache):
    """Keys whose arrays join to the same bytes but split them
    differently differ: the header holds the size of every array, so
    only subdomains with equal arrays share a key."""
    mesh = cache.mesh(8, 0.25)  # 12 cells, 13 nodes a side
    cells = (2, 6, 2, 6)
    nodes = np.array([40, 41, 42, 43, 44])
    none = np.zeros(0, np.int64)
    counts = np.ones((3, 4, 4), np.uint8)

    def key(inner, inter, constrained, pinned=none):
        return feti._local_key(mesh, cells, (inner, inter, constrained),
                               pinned, counts)

    same = key(nodes[:2], nodes[2:], none)
    assert same == key(nodes[:2].copy(), nodes[2:].copy(), none.copy())
    # node 44 lies at position (44 // 13 - 2) 5 + 44 % 13 - 2 = 8
    splits = [key(nodes[:3], nodes[3:], none),
              key(nodes[:2], nodes[2:4], nodes[4:]),
              key(nodes[:2], nodes[2:4], none, np.array([8]))]
    assert len({same, *splits}) == 4
    # past the header, the window shape and five sizes, the bytes agree
    assert len({k[7 * 8:] for k in (same, *splits)}) == 1


def test_twins_solve_concurrently_on_one_factor(cache, monkeypatch):
    """Twins solved at the same time by ``_each_subdomain`` with one
    shared SuperLU object give the serial results bitwise."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    system = _build("fractional", 32, 2, 4, 4, cache)
    group = max(_groups(system), key=len)
    assert len(group) > 1
    twins = [system.subsystems[k] for k in group]
    rng = np.random.default_rng(5)
    work = [twins[i % len(twins)] for i in range(16)]
    rhs = [rng.standard_normal(s.n_O + n_G(s)) for s in work]
    serial = [s.pinv_apply(f).tobytes() for s, f in zip(work, rhs)]
    for _ in range(10):
        pooled = feti._each_subdomain(lambda s, f: s.pinv_apply(f),
                                      work, rhs)
        assert [w.tobytes() for w in pooled] == serial
