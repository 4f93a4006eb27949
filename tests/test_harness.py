"""Experiment harness: configs, CSV reports, and manufactured problems."""

import csv
import io
import re
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from numpy.polynomial.legendre import leggauss

from nlfeti import harness
from nlfeti.assembly import Assembler
from nlfeti.harness import (
    CSV_HEADER,
    _CONFIG_KEYS,
    ExperimentConfig,
    _full_vector,
    baseline_cg_solve,
    export_artifacts,
    load_config,
    parse_config,
    run_single,
    run_study,
    study_rungs,
    write_csv,
)
from nlfeti.kernels import KernelSpec, kernel_on_support
from nlfeti.mesh import build_structured_mesh
from nlfeti.problems import manufactured_problem
from nlfeti.sparse_linalg import projected_pcg


def test_parse_config_and_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# a comment\n"
        "kernel.family = peridynamic\n"
        "kernel.delta = 0.125   # trailing comment\n"
        "mesh.n = 16\n"
        "partition.k1 = 2\n"
        "partition.k2 = 2\n"
    )
    config = load_config(cfg)
    assert config.family == "peridynamic"
    assert config.delta == 0.125 and config.n == 16
    # flag overrides win over file values
    config = load_config(cfg, ["kernel.family=constant", "mesh.n=8"])
    assert config.family == "constant" and config.n == 8
    assert config.delta == 0.125


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config("mesh.m = 32\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config("just words\n")
    with pytest.raises(ValueError):
        load_config(None, ["notanassignment"])


def test_readme_lists_every_config_key():
    """The README's config-key table names exactly the keys the parser
    accepts."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("### Config keys", 1)[1].split("\n#", 1)[0]
    documented = re.findall(r"^\| `([^`]+)`", table, flags=re.M)
    assert sorted(documented) == sorted(_CONFIG_KEYS)


def test_feti_solution_sets_every_collar_dof():
    """Collar nodes that no subdomain holds (the far corners at
    delta = 4h on 2x2) get their constraint values, the same bytes the
    CG solution carries."""
    out = run_single(ExperimentConfig(family="fractional", n=16, delta=0.25,
                                      k1=2, k2=2, solver="both"))
    sub, a = out.feti_system.sub, out.assembled
    held = np.unique(np.concatenate(sub.constrained_nodes))
    assert len(held) < len(out.mesh.collar_nodes)
    assert [r.solver for r in out.records] == ["cg", "feti"]
    assert not np.isnan(out.solution).any()
    cg = _full_vector(a, np.zeros(len(a.interior_dofs)))
    assert (out.solution[a.collar_dofs].tobytes()
            == cg[a.collar_dofs].tobytes())


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(solver="gmres")
    with pytest.raises(ValueError):
        ExperimentConfig(study="weak_scaling")
    with pytest.raises(ValueError):
        ExperimentConfig(family="gaussian")


def test_csv_header_schema():
    assert CSV_HEADER == ("study,kernel,K,h,delta,solver,iterations,"
                          "residual,l2_error,roc,seconds")


def test_manufactured_solutions_satisfy_strong_operator():
    """The manufactured pairs are consistent with the infinite-horizon
    limit: the nonlocal operator applied to the exact field, computed by
    numeric integration, approaches the stated forcing as delta -> 0."""
    gx, gw = leggauss(40)

    def nonlocal_apply(spec, u, x, components):
        # integral of (u(y) - u(x)) * kernel(y - x) over the ball
        delta = spec.delta
        t = 0.5 * delta * (gx + 1)
        w = 0.5 * delta * gw
        pts = []
        wts = []
        zs = []
        for i, zi in enumerate(np.concatenate([-t[::-1], t])):
            for j, zj in enumerate(np.concatenate([-t[::-1], t])):
                z = np.array([zi, zj])
                if spec.ball_norm == "linf":
                    inside = max(abs(zi), abs(zj)) <= delta
                else:
                    inside = np.hypot(zi, zj) <= delta
                if not inside or (zi == 0 and zj == 0):
                    continue
                pts.append(x + z)
                zs.append(z)
                wts.append(np.concatenate([w[::-1], w])[i]
                           * np.concatenate([w[::-1], w])[j])
        pts, zs, wts = np.array(pts), np.array(zs), np.array(wts)
        ker = kernel_on_support(spec, zs)
        du = u(pts) - u(x[None, :])
        if components == 1:
            return np.sum(wts * ker * du)
        out = np.zeros(2)
        for i in range(len(pts)):
            out += wts[i] * ker[i] @ du[i]
        return out

    # The double-integral form carries no 1/2, so the pointwise operator
    # is -2 * integral and the integral itself must equal -f/2.
    prob = manufactured_problem("constant")
    x = np.array([0.45, 0.55])
    vals = []
    for delta in (0.1, 0.05, 0.025):
        spec = KernelSpec("constant", delta)
        vals.append(nonlocal_apply(spec, prob.exact, x, 1))
    target = -0.5 * prob.forcing(x[None, :])[0]
    errs = [abs(v - target) for v in vals]
    # the constant-kernel operator is exact on cubics: all errors tiny
    assert max(errs) < 1e-8

    # peridynamic: polar quadrature (exact for the quadratic field on the
    # disk-supported bond kernel)
    prob = manufactured_problem("peridynamic")
    spec = KernelSpec("peridynamic", 0.1)
    delta = spec.delta
    r = 0.5 * delta * (gx + 1)
    wr = 0.5 * delta * gw
    thetas = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    wt = 2 * np.pi / len(thetas)
    out = np.zeros(2)
    for th in thetas:
        d = np.array([np.cos(th), np.sin(th)])
        pts = x[None, :] + r[:, None] * d[None, :]
        du = prob.exact(pts) - prob.exact(x[None, :])
        proj = du @ d                       # bond stretch along z
        # kernel 3/delta^3 * (z x z)/|z|^3 against du, area element r dr
        out += wt * np.sum(wr * (3.0 / delta**3) / r * proj * r) * d
    target = -0.5 * prob.forcing(x[None, :])[0]
    assert np.abs(out - target).max() < 1e-8


def test_baseline_cg_matches_direct(cache):
    assembled = cache.system("constant", 8, 0.25)
    u, iters, res = baseline_cg_solve(assembled, tol=1e-12)
    direct = spla.spsolve(assembled.A.tocsc(), assembled.rhs)
    assert iters > 0
    assert np.abs(u - direct).max() <= 1e-9 * max(1.0, np.abs(direct).max())


def test_run_single_both_solvers_agree(tmp_path):
    config = ExperimentConfig(family="constant", delta=0.25, n=8,
                              k1=2, k2=2, solver="both")
    out = run_single(config)
    solvers = [r.solver for r in out.records]
    assert "feti" in solvers and "cg" in solvers
    errs = {r.solver: r.l2_error for r in out.records}
    assert np.isclose(errs["feti"], errs["cg"], rtol=1e-6)
    # export the artifacts and sanity-check the files
    files = export_artifacts(out, tmp_path / "artifacts")
    names = {f.name for f in files}
    assert {"A.mtx", "rhs.csv", "solution.csv"} <= names
    assert "subdivision.csv" in names  # a FETI system was built
    text = (tmp_path / "artifacts" / "solution.csv").read_text()
    assert text.splitlines()[0] == "node,x,y,u1"


def _scaled_feti_solution(monkeypatch, factor):
    """Make ``run_single`` gather FETI's solution times ``factor``."""
    gather = harness.gather_solution
    monkeypatch.setattr(harness, "gather_solution",
                        lambda *args, **kw: factor * gather(*args, **kw))


@pytest.mark.parametrize("family", ["constant", "fractional", "peridynamic"])
def test_both_solvers_agree_in_energy_not_in_l2_error(family, monkeypatch):
    """A FETI solution 5e-8 off in relative energy norm is within the
    bound of 1e3 * tol = 1e-7, although its L2 error moves by more than
    1e-6 relative: the check compares the solutions, not the errors."""
    _scaled_feti_solution(monkeypatch, 1.0 + 5e-8)
    out = run_single(ExperimentConfig(family=family, delta=0.25, n=8,
                                      k1=2, k2=2, solver="both"))
    errs = {r.solver: r.l2_error for r in out.records}
    assert abs(errs["feti"] - errs["cg"]) > 1e-6 * errs["cg"]


def test_both_solvers_disagreeing_in_energy_raise(monkeypatch):
    """A FETI solution 1e-6 off in relative energy norm is beyond the
    bound, and the error names the difference reached."""
    _scaled_feti_solution(monkeypatch, 1.0 + 1e-6)
    config = ExperimentConfig(family="peridynamic", delta=0.25, n=8,
                              k1=2, k2=2, solver="both")
    with pytest.raises(RuntimeError, match=r"differ by 1\.000e-06 .*1\.0e-07"):
        run_single(config)


@pytest.mark.parametrize("solver", ["feti", "cg"])
def test_global_system_is_built_only_when_read(solver, assembler_calls):
    """A FETI-only run makes no whole-mesh scatter; a CG run assembles
    the global system once.  Either way it is there, once, when read
    after the run, and the load moments are computed once per run."""
    out = run_single(ExperimentConfig(family="constant", delta=0.125, n=16,
                                      k1=2, k2=2, solver=solver))
    N = out.mesh.cells_per_side
    whole = [c for c in assembler_calls["assemble"]
             if c is None or tuple(c) == (0, N, 0, N)]
    assert len(whole) == (solver == "cg")
    assert assembler_calls["load_moments"] == 1
    out.assembled.rhs
    whole = [c for c in assembler_calls["assemble"] if c is None]
    assert len(whole) == 1
    assert assembler_calls["load_moments"] == 1


def test_study_rungs_ladders():
    fh = study_rungs(ExperimentConfig(study="fixed_horizon", delta=0.0625))
    assert [(r.n, r.delta) for r in fh] == [(32, 0.0625), (64, 0.0625),
                                            (128, 0.0625)]
    fr = study_rungs(ExperimentConfig(study="fixed_ratio"))
    assert [(r.n, r.k1, r.k2) for r in fr] == [(32, 2, 2), (64, 4, 4),
                                               (128, 8, 8)]
    ss = study_rungs(ExperimentConfig(study="strong_scaling", n=32,
                                      delta=0.0625))
    assert [(r.k1, r.k2) for r in ss] == [(1, 1), (2, 2), (4, 4)]
    ps = study_rungs(ExperimentConfig(study="fixed_horizon", delta=0.0625),
                     paper_scale=True)
    assert ps[0].delta == 0.008 and ps[0].n == 250


def test_run_study_csv_and_rates(tmp_path):
    config = ExperimentConfig(family="constant", delta=0.25, study="single",
                              n=8, k1=2, k2=2, solver="feti")
    out_csv = tmp_path / "report.csv"
    records = run_study(config, out_csv=out_csv)
    text = out_csv.read_text()
    rows = list(csv.DictReader(io.StringIO(text)))
    assert text.splitlines()[0] == CSV_HEADER
    assert len(rows) == len(records) == 1
    row = rows[0]
    assert row["study"] == "single" and row["kernel"] == "constant"
    assert row["K"] == "2x2"
    assert float(row["h"]) == 0.125 and float(row["delta"]) == 0.25
    assert int(row["iterations"]) >= 1
    assert float(row["l2_error"]) > 0
    assert float(row["seconds"]) >= 0


def test_cg_row_reports_residual_reached():
    config = ExperimentConfig(family="constant", delta=0.25, n=8,
                              solver="cg", tol=1e-8)
    out = run_single(config)
    (rec,) = out.records
    A = out.assembled.A
    dinv = 1.0 / A.diagonal()
    trace = []
    rhs = out.assembled.rhs
    projected_pcg(lambda v: A @ v, lambda v: v, rhs, np.zeros_like(rhs),
                  apply_Minv=lambda r: dinv * r, tol=config.tol,
                  maxit=config.maxit, trace=trace)
    assert len(trace) == rec.iterations
    assert rec.residual == trace[-1]
    assert rec.residual <= config.tol


def test_run_study_records_failures(tmp_path, monkeypatch, capsys):
    import nlfeti.harness as harness

    def boom(config, study=None):
        raise RuntimeError("intentional rung failure")

    monkeypatch.setattr(harness, "run_single", boom)
    config = ExperimentConfig(family="constant", delta=0.25, n=8,
                              study="single")
    records = run_study(config, out_csv=tmp_path / "fail.csv")
    assert len(records) == 1
    assert records[0].iterations == -1
    assert np.isnan(records[0].l2_error)
    captured = capsys.readouterr()
    assert "failed" not in captured.out
    assert "intentional rung failure" in captured.err
    # one failed row per solver, labelled as a successful rung's rows
    for solver, rows in (("both", [("cg", "1x1"), ("feti", "2x2")]),
                         ("cg", [("cg", "1x1")]),
                         ("feti", [("feti", "2x2")])):
        records = run_study(replace(config, solver=solver),
                            out_csv=tmp_path / "fail.csv")
        assert [(r.solver, r.K) for r in records] == rows
        assert all(r.iterations == -1 and np.isnan(r.l2_error)
                   for r in records)
        written = list(csv.DictReader(io.StringIO(
            (tmp_path / "fail.csv").read_text())))
        assert [(r["solver"], r["K"]) for r in written] == rows


def test_study_holds_one_rung(monkeypatch):
    """A study keeps only the rows of a rung: each rung's FETI system is
    freed before the next rung's build starts."""
    import nlfeti.harness as harness

    real, rungs, alive = harness.build_feti_system, [], []

    def spy(*args, **kwargs):
        alive.append([r() is not None for r in rungs])
        system = real(*args, **kwargs)
        rungs.append(weakref.ref(system))
        return system

    monkeypatch.setattr(harness, "build_feti_system", spy)
    records = run_study(ExperimentConfig(family="constant", delta=0.125,
                                         n=16, study="strong_scaling",
                                         solver="feti"))
    assert [(r.K, r.iterations >= 0) for r in records] == [
        ("1x1", True), ("2x2", True), ("4x4", True)]
    assert alive == [[], [False], [False, False]]


def test_write_csv_roundtrip(tmp_path):
    config = ExperimentConfig(family="constant", delta=0.25, n=8,
                              k1=2, k2=2, solver="feti")
    out = run_single(config)
    p = tmp_path / "rows.csv"
    write_csv(p, out.records)
    rows = list(csv.DictReader(io.StringIO(p.read_text())))
    assert len(rows) == 1 and rows[0]["solver"] == "feti"
