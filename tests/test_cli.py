"""Command line interface behavior."""

import csv
import io

import pytest

from nlfeti.cli import main
from nlfeti.harness import CSV_HEADER


def test_solve_prints_record_rows(capsys):
    rc = main(["solve", "--set", "kernel.family=constant",
               "--set", "kernel.delta=0.25", "--set", "mesh.n=8",
               "--set", "partition.k1=2", "--set", "partition.k2=2"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    row = out[-1].split(",")
    assert len(row) == len(CSV_HEADER.split(","))
    assert row[5] == "feti"


def test_solve_with_config_file_and_exports(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "kernel.family = constant\n"
        "kernel.delta = 0.25\n"
        "mesh.n = 8\n"
        "partition.k1 = 2\n"
        "partition.k2 = 2\n"
        "solver = cg\n"
    )
    sol = tmp_path / "solution.csv"
    art = tmp_path / "artifacts"
    rc = main(["solve", "--config", str(cfg), "--solver", "both",
               "--out", str(sol), "--export-mm", str(art)])
    assert rc == 0
    assert sol.exists()
    assert (art / "A.mtx").exists()
    assert (art / "rhs.csv").exists()
    header = (art / "A.mtx").read_text().splitlines()[0]
    assert header.startswith("%%MatrixMarket matrix coordinate")
    out, err = capsys.readouterr()
    # stdout is CSV rows only; the written paths go to stderr
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[5] for r in rows] == ["cg", "feti"]
    assert all(len(r) == len(CSV_HEADER.split(",")) for r in rows)
    assert f"wrote {art / 'A.mtx'}" in err.splitlines()


def test_export_and_rows_do_not_depend_on_the_solver(tmp_path, capsys):
    """A FETI-only run, which assembles no global system for its solve,
    exports the bytes of ``A.mtx``, ``B.mtx`` and ``rhs.csv`` that a CG
    run exports; a ``both`` run prints the CG and the FETI rows of the
    single-solver runs, apart from the seconds."""
    args = ["solve", "--set", "kernel.family=fractional",
            "--set", "kernel.delta=0.25", "--set", "mesh.n=8",
            "--set", "partition.k1=2", "--set", "partition.k2=2"]
    rows = {}
    for solver in ("cg", "feti", "both"):
        art = tmp_path / solver
        assert main(args + ["--solver", solver, "--export-mm", str(art)]) == 0
        rows[solver] = [r[:-1] for r in csv.reader(
            io.StringIO(capsys.readouterr().out))]
    for name in ("A.mtx", "B.mtx", "rhs.csv"):
        want = (tmp_path / "cg" / name).read_bytes()
        for solver in ("feti", "both"):
            assert (tmp_path / solver / name).read_bytes() == want, name
    assert rows["both"] == rows["cg"] + rows["feti"]


def test_solve_determinism_bitwise(tmp_path):
    args = ["solve", "--set", "kernel.family=peridynamic",
            "--set", "kernel.delta=0.25", "--set", "mesh.n=8",
            "--set", "partition.k1=2", "--set", "partition.k2=2"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_study_writes_csv(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(["study", "--out", str(out),
               "--set", "study=strong_scaling",
               "--set", "kernel.delta=0.125", "--set", "mesh.n=16"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [r["K"] for r in rows] == ["1x1", "2x2", "4x4"]
    assert all(int(r["iterations"]) >= 0 for r in rows)


def test_dump_subdivision(tmp_path, capsys):
    out = tmp_path / "sub.csv"
    rc = main(["dump-subdivision", "--out", str(out),
               "--set", "kernel.delta=0.25", "--set", "mesh.n=8",
               "--set", "partition.k1=2", "--set", "partition.k2=2"])
    assert rc == 0
    assert capsys.readouterr() == ("", f"wrote {out}\n")
    lines = out.read_text().splitlines()
    assert lines[0] == "element,x,y,zeta,subdomains"
    assert len(lines) > 1


def test_bad_config_key_fails_cleanly(capsys):
    # the deleted solver switch is an unknown key too
    for setting in ("mesh.resolution=8", "feti.reortho=full"):
        rc = main(["solve", "--set", "kernel.delta=0.25", "--set", "mesh.n=8",
                   "--set", setting])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error:" in err and "unknown config key" in err, setting


def test_mismatched_ball_strategy_fails_cleanly(capsys):
    # each family has one inner rule chosen by its ball norm, so a
    # strategy that does not suit the kernel can no longer be set at all
    rc = main(["solve", "--set", "kernel.family=constant",
               "--set", "kernel.delta=0.25", "--set", "mesh.n=8",
               "--set", "ball.strategy=polar"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err and "unknown config key 'ball.strategy'" in err


@pytest.mark.parametrize("key, value", [
    ("feti.tol", "-1"), ("feti.tol", "0"), ("feti.tol", "nan"),
    ("feti.tol", "inf"), ("feti.maxit", "0"), ("feti.maxit", "-3"),
    ("kernel.delta", "nan"), ("kernel.delta", "inf"),
    ("kernel.delta", "-inf")])
def test_bad_setting_fails_cleanly(key, value, capsys):
    """A value no solve can use is refused before a mesh is built, with
    the key named, rather than surfacing as a solver failure."""
    rc = main(["solve", "--set", "mesh.n=8", "--set", "kernel.delta=0.25",
               "--set", f"{key}={value}"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and key in err


def test_more_rectangles_than_cells_fails_cleanly(capsys):
    rc = main(["solve", "--set", "mesh.n=4", "--set", "kernel.delta=0.25",
               "--set", "partition.k1=5", "--set", "partition.k2=1"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err and "k1=5 exceeds n=4" in err
