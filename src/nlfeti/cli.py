"""Command line entry point: solve, study, dump-subdivision."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (export_artifacts, load_config, run_single, run_study,
                      solution_csv)
from .mesh import build_structured_mesh
from .subdivision import build_subdivision, dump_subdivision


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value configuration file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key (repeatable; flags win)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlfeti",
        description="Nonlocal diffusion / peridynamics FETI solver toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="assemble and solve one configuration")
    _add_common(p)
    p.add_argument("--solver", choices=["feti", "cg", "both"])
    p.add_argument("--export-mm", metavar="DIR",
                   help="write Matrix Market / CSV artifacts to DIR")
    p.add_argument("--out", metavar="CSV", help="write the solution CSV here")

    p = sub.add_parser("study", help="run a study ladder and emit CSV")
    _add_common(p)
    p.add_argument("--out", metavar="CSV", required=True)
    p.add_argument("--paper-scale", action="store_true",
                   help="run the full-size configurations (slow)")

    p = sub.add_parser("dump-subdivision",
                       help="write the overlap structure of the partition")
    _add_common(p)
    p.add_argument("--out", metavar="CSV", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.set)
        if args.command == "solve":
            if args.solver:
                from dataclasses import replace
                config = replace(config, solver=args.solver)
            out = run_single(config)
            for rec in out.records:
                print(rec.csv_row())
            if args.out:
                Path(args.out).write_text(solution_csv(
                    out.assembled.mesh, out.assembled.spec.components,
                    out.solution))
            if args.export_mm:
                for path in export_artifacts(out, args.export_mm):
                    print(f"wrote {path}", file=sys.stderr)
        elif args.command == "study":
            records = run_study(config, out_csv=args.out,
                                paper_scale=args.paper_scale)
            for rec in records:
                print(rec.csv_row())
            if any(r.iterations < 0 for r in records):
                return 1
        elif args.command == "dump-subdivision":
            mesh = build_structured_mesh(config.n, config.delta)
            sub = build_subdivision(
                mesh, config.k1, config.k2,
                ball_norm=config.kernel_spec().ball_norm)
            Path(args.out).write_text(dump_subdivision(sub))
            print(f"wrote {args.out}", file=sys.stderr)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
