"""Benchmark of nlfeti: time to solution and per-layer timings.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition runs
``perfbench/worker.py`` in a fresh process, in an empty directory that
is also its HOME and TMPDIR and is deleted afterwards, with bytecode
writing off: no repetition inherits on-disk state from an earlier one.
The worker runs with a fixed hash seed and without address-space
randomization, so that its peak resident set repeats.
Repetitions run one at a time (closed loop, one solve in flight) for
about ``--seconds``: another starts only if it is expected to end in
time, but the first always runs.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as
medians over repetitions.  ``--trace 1`` alternates an untraced and a
traced repetition and reports the per-layer metrics, medians over the
traced ones; ``trace.overhead_s`` is the traced minus the untraced time
to solution.  The workloads are fixed configurations without random
input, so ``--seed`` only labels the run.

Every solve is checked (see ``worker.check``); a failed check or a
solve that raises counts in ``failed``.  The last line of stdout is one
JSON object; the run record, with the environment and every
repetition's spans, goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no bytecode for a repetition to find
from worker import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
ADDR_NO_RANDOMIZE = 0x0040000  # personality flag, linux/personality.h


def source_digest(src: Path) -> str:
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fixed_layout() -> None:
    """Turn address-space randomization off for the worker about to be
    exec'd.  With it, and with a fixed hash seed, the memory layout and
    so the peak resident set repeat from run to run; with either left
    random, peak_rss_mb of wide_overlap varies by up to 25%."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def repetition(root: Path, workload: str, traced: bool, index: int,
               timeout: float) -> dict:
    """Run one repetition in a fresh process and directory."""
    work = root / OUT_DIR / f"rep-{os.getpid()}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), HOME=str(work),
               TMPDIR=str(work), XDG_CACHE_HOME=str(work / ".cache"),
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    result_file = work / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--trace", str(int(traced)), "--result", str(result_file)]
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, timeout=timeout,
                              capture_output=True, text=True,
                              preexec_fn=fixed_layout)
        if proc.returncode == 0:
            return json.loads(result_file.read_text())
        reason = f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"
    except subprocess.TimeoutExpired:
        reason = f"worker timed out after {timeout:.0f} s"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    solves = len(WORKLOADS[workload].l2_error)
    return dict(error=reason, attempted=solves, failed=solves, checks=[])


def median(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "nlfeti" / "harness.py").is_file():
        print(f"error: {root} holds no nlfeti sources (src/nlfeti)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = time.perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        t = time.perf_counter()
        plain.append(repetition(root, args.workload, False, len(plain) * 2,
                                RUN_LIMIT_S - (t - start)))
        if args.trace:
            traced.append(repetition(
                root, args.workload, True, len(traced) * 2 + 1,
                RUN_LIMIT_S - (time.perf_counter() - start)))
        # Start another round only if it is expected to end in time.
        now = time.perf_counter()
        if now - start + (now - t) > min(args.seconds, RUN_LIMIT_S):
            break

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    ok = failed == 0
    env = next((r["env"] for r in reps if "env" in r), {})
    env.update(commit=commit(root), source_sha256=source_digest(root / "src"),
               seed=args.seed, repetitions=len(reps))
    print("env " + json.dumps(env, sort_keys=True))

    metrics = {}
    if ok:
        if not args.trace:
            values = {k: median(plain, k) for k in
                      ("time_to_solution_s", "setup_s", "peak_rss_mb")}
        else:
            layers = [r["layers"] for r in traced]
            values = {k: statistics.median(lay[k] for lay in layers)
                      for k in layers[0]}
            values["trace.time_to_solution_s"] = median(
                traced, "time_to_solution_s")
            values["trace.overhead_s"] = statistics.median(
                tr["time_to_solution_s"] - pl["time_to_solution_s"]
                for pl, tr in zip(plain, traced))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}
        for name, m in metrics.items():
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    else:
        for r in reps:
            if r.get("error"):
                print(f"error: {r['error']}", file=sys.stderr)
            for c in r["checks"]:
                if not c["ok"]:
                    print(f"check failed: {json.dumps(c)}", file=sys.stderr)
    print(f"{args.workload} failure_rate = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} solves failed)")

    record = dict(workload=args.workload, trace=args.trace, env=env,
                  correct=ok, metrics=metrics, repetitions=reps)
    out = root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))

    print(json.dumps(dict(correct=ok, attempted=attempted, failed=failed,
                          metrics=metrics)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
