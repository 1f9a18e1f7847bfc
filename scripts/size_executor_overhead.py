#!/usr/bin/env python3
"""Size the executor's dispatch overhead: how much of `execute` runs no unit?

Serves each shipped live program as ``repro serve`` does (hybrid
scheduler, ``verify=True, strict=True``) and prints, per program and
seed, medians over ``--rounds`` warm rounds that executed something:

* ``execute_ms`` — the round's `execute` phase (``RoundMetrics.execute_s``);
* ``makespan_ms`` — the part of it during which some unit ran
  (``RoundMetrics.makespan_s``: the recorded schedule with whole-idle
  gaps compressed out);
* ``gap_ms`` — the per-round difference: time inside `execute` in which
  *no* unit ran — scheduler hooks, hand-offs, thread spawn and join;
* ``tasks`` — units executed per round;
* ``threads`` — threads started per round, counted at
  ``threading.Thread.start``.

With ``--against DIR`` each tree runs in its own interpreter: ``--reps``
times this checkout's ``src/`` and ``DIR/src`` serve every program and
seed back to back, alternating which goes first, and the table gives
per program and seed the median ``execute_ms`` and ``gap_ms`` over the
reps of both trees and their ratio (this ÷ against).

It uses nothing that is not public API, so the same file runs on the
parent commit and on a change: the tables in CHANGES.md / DESIGN.md
that quote it can be reproduced from the repository.

Usage:
    python scripts/size_executor_overhead.py [--seeds S ...] [--rounds N]
        [--workers P] [--stream KIND] [--programs tc pt ...]
        [--against DIR] [--reps R]
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path
from statistics import mean, median

from _against import alternate, compare

HERE = Path(__file__).resolve()
PROGRAMS = ("tc", "sg", "retail", "analytics", "pt")
WARMUP = 20


def size(program: str, seed: int, args, started: list[str]) -> dict:
    """One program and seed: the p50s of the kept rounds."""
    from repro.runtime import UpdateStreamService, live_workload, make_stream
    from repro.schedulers import scheduler_registry

    wl = live_workload(program, seed=seed)
    svc = UpdateStreamService(
        wl.program,
        wl.edb,
        scheduler_registry()["hybrid"](),
        workers=args.workers,
        verify=True,
        strict=True,
    )
    rows = []
    stream = make_stream(wl, args.stream, rounds=WARMUP + args.rounds)
    for i, batches in enumerate(stream):
        for delta in batches:
            svc.submit(delta)
        del started[:]
        report = svc.run_round()
        if not report.materialization_ok:
            raise SystemExit(f"{program} seed {seed}: round {i} diverged")
        m = report.metrics
        if i >= WARMUP and m.tasks_executed:
            rows.append(
                (m.execute_s, m.makespan_s, m.tasks_executed, len(started))
            )
    execute, makespan, tasks, threads = zip(*rows)
    gap = [e - k for e, k in zip(execute, makespan)]
    return {
        "program": wl.name,
        "seed": seed,
        "rounds": len(rows),
        "execute_ms": median(execute) * 1e3,
        "makespan_ms": median(makespan) * 1e3,
        "gap_ms": median(gap) * 1e3,
        "tasks": mean(tasks),
        "threads": mean(threads),
    }


def size_all(args):
    """Every program and seed's row, counting thread starts meanwhile."""
    started: list[str] = []
    real_start = threading.Thread.start

    def counting_start(self):
        started.append(self.name)
        real_start(self)

    threading.Thread.start = counting_start
    try:
        for program in args.programs:
            for seed in args.seeds:
                yield size(program, seed, args, started)
    finally:
        threading.Thread.start = real_start


def worker(args) -> int:
    """Every program and seed on ``args.worker``'s tree, as one JSON line."""
    sys.path.insert(0, args.worker)
    print(json.dumps(list(size_all(args))))
    return 0


def against(args) -> int:
    """Alternate this tree and ``args.against`` over ``args.reps`` runs."""
    runs = alternate(HERE, args.against, args.reps, [
        "--rounds", str(args.rounds),
        "--workers", str(args.workers),
        "--stream", args.stream,
        "--programs", *args.programs,
        "--seeds", *map(str, args.seeds),
    ])
    print(
        f"\nworkers={args.workers}, stream={args.stream}, {args.rounds} "
        f"warm rounds after {WARMUP}; median over {args.reps} rep(s) of "
        "each tree of the per-round p50; against / this / this ÷ against"
    )
    print("| program | seed | execute_ms | gap_ms |")
    print("|---|---|---|---|")
    for i, row in enumerate(runs["this"][0]):
        cells = [compare(runs, i, col) for col in ("execute_ms", "gap_ms")]
        print(f"| {row['program']} | {row['seed']} | " + " | ".join(cells)
              + " |")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--programs", nargs="+", default=list(PROGRAMS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    ap.add_argument("--rounds", type=int, default=300)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--stream", default="steady",
                    help="a repro.runtime.STREAM_KINDS name")
    ap.add_argument("--against", help="another checkout to compare with")
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        return worker(args)
    if args.against:
        return against(args)

    sys.path.insert(0, str(HERE.parents[1] / "src"))
    print(f"workers={args.workers}, stream={args.stream}, "
          f"{args.rounds} warm rounds after {WARMUP}, p50 per round")
    print(f"{'program':20} {'seed':>5} {'rounds':>6} {'execute_ms':>10}"
          f" {'makespan_ms':>11} {'gap_ms':>8} {'tasks':>6}"
          f" {'threads':>8}")
    for row in size_all(args):
        print(
            f"{row['program']:20} {row['seed']:5d} {row['rounds']:6d}"
            f" {row['execute_ms']:10.3f} {row['makespan_ms']:11.3f}"
            f" {row['gap_ms']:8.3f} {row['tasks']:6.1f}"
            f" {row['threads']:8.2f}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
