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

It uses nothing that is not public API, so the same file runs on the
parent commit and on a change: the tables in CHANGES.md / DESIGN.md
that quote it can be reproduced from the repository.

Usage:
    python scripts/size_executor_overhead.py [--seeds S ...] [--rounds N]
        [--workers P] [--stream KIND] [--programs tc pt ...]
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path
from statistics import mean, median

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.runtime import (  # noqa: E402
    STREAM_KINDS,
    UpdateStreamService,
    live_workload,
    make_stream,
)
from repro.schedulers import scheduler_registry  # noqa: E402

PROGRAMS = ("tc", "sg", "retail", "analytics", "pt")
WARMUP = 20


def size(program: str, seed: int, args, started: list[str]) -> str:
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
    return (
        f"{wl.name:20} {seed:5d} {len(rows):6d}"
        f" {median(execute) * 1e3:10.3f} {median(makespan) * 1e3:11.3f}"
        f" {median(gap) * 1e3:8.3f} {mean(tasks):6.1f} {mean(threads):8.2f}"
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--programs", nargs="+", default=list(PROGRAMS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    ap.add_argument("--rounds", type=int, default=300)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--stream", default="steady", choices=STREAM_KINDS)
    args = ap.parse_args()

    started: list[str] = []
    real_start = threading.Thread.start

    def counting_start(self):
        started.append(self.name)
        real_start(self)

    threading.Thread.start = counting_start
    try:
        print(f"workers={args.workers}, stream={args.stream}, "
              f"{args.rounds} warm rounds after {WARMUP}, p50 per round")
        print(f"{'program':20} {'seed':>5} {'rounds':>6} {'execute_ms':>10}"
              f" {'makespan_ms':>11} {'gap_ms':>8} {'tasks':>6}"
              f" {'threads':>8}")
        for program in args.programs:
            for seed in args.seeds:
                print(size(program, seed, args, started), flush=True)
    finally:
        threading.Thread.start = real_start
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
