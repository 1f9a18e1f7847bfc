#!/usr/bin/env python3
"""Size the fixpoint node's body: continue the committed fixpoint, or recompute?

Serves each recursive shipped program (hybrid scheduler, ``verify=True,
strict=True``) over three kinds of round and prints, per program, seed
and kind, over the warm rounds that ran a fixpoint node:

* ``fix_ms`` — p50 of the seconds the round's ``fix@…`` units ran, read
  off the recorded schedule (``report.artifacts.result.schedule``);
* ``probes`` / ``builds`` — mean ``RoundMetrics.columnar_probes`` /
  ``columnar_builds`` per round (the round's check included);
* ``continued`` — mean ``RoundMetrics.continued_nodes`` per round: how
  many of those nodes continued from Δ⁺ instead of recomputing (read as
  0 on a commit that has no such field);
* ``retracted`` — mean ``RoundMetrics.retracted_nodes`` per round: how
  many retracted — took out only the rows that lost their support —
  instead of recomputing (read as 0 on a commit that has no such field).

The kinds: ``insert`` and ``delete`` rounds alternate in one stream, so
the EDB keeps its size — ``--ops`` facts inserted, then as many present
facts deleted; a ``replace`` round does both at once. An insert round's
fixpoint inputs only grow; the other two hold retractions.

With ``--against DIR`` each tree runs in its own interpreter
(``scripts/_against.py``): ``--reps`` times this checkout's ``src/``
and ``DIR/src`` serve every program, seed and kind back to back,
alternating which goes first, and the table gives per row the median
over the reps of ``fix_ms`` and ``probes`` of both trees and their
ratio (this ÷ against).

It uses nothing that is not public API, so the same file runs on the
parent commit and on a change: the engine-vs-recompute rows of DESIGN
§18 can be reproduced from the repository.

Usage:
    python scripts/size_fix_continuation.py [--seeds S ...] [--rounds N]
        [--ops K] [--programs tc sg pt] [--against DIR] [--reps R]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import mean, median

from _against import alternate, compare

HERE = Path(__file__).resolve()
PROGRAMS = ("tc", "sg", "pt")
WARMUP = 20


def batch(wl, kind: str, ops: int):
    from repro.datalog import merge_deltas

    if kind == "insert":
        return wl.random_batch(ops, delete_frac=0.0)
    if kind == "delete":
        return wl.random_batch(ops, delete_frac=1.0)
    return merge_deltas([batch(wl, "delete", ops), batch(wl, "insert", ops)])


def size(program: str, seed: int, kinds: tuple[str, ...], args) -> list[dict]:
    """One program and seed over ``kinds``: a row per kind."""
    from repro.runtime import UpdateStreamService, live_workload
    from repro.schedulers import scheduler_registry

    wl = live_workload(program, seed=seed)
    svc = UpdateStreamService(
        wl.program,
        wl.edb,
        scheduler_registry()["hybrid"](),
        workers=2,
        verify=True,
        strict=True,
    )
    rows: dict[str, list[tuple]] = {kind: [] for kind in kinds}
    for i in range(WARMUP + args.rounds * len(kinds)):
        kind = kinds[i % len(kinds)]
        svc.submit(batch(wl, kind, args.ops))
        report = svc.run_round()
        if not report.materialization_ok:
            raise SystemExit(f"{program} seed {seed}: round {i} diverged")
        m = report.metrics
        if i < WARMUP or report.artifacts is None:
            continue
        names = report.compiled.structure.dag.node_names
        fix_s = [
            r.finish - r.start
            for r in report.artifacts.result.schedule
            if names[r.node].startswith("fix@")
        ]
        if fix_s:
            rows[kind].append((
                sum(fix_s), m.columnar_probes, m.columnar_builds,
                getattr(m, "continued_nodes", 0),
                getattr(m, "retracted_nodes", 0),
            ))
    out = []
    for kind in kinds:
        fix, probes, builds, continued, retracted = zip(*rows[kind])
        out.append({
            "program": wl.name, "seed": seed, "kind": kind,
            "rounds": len(fix), "fix_ms": median(fix) * 1e3,
            "probes": mean(probes), "builds": mean(builds),
            "continued": mean(continued), "retracted": mean(retracted),
        })
    return out


def size_all(args):
    """Every program, seed and kind's row."""
    for program in args.programs:
        for seed in args.seeds:
            for kinds in (("insert", "delete"), ("replace",)):
                yield from size(program, seed, kinds, args)


def worker(args) -> int:
    """Every row on ``args.worker``'s tree, as one JSON line."""
    sys.path.insert(0, args.worker)
    print(json.dumps(list(size_all(args))))
    return 0


def against(args) -> int:
    """Alternate this tree and ``args.against`` over ``args.reps`` runs."""
    runs = alternate(HERE, args.against, args.reps, [
        "--rounds", str(args.rounds),
        "--ops", str(args.ops),
        "--programs", *args.programs,
        "--seeds", *map(str, args.seeds),
    ])
    print(
        f"\n{args.ops} op(s) a side, {args.rounds} warm rounds per kind; "
        f"median over {args.reps} rep(s) of each tree; against / this / "
        "this ÷ against"
    )
    print("| program | seed | kind | fix_ms | probes | retracted |")
    print("|---|---|---|---|---|---|")
    for i, row in enumerate(runs["this"][0]):
        cells = [
            compare(runs, i, col) for col in ("fix_ms", "probes", "retracted")
        ]
        print(f"| {row['program']} | {row['seed']} | {row['kind']} | "
              + " | ".join(cells) + " |")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--programs", nargs="+", default=list(PROGRAMS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    ap.add_argument("--rounds", type=int, default=150,
                    help="warm rounds per kind")
    ap.add_argument("--ops", type=int, default=2,
                    help="facts inserted (deleted) per round")
    ap.add_argument("--against", help="another checkout to compare with")
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        return worker(args)
    if args.against:
        return against(args)

    sys.path.insert(0, str(HERE.parents[1] / "src"))
    print(f"{args.ops} op(s) a side, {args.rounds} warm rounds per kind "
          f"after {WARMUP}, verify=True strict=True")
    print(f"{'program':20} {'seed':>5} {'kind':8} {'rounds':>6} {'fix_ms':>8}"
          f" {'probes':>9} {'builds':>7} {'continued':>10} {'retracted':>10}")
    for row in size_all(args):
        print(
            f"{row['program']:20} {row['seed']:5d} {row['kind']:8}"
            f" {row['rounds']:6d} {row['fix_ms']:8.3f}"
            f" {row['probes']:9.1f} {row['builds']:7.2f}"
            f" {row['continued']:10.2f} {row['retracted']:10.2f}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
