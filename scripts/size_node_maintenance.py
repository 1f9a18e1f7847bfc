#!/usr/bin/env python3
"""Size a node kind's body: maintain the committed value, or recompute?

Serves shipped programs (hybrid scheduler, ``verify=True, strict=True``)
over three kinds of round and prints, per program, seed and kind, over
the warm rounds that ran a node of the kind named on the command line:

* ``fix`` — the fixpoint nodes of the recursive programs (``tc``,
  ``sg``, ``pt``), which continue the committed fixpoint from Δ⁺, or
  retract — take out only the rows that lost their support — instead of
  recomputing;
* ``task`` — the task nodes of the programs with non-recursive strata
  (``analytics``, ``flat``, ``retail``), which apply their inputs'
  Z-sets instead of re-running their rule.

Columns:

* ``<kind>_ms`` — p50 of the seconds the round's units of that kind
  ran, summed, read off the recorded schedule
  (``report.artifacts.result.schedule``, the nodes whose key in
  ``report.compiled.node_keys`` names the kind);
* ``probes`` — mean ``RoundMetrics.columnar_probes`` per round (the
  round's check included);
* per kind, the mean per round of the ``RoundMetrics`` counters that say
  how its nodes ran: for ``fix`` ``builds`` (``columnar_builds``),
  ``continued`` (``continued_nodes``) and ``retracted``
  (``retracted_nodes``); for ``task`` ``maintained``
  (``maintained_tasks``). A counter a commit does not have reads as 0.

The kinds: ``insert`` and ``delete`` rounds alternate in one stream, so
the EDB keeps its size — ``--ops`` facts inserted, then as many present
facts deleted; a ``replace`` round does both at once. An insert round's
fixpoint inputs only grow; the other two hold retractions.

With ``--against DIR`` each tree runs in its own interpreter
(``scripts/_against.py``): ``--reps`` times this checkout's ``src/``
and ``DIR/src`` serve every program, seed and kind back to back,
alternating which goes first, and the table gives per row the median
over the reps of ``<kind>_ms``, ``probes`` (and, for ``fix``,
``retracted``) of both trees and their ratio (this ÷ against).

It uses nothing that is not public API, so the same file runs on the
parent commit and on a change: the engine-vs-recompute rows of DESIGN
§18 can be reproduced from the repository.

Usage:
    python scripts/size_node_maintenance.py {fix,task} [--seeds S ...]
        [--rounds N] [--ops K] [--programs P ...] [--against DIR]
        [--reps R]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import mean, median

from _against import alternate, compare

HERE = Path(__file__).resolve()
WARMUP = 20

#: node kind → (default programs, the counters its table shows —
#: column → ``RoundMetrics`` field —, the columns ``--against``
#: compares)
NODES = {
    "fix": (
        ("tc", "sg", "pt"),
        {"builds": "columnar_builds", "continued": "continued_nodes",
         "retracted": "retracted_nodes"},
        ("fix_ms", "probes", "retracted"),
    ),
    "task": (
        ("analytics", "flat", "retail"),
        {"maintained": "maintained_tasks"},
        ("task_ms", "probes"),
    ),
}


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

    counters = NODES[args.node][1]
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
        keys = report.compiled.node_keys
        node_s = [
            r.finish - r.start
            for r in report.artifacts.result.schedule
            if keys[r.node][0] == args.node
        ]
        if node_s:
            rows[kind].append((
                sum(node_s), m.columnar_probes,
                *(getattr(m, field, 0) for field in counters.values()),
            ))
    out = []
    for kind in kinds:
        node_s, probes, *counts = zip(*rows[kind])
        out.append({
            "program": wl.name, "seed": seed, "kind": kind,
            "rounds": len(node_s), f"{args.node}_ms": median(node_s) * 1e3,
            "probes": mean(probes),
            **{col: mean(c) for col, c in zip(counters, counts)},
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
        args.node,
        "--rounds", str(args.rounds),
        "--ops", str(args.ops),
        "--programs", *args.programs,
        "--seeds", *map(str, args.seeds),
    ])
    columns = NODES[args.node][2]
    print(
        f"\n{args.ops} op(s) a side, {args.rounds} warm rounds per kind; "
        f"median over {args.reps} rep(s) of each tree; against / this / "
        "this ÷ against"
    )
    print("| program | seed | kind | " + " | ".join(columns) + " |")
    print("|---" * (3 + len(columns)) + "|")
    for i, row in enumerate(runs["this"][0]):
        cells = [compare(runs, i, col) for col in columns]
        print(f"| {row['program']} | {row['seed']} | {row['kind']} | "
              + " | ".join(cells) + " |")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("node", choices=sorted(NODES),
                    help="the node kind whose units are timed")
    ap.add_argument("--programs", nargs="+",
                    help="shipped programs (default: the node kind's)")
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    ap.add_argument("--rounds", type=int, default=150,
                    help="warm rounds per kind")
    ap.add_argument("--ops", type=int, default=2,
                    help="facts inserted (deleted) per round")
    ap.add_argument("--against", help="another checkout to compare with")
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args()
    args.programs = args.programs or list(NODES[args.node][0])
    if args.worker:
        return worker(args)
    if args.against:
        return against(args)

    sys.path.insert(0, str(HERE.parents[1] / "src"))
    counters = NODES[args.node][1]
    print(f"{args.ops} op(s) a side, {args.rounds} warm rounds per kind "
          f"after {WARMUP}, verify=True strict=True")
    print(f"{'program':20} {'seed':>5} {'kind':8} {'rounds':>6}"
          f" {args.node + '_ms':>8} {'probes':>9}"
          + "".join(f" {col:>10}" for col in counters))
    for row in size_all(args):
        print(
            f"{row['program']:20} {row['seed']:5d} {row['kind']:8}"
            f" {row['rounds']:6d} {row[args.node + '_ms']:8.3f}"
            f" {row['probes']:9.1f}"
            + "".join(f" {row[col]:10.2f}" for col in counters),
            flush=True,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
