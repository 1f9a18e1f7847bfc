#!/usr/bin/env python3
"""Size how a served round scales with the static DAG ``G``.

Serves ``stratified_program(5, n_edb=k, levels=L, preds_per_level=k)``
from ``repro.workloads.generated`` — a random non-recursive stratified
program whose ``G`` grows with ``k`` and ``L`` — under the level-based
scheduler with 2 workers, one single-op batch a round
(``UpdateStream(gen, seed, cancel=0).batch(1)``). Per shape it prints
the nodes of ``G``, the median active nodes of a round, and the p50
round / compile / execute / verify milliseconds with the from-scratch
check off (``verify=False``: ``verify`` is the schedule record only),
then the p50 round with the check on (``verify=True, strict=True``,
a second service over the same stream).

Each service serves ``--rounds`` rounds; the first ``WARMUP`` are
dropped, and so are no-op rounds (a batch whose one op changes nothing
runs no node). Shapes are named by their node count: 22, 118, 469, 910.

With ``--against DIR`` each tree runs in its own interpreter: ``--reps``
times this checkout's ``src/`` and ``DIR/src`` run every shape back to
back, alternating which goes first, and the table gives per shape and
column the median over the reps of both trees and their ratio
(this ÷ against).

It uses nothing that is not public API, so the same file runs on the
parent commit and on a change: the tables in CHANGES.md / DESIGN.md
that quote it can be reproduced from the repository.

Usage:
    python scripts/size_round_scaling.py [--shapes 22 118 ...]
        [--rounds N] [--seed S] [--against DIR] [--reps R]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median

from _against import alternate, compare

HERE = Path(__file__).resolve()
#: nodes of G → (k, L): stratified_program(5, n_edb=k, levels=L,
#: preds_per_level=k)
SHAPES = {22: (3, 3), 118: (10, 5), 469: (9, 23), 910: (20, 20)}
PROGRAM_SEED = 5
WARMUP = 10
#: per shape, in print order; the ``_ms`` ones are p50s
COLUMNS = ("nodes", "active", "round_ms", "compile_ms", "execute_ms",
           "verify_ms", "checked_round_ms")


def serve(shape: int, rounds: int, seed: int, verify: bool) -> list:
    """The kept rounds' metrics of one service over the shape's stream."""
    from repro.runtime import UpdateStreamService
    from repro.schedulers import scheduler_registry
    from repro.workloads.generated import UpdateStream, stratified_program

    k, levels = SHAPES[shape]
    gen = stratified_program(
        PROGRAM_SEED, n_edb=k, levels=levels, preds_per_level=k
    )
    stream = UpdateStream(gen, seed, cancel=0)
    svc = UpdateStreamService(
        gen.program, gen.edb, scheduler_registry()["levelbased"](),
        workers=2, verify=verify, strict=True,
    )
    kept = []
    for i in range(rounds):
        svc.submit(stream.batch(1))
        report = svc.run_round()
        if not report.materialization_ok:
            raise SystemExit(f"shape {shape}: round {i} diverged")
        if i >= WARMUP and not report.metrics.noop:
            kept.append(report.metrics)
    return kept


def measure(shape: int, rounds: int, seed: int) -> dict:
    """One shape's row: check off, then the check-on round p50."""
    off = serve(shape, rounds, seed, verify=False)
    on = serve(shape, rounds, seed, verify=True)
    if not off or not on:
        raise SystemExit(f"shape {shape}: no round kept of {rounds}")

    def p50_ms(rows, name: str) -> float:
        return median(getattr(m, name) for m in rows) * 1e3

    return {
        "shape": shape,
        "rounds": len(off),
        "nodes": off[0].n_nodes,
        "active": float(median(m.n_active for m in off)),
        "round_ms": p50_ms(off, "latency_s"),
        "compile_ms": p50_ms(off, "compile_s"),
        "execute_ms": p50_ms(off, "execute_s"),
        "verify_ms": p50_ms(off, "verify_s"),
        "checked_round_ms": p50_ms(on, "latency_s"),
    }


def cell(value) -> str:
    return f"{value:d}" if isinstance(value, int) else f"{value:.2f}"


def worker(args) -> int:
    """Every shape on ``args.worker``'s tree, as one JSON line."""
    sys.path.insert(0, args.worker)
    rows = [measure(s, args.rounds, args.seed) for s in args.shapes]
    print(json.dumps(rows))
    return 0


def against(args) -> int:
    """Alternate this tree and ``args.against`` over ``args.reps`` runs."""
    runs = alternate(HERE, args.against, args.reps, [
        "--rounds", str(args.rounds), "--seed", str(args.seed),
        "--shapes", *map(str, args.shapes),
    ])
    print(
        f"\nmedian over {args.reps} rep(s) of each tree, {args.rounds} "
        f"rounds a service, the first {WARMUP} and no-op rounds dropped; "
        "against / this / this ÷ against"
    )
    print("| nodes | " + " | ".join(COLUMNS[1:]) + " |")
    print("|---" * len(COLUMNS) + "|")
    for i, shape in enumerate(args.shapes):
        cells = [compare(runs, i, col, cell) for col in COLUMNS[1:]]
        print(f"| {shape} | " + " | ".join(cells) + " |")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--shapes", nargs="+", type=int, default=list(SHAPES),
                    choices=list(SHAPES))
    ap.add_argument("--rounds", type=int, default=60)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--against", help="another checkout to compare with")
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        return worker(args)
    if args.against:
        return against(args)

    sys.path.insert(0, str(HERE.parents[1] / "src"))
    print(f"levelbased, 2 workers, {args.rounds} rounds a service, the "
          f"first {WARMUP} and no-op rounds dropped; p50 ms, check off "
          "unless named")
    print(f"{'shape':>5} {'rounds':>6} " + " ".join(
        f"{c:>{max(8, len(c))}}" for c in COLUMNS
    ))
    for shape in args.shapes:
        row = measure(shape, args.rounds, args.seed)
        print(f"{shape:5d} {row['rounds']:6d} " + " ".join(
            f"{cell(row[c]):>{max(8, len(c))}}" for c in COLUMNS
        ), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
