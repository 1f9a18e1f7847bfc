#!/usr/bin/env python3
"""Size what a served round pays for the EDB relation its delta touches.

Serves ``retail_analytics(n_products=200, n_stores=24, n_sales=1500·s)``
from ``repro.workloads.datalog_workloads`` for each scale ``s`` of
``--scales`` (default 1 and 10) under the hybrid scheduler with 2
workers, one single-op replace a round: a batch that deletes one
present ``sale`` fact and inserts one absent one, drawn by a seeded
generator from the facts the stream holds. Per scale it prints the p50
round and compile milliseconds with the from-scratch check off
(``verify=False``), then the same two with the check on
(``verify=True, strict=True``, a second service over the same stream),
and for every scale after the first its ratio to the first scale's
(10×/1× by default). A round whose cost follows its delta reads a ratio
near 1 with the check off; one that copies the changed relation grows
with ``s``. With the check on the round also evaluates the whole
program, which grows with ``s`` whatever the maintenance costs.

Each service serves ``--rounds`` rounds; the first ``WARMUP`` are
dropped (no round of this stream is a no-op).

With ``--against DIR`` each tree runs in its own interpreter: ``--reps``
times this checkout's ``src/`` and ``DIR/src`` run every scale back to
back, alternating which goes first, and the table gives per scale and
column the median over the reps of both trees and their ratio
(this ÷ against).

It uses nothing that is not public API, so the same file runs on an
older commit and on a change: the tables in DESIGN.md that quote it can
be reproduced from the repository.

Usage:
    python scripts/size_edb_successor.py [--scales 1 10] [--rounds N]
        [--seed S] [--against DIR] [--reps R]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from statistics import median

from _against import alternate, compare, medians

HERE = Path(__file__).resolve()
WARMUP = 20
#: per scale, in print order; p50 ms, the check off then on
COLUMNS = ("round_ms", "compile_ms", "checked_round_ms",
           "checked_compile_ms")


def serve(scale: int, rounds: int, seed: int, verify: bool) -> list:
    """The kept rounds' metrics of one service over the scale's stream."""
    from repro.datalog import Delta
    from repro.runtime import UpdateStreamService
    from repro.schedulers import scheduler_registry
    from repro.workloads.datalog_workloads import retail_analytics

    program, edb, _ = retail_analytics(
        n_products=200, n_stores=24, n_sales=1500 * scale
    )
    held = sorted(edb.relations["sale"])
    present = set(held)
    rng = random.Random(seed)
    svc = UpdateStreamService(
        program, edb, scheduler_registry()["hybrid"](), workers=2,
        verify=verify, strict=True,
    )
    kept = []
    try:
        for i in range(rounds):
            at = rng.randrange(len(held))
            gone = held[at]
            new = gone
            while new in present:
                new = (f"s{rng.randrange(24)}", f"p{rng.randrange(200)}",
                       rng.randrange(1, 9))
            held[at] = new
            present.discard(gone)
            present.add(new)
            svc.submit(Delta().delete("sale", gone).insert("sale", new))
            # a checked round that diverges raises
            metrics = svc.run_round().metrics
            if i >= WARMUP:
                kept.append(metrics)
    finally:
        svc.close()
    return kept


def measure(scale: int, rounds: int, seed: int) -> dict:
    """One scale's row: check off, then check on."""
    off = serve(scale, rounds, seed, verify=False)
    on = serve(scale, rounds, seed, verify=True)

    def p50_ms(rows, name: str) -> float:
        return median(getattr(m, name) for m in rows) * 1e3

    return {
        "scale": scale,
        "rounds": len(off),
        "round_ms": p50_ms(off, "latency_s"),
        "compile_ms": p50_ms(off, "compile_s"),
        "checked_round_ms": p50_ms(on, "latency_s"),
        "checked_compile_ms": p50_ms(on, "compile_s"),
    }


def worker(args) -> int:
    """Every scale on ``args.worker``'s tree, as one JSON line."""
    sys.path.insert(0, args.worker)
    rows = [measure(s, args.rounds, args.seed) for s in args.scales]
    print(json.dumps(rows))
    return 0


def against(args) -> int:
    """Alternate this tree and ``args.against`` over ``args.reps`` runs."""
    runs = alternate(HERE, args.against, args.reps, [
        "--rounds", str(args.rounds), "--seed", str(args.seed),
        "--scales", *map(str, args.scales),
    ])
    print(
        f"\nmedian over {args.reps} rep(s) of each tree, {args.rounds} "
        f"rounds a service, the first {WARMUP} dropped; p50 ms, "
        "against / this / this ÷ against"
    )
    print("| scale | " + " | ".join(COLUMNS) + " |")
    print("|---" * (len(COLUMNS) + 1) + "|")
    for i, scale in enumerate(args.scales):
        cells = [compare(runs, i, col) for col in COLUMNS]
        print(f"| {scale}× | " + " | ".join(cells) + " |")
    for i, scale in enumerate(args.scales[1:], 1):
        cells = []
        for col in COLUMNS:
            (a0, t0), (a, t) = medians(runs, 0, col), medians(runs, i, col)
            cells.append(f"{a / a0:.2f} / {t / t0:.2f}")
        print(f"| {scale}×/{args.scales[0]}× | " + " | ".join(cells) + " |")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--scales", nargs="+", type=int, default=[1, 10])
    ap.add_argument("--rounds", type=int, default=120)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--against", help="another checkout to compare with")
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.rounds <= WARMUP:
        ap.error(f"--rounds must be above the {WARMUP} warm-up rounds")
    if args.worker:
        return worker(args)
    if args.against:
        return against(args)

    sys.path.insert(0, str(HERE.parents[1] / "src"))
    print(f"hybrid, 2 workers, one single-op replace a round, "
          f"{args.rounds} rounds a service, the first {WARMUP} dropped; "
          "p50 ms, check off, then on (checked_)")
    print(f"{'scale':>5} {'rounds':>6} " + " ".join(
        f"{c:>{max(8, len(c))}}" for c in COLUMNS
    ))
    first = None
    for scale in args.scales:
        row = measure(scale, args.rounds, args.seed)
        print(f"{scale:4d}× {row['rounds']:6d} " + " ".join(
            f"{row[c]:>{max(8, len(c))}.3f}" for c in COLUMNS
        ), flush=True)
        if first is None:
            first = row
        else:
            print(f"{'÷' + str(args.scales[0]) + '×':>5} {'':6} " + " ".join(
                f"{row[c] / first[c]:>{max(8, len(c))}.2f}" for c in COLUMNS
            ), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
