#!/usr/bin/env python3
"""Size the library engine: ``IncrementalEngine.apply`` on §15's cells.

Replays the ``deletions``, ``mixed`` and ``steady`` streams of the six
live programs (``flat``, ``retail``, ``analytics``, ``tc``, ``pt``,
``sg`` — 18 cells) through ``IncrementalEngine(program, edb).apply(
effective_zdelta(edb, merge_deltas(batches)))`` and prints, per cell,
the total milliseconds the ``apply`` calls of one replay took: median
[min–max] over the replays. Only ``apply`` is timed; the stream is
generated and each round's update clamped before the clock starts, and
after every round — outside the timer — ``snapshot()`` is checked
against row ``seminaive_evaluate`` of the stream's EDB so far. A
mismatch is reported and the script exits 1.

Every replay of a cell is a fresh interpreter, so no cell runs on a
heap an earlier one left, which first replays the cell once untimed:
what is timed is a fresh engine's rounds in a warm interpreter, not
the first use of each code path and rule kernel. With ``--against DIR`` each replay of a cell
runs twice, back to back, once on ``DIR/src`` and once on this
checkout's ``src/``, alternating which goes first from one replay to
the next, and the table gains the ratio of the two medians (this ÷
against). Without it only this checkout runs. It uses nothing that is not public API, so the same
file runs on an older commit (pass the older checkout to
``--against``).

Usage:
    python scripts/size_engine.py [--rounds N] [--reps R] [--seed S]
        [--against DIR]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median

from _against import run_once, trees

PROGRAMS = ("flat", "retail", "analytics", "tc", "pt", "sg")
STREAMS = ("deletions", "mixed", "steady")
BATCH = 3
HERE = Path(__file__).resolve()


def replay(args) -> int:
    """One replay of the cell ``args.cell`` on ``args.worker``'s tree:
    prints one JSON object — the total ``apply`` ms and the rounds that
    differed from the oracle, which the caller reports."""
    sys.path.insert(0, args.worker)
    import gc
    from time import perf_counter

    from repro.datalog import (
        IncrementalEngine,
        apply_zdelta,
        effective_zdelta,
        merge_deltas,
        seminaive_evaluate,
    )
    from repro.runtime import live_workload, make_stream

    program, kind = args.cell.split("/")
    # the first replay warms the interpreter — code paths, the rule
    # kernels' memo — and is neither timed nor checked
    for timed in (False, True):
        wl = live_workload(program, seed=args.seed)
        rounds = [
            list(batches)
            for batches in make_stream(
                wl, kind, rounds=args.rounds, batch_size=BATCH
            )
        ]
        edb = wl.edb
        engine = IncrementalEngine(wl.program, edb)
        gc.collect()
        total, wrong = 0.0, []
        for i, batches in enumerate(rounds):
            zdelta = effective_zdelta(edb, merge_deltas(batches))
            t0 = perf_counter()
            engine.apply(zdelta)
            total += perf_counter() - t0
            edb = apply_zdelta(edb, zdelta)
            if timed:
                want = seminaive_evaluate(wl.program, edb)[0].as_dict()
                if engine.snapshot() != want:
                    wrong.append(i)
    print(json.dumps({"ms": total * 1e3, "wrong": wrong}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--seed", type=int, default=19)
    ap.add_argument("--against", help="another checkout to compare with")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    ap.add_argument("--cell", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        return replay(args)

    pair = trees(args.against)
    cells = [f"{program}/{kind}" for program in PROGRAMS for kind in STREAMS]
    runs: dict[str, dict[str, list[float]]] = {name: {} for name, _ in pair}
    failed = False
    for rep in range(args.reps):
        for cell in cells:
            got = run_once(HERE, pair, rep, [
                "--cell", cell, "--rounds", str(args.rounds),
                "--seed", str(args.seed),
            ])
            for name, run in got.items():
                if run["wrong"]:
                    print(f"MISMATCH ({name}): {cell} rounds {run['wrong']}")
                    failed = True
                runs[name].setdefault(cell, []).append(run["ms"])
        print(
            f"replay {rep}: "
            + "; ".join(
                name + " " + " ".join(
                    f"{ms[-1]:.1f}" for ms in runs[name].values()
                )
                for name, _ in pair
            ),
            flush=True,
        )

    header = ["program", "stream"] + [name for name, _ in pair]
    if len(pair) == 2:
        header.append("this ÷ against")
    print(
        f"\napply ms per replay of {args.rounds} rounds (batch "
        f"{BATCH}, seed {args.seed}), median [min–max] over "
        f"{args.reps} replay(s)"
    )
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for cell in runs["this"]:
        program, kind = cell.split("/")
        row = [program, kind]
        for name, _ in pair:
            ms = runs[name][cell]
            row.append(f"{median(ms):.1f} [{min(ms):.1f}–{max(ms):.1f}]")
        if len(pair) == 2:
            ratio = median(runs["this"][cell]) / median(runs["against"][cell])
            row.append(f"{ratio:.2f}")
        print("| " + " | ".join(row) + " |")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
