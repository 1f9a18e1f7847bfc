#!/usr/bin/env python3
"""Size the strict round check: its bookkeeping and its from-scratch
evaluation.

Serves each shipped program as ``repro serve`` does (hybrid scheduler,
``verify=True, strict=True``) and prints, per program and seed, p50s
over ``--rounds`` warm rounds that recorded a schedule:

* ``record_us`` — :func:`repro.runtime.record_round` rebuilding the
  round's executor outcome as a verification trace and result;
* ``prop_us`` — :func:`repro.tasks.propagate_changes` over that trace
  (the ground-truth active set the service reads for
  ``RoundMetrics.n_active``);
* ``check_us`` — ``RoundArtifacts.check()``, the strict invariant
  checker, with the propagation cached as in the service;
* ``cold_us`` — the three run once, in the service's order, right after
  the round: what the round pays with its caches full of the round;
* ``eval_us`` — the from-scratch evaluation the round is checked
  against: the service's own ``plan_cache.evaluate(cu)`` on the round's
  staged ``cu``;
* ``verify_ms`` / ``round_ms`` — ``RoundMetrics.verify_s`` and
  ``latency_s`` of the same rounds;

and once per program and seed, after the rounds, ``fixed_us``: the same
``plan_cache.evaluate`` over an EDB of the same schema with no facts —
the program over its stated facts only, the check's fixed cost.

``record_us``, ``prop_us``, ``check_us``, ``eval_us`` and ``fixed_us``
are each the fastest of five back-to-back calls after that (the code's
own cost, stable from run to run); ``cold_us`` swings with whatever else
the box runs. All of them run on what the service itself recorded and
evaluated, captured by wrapping the ``record_round`` the service calls
and its plan cache's ``evaluate``.

With ``--against DIR`` each tree runs in its own interpreter: ``--reps``
times this checkout's ``src/`` and ``DIR/src`` serve every program and
seed back to back, alternating which goes first, and the table gives
per program and seed the median over the reps of ``verify_ms``,
``round_ms``, ``check_us``, ``eval_us`` and ``fixed_us`` of both trees
and their ratio (this ÷ against).

It uses nothing that is not public API, so the same file runs on the
parent commit and on a change: the tables in CHANGES.md / DESIGN.md
that quote it can be reproduced from the repository.

Usage:
    python scripts/size_round_check.py [--seeds S ...] [--rounds N]
        [--stream KIND] [--programs tc sg ...] [--against DIR] [--reps R]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from _against import alternate, compare

HERE = Path(__file__).resolve()
PROGRAMS = ("tc", "sg", "flat", "retail", "analytics", "pt")
WARMUP = 20
REPEAT = 5
#: per program and seed, in print order
COLUMNS = ("record_us", "prop_us", "check_us", "cold_us", "eval_us",
           "verify_ms", "round_ms")


def fastest(call) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        t0 = perf_counter()
        call()
        best = min(best, perf_counter() - t0)
    return best


def size(program: str, seed: int, args, captured: list) -> dict:
    """One program and seed: the p50s of the kept rounds, and the
    check's fixed cost."""
    from dataclasses import replace

    from repro.datalog import Database
    from repro.runtime import (
        UpdateStreamService,
        live_workload,
        make_stream,
        record_round,
    )
    from repro.schedulers import scheduler_registry
    from repro.tasks import propagate_changes

    wl = live_workload(program, seed=seed)
    svc = UpdateStreamService(
        wl.program,
        wl.edb,
        scheduler_registry()["hybrid"](),
        workers=2,
        verify=True,
        strict=True,
    )
    evaluate = svc.plan_cache.evaluate
    checked: list = []

    def capturing(cu):
        checked.append(cu)
        return evaluate(cu)

    svc.plan_cache.evaluate = capturing
    rows = []
    stream = make_stream(wl, args.stream, rounds=WARMUP + args.rounds)
    for i, batches in enumerate(stream):
        for delta in batches:
            svc.submit(delta)
        del captured[:], checked[:]
        report = svc.run_round()
        if not report.materialization_ok:
            raise SystemExit(f"{program} seed {seed}: round {i} diverged")
        if i < WARMUP or not captured or not checked:
            continue
        outcome, trace = captured[-1]
        cu = checked[-1]
        t0 = perf_counter()
        artifacts = record_round(outcome, trace)
        artifacts.trace.propagation
        if not artifacts.check().ok:
            raise SystemExit(f"{program} seed {seed}: round {i} check failed")
        cold = perf_counter() - t0
        vtrace = artifacts.trace
        m = report.metrics
        rows.append((
            fastest(lambda: record_round(outcome, trace)) * 1e6,
            fastest(lambda: propagate_changes(
                vtrace.dag, vtrace.initial_tasks, vtrace.changed_edges
            )) * 1e6,
            fastest(artifacts.check) * 1e6,
            cold * 1e6,
            fastest(lambda: evaluate(cu)) * 1e6,
            m.verify_s * 1e3,
            m.latency_s * 1e3,
        ))
    # no round kept: every column nan
    columns = zip(*rows) if rows else [[float("nan")]] * len(COLUMNS)
    fixed = float("nan")
    if rows:
        empty = Database()
        for pred, rel in svc.database().relations.items():
            empty.relation(pred, rel.arity)
        bare = replace(cu, edb_new=empty)
        evaluate(bare)  # plans for the empty relations' seeds
        fixed = fastest(lambda: evaluate(bare)) * 1e6
    return {
        "program": wl.name,
        "seed": seed,
        "rounds": len(rows),
        **{col: median(c) for col, c in zip(COLUMNS, columns)},
        "fixed_us": fixed,
    }


def size_all(args):
    """Every program and seed's row, the service's ``record_round``
    wrapped meanwhile to capture what it recorded."""
    import repro.runtime.service as service_module

    captured: list = []
    real = service_module.record_round

    def capturing(outcome, trace, *rest, **kw):
        captured.append((outcome, trace))
        return real(outcome, trace, *rest, **kw)

    service_module.record_round = capturing
    try:
        for program in args.programs:
            for seed in args.seeds:
                yield size(program, seed, args, captured)
    finally:
        service_module.record_round = real


def worker(args) -> int:
    """Every program and seed on ``args.worker``'s tree, as one JSON line."""
    sys.path.insert(0, args.worker)
    print(json.dumps(list(size_all(args))))
    return 0


def against(args) -> int:
    """Alternate this tree and ``args.against`` over ``args.reps`` runs."""
    runs = alternate(HERE, args.against, args.reps, [
        "--rounds", str(args.rounds),
        "--stream", args.stream,
        "--programs", *args.programs,
        "--seeds", *map(str, args.seeds),
    ])
    print(
        f"\nstream={args.stream}, {args.rounds} warm rounds after "
        f"{WARMUP}, verify=True strict=True; median over {args.reps} "
        "rep(s) of each tree of the per-round p50; against / this / "
        "this ÷ against"
    )
    cols = ("verify_ms", "round_ms", "check_us", "eval_us", "fixed_us")
    print("| program | seed | " + " | ".join(cols) + " |")
    print("|---" * (2 + len(cols)) + "|")
    for i, row in enumerate(runs["this"][0]):
        cells = [compare(runs, i, col) for col in cols]
        print(f"| {row['program']} | {row['seed']} | " + " | ".join(cells)
              + " |")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--programs", nargs="+", default=list(PROGRAMS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    ap.add_argument("--rounds", type=int, default=200)
    ap.add_argument("--stream", default="mixed",
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
    print(f"stream={args.stream}, {args.rounds} warm rounds after "
          f"{WARMUP}, verify=True strict=True, p50 per round")
    print(f"{'program':20} {'seed':>5} {'rounds':>6} {'record_us':>9}"
          f" {'prop_us':>8} {'check_us':>9} {'cold_us':>8}"
          f" {'eval_us':>8} {'fixed_us':>8}"
          f" {'verify_ms':>10} {'round_ms':>9}")
    for row in size_all(args):
        print(
            f"{row['program']:20} {row['seed']:5d} {row['rounds']:6d}"
            f" {row['record_us']:9.1f} {row['prop_us']:8.1f}"
            f" {row['check_us']:9.1f} {row['cold_us']:8.1f}"
            f" {row['eval_us']:8.1f} {row['fixed_us']:8.1f}"
            f" {row['verify_ms']:10.3f} {row['round_ms']:9.3f}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
