#!/usr/bin/env python3
"""Size the strict round check's bookkeeping: what does `verify` spend
besides the from-scratch evaluation?

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
* ``verify_ms`` / ``round_ms`` — ``RoundMetrics.verify_s`` and
  ``latency_s`` of the same rounds.

``record_us``, ``prop_us`` and ``check_us`` are each the fastest of
five back-to-back calls after that (the code's own cost, stable from
run to run); ``cold_us`` swings with whatever else the box runs. All of
them run on the outcome the service itself recorded, captured by
wrapping the ``record_round`` the service calls. It uses nothing that
is not public API, so the same file runs on the parent commit and on a
change: copy it into the other checkout's ``scripts/`` (it puts its own
checkout's ``src/`` on the path).

Usage:
    python scripts/size_round_check.py [--seeds S ...] [--rounds N]
        [--stream KIND] [--programs tc sg ...]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import repro.runtime.service as service_module  # noqa: E402
from repro.runtime import (  # noqa: E402
    STREAM_KINDS,
    UpdateStreamService,
    live_workload,
    make_stream,
    record_round,
)
from repro.schedulers import scheduler_registry  # noqa: E402
from repro.tasks import propagate_changes  # noqa: E402

PROGRAMS = ("tc", "sg", "flat", "retail", "analytics", "pt")
WARMUP = 20
REPEAT = 5


def fastest(call) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        t0 = perf_counter()
        call()
        best = min(best, perf_counter() - t0)
    return best


def size(program: str, seed: int, args, captured: list) -> str:
    wl = live_workload(program, seed=seed)
    svc = UpdateStreamService(
        wl.program,
        wl.edb,
        scheduler_registry()["hybrid"](),
        workers=2,
        verify=True,
        strict=True,
    )
    rows = []
    stream = make_stream(wl, args.stream, rounds=WARMUP + args.rounds)
    for i, batches in enumerate(stream):
        for delta in batches:
            svc.submit(delta)
        del captured[:]
        report = svc.run_round()
        if not report.materialization_ok:
            raise SystemExit(f"{program} seed {seed}: round {i} diverged")
        if i < WARMUP or not captured:
            continue
        outcome, trace = captured[-1]
        t0 = perf_counter()
        artifacts = record_round(outcome, trace)
        artifacts.trace.propagation
        if not artifacts.check().ok:
            raise SystemExit(f"{program} seed {seed}: round {i} check failed")
        cold = perf_counter() - t0
        vtrace = artifacts.trace
        m = report.metrics
        rows.append((
            fastest(lambda: record_round(outcome, trace)),
            fastest(lambda: propagate_changes(
                vtrace.dag, vtrace.initial_tasks, vtrace.changed_edges
            )),
            fastest(artifacts.check),
            cold,
            m.verify_s,
            m.latency_s,
        ))
    if not rows:
        return f"{wl.name:20} {seed:5d} {0:6d}"
    record, prop, check, cold, verify, latency = zip(*rows)
    return (
        f"{wl.name:20} {seed:5d} {len(rows):6d}"
        f" {median(record) * 1e6:9.1f} {median(prop) * 1e6:8.1f}"
        f" {median(check) * 1e6:9.1f} {median(cold) * 1e6:8.1f}"
        f" {median(verify) * 1e3:10.3f} {median(latency) * 1e3:9.3f}"
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--programs", nargs="+", default=list(PROGRAMS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    ap.add_argument("--rounds", type=int, default=200)
    ap.add_argument("--stream", default="mixed", choices=STREAM_KINDS)
    args = ap.parse_args()

    captured: list = []
    real = service_module.record_round

    def capturing(outcome, trace, *rest, **kw):
        captured.append((outcome, trace))
        return real(outcome, trace, *rest, **kw)

    service_module.record_round = capturing
    try:
        print(f"stream={args.stream}, {args.rounds} warm rounds after "
              f"{WARMUP}, verify=True strict=True, p50 per round")
        print(f"{'program':20} {'seed':>5} {'rounds':>6} {'record_us':>9}"
              f" {'prop_us':>8} {'check_us':>9} {'cold_us':>8}"
              f" {'verify_ms':>10} {'round_ms':>9}")
        for program in args.programs:
            for seed in args.seeds:
                print(size(program, seed, args, captured), flush=True)
    finally:
        service_module.record_round = real
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
