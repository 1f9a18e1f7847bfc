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
  0 on a commit that has no such field).

The kinds: ``insert`` and ``delete`` rounds alternate in one stream, so
the EDB keeps its size — ``--ops`` facts inserted, then as many present
facts deleted; a ``replace`` round does both at once. An insert round's
fixpoint inputs only grow; the other two hold retractions.

It uses nothing that is not public API, so the same file runs on the
parent commit and on a change: the engine-vs-recompute rows of DESIGN
§18 can be reproduced from the repository.

Usage:
    python scripts/size_fix_continuation.py [--seeds S ...] [--rounds N]
        [--ops K] [--programs tc sg pt]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from statistics import mean, median

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.datalog import Delta, merge_deltas  # noqa: E402
from repro.runtime import UpdateStreamService, live_workload  # noqa: E402
from repro.schedulers import scheduler_registry  # noqa: E402

PROGRAMS = ("tc", "sg", "pt")
WARMUP = 20


def batch(wl, kind: str, ops: int) -> Delta:
    if kind == "insert":
        return wl.random_batch(ops, delete_frac=0.0)
    if kind == "delete":
        return wl.random_batch(ops, delete_frac=1.0)
    return merge_deltas([batch(wl, "delete", ops), batch(wl, "insert", ops)])


def size(program: str, seed: int, kinds: tuple[str, ...], args) -> list[str]:
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
            ))
    out = []
    for kind in kinds:
        fix, probes, builds, continued = zip(*rows[kind])
        out.append(
            f"{wl.name:20} {seed:5d} {kind:8} {len(fix):6d}"
            f" {median(fix) * 1e3:8.3f} {mean(probes):9.1f}"
            f" {mean(builds):7.2f} {mean(continued):10.2f}"
        )
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--programs", nargs="+", default=list(PROGRAMS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    ap.add_argument("--rounds", type=int, default=150,
                    help="warm rounds per kind")
    ap.add_argument("--ops", type=int, default=2,
                    help="facts inserted (deleted) per round")
    args = ap.parse_args()
    print(f"{args.ops} op(s) a side, {args.rounds} warm rounds per kind "
          f"after {WARMUP}, verify=True strict=True")
    print(f"{'program':20} {'seed':>5} {'kind':8} {'rounds':>6} {'fix_ms':>8}"
          f" {'probes':>9} {'builds':>7} {'continued':>10}")
    for program in args.programs:
        for seed in args.seeds:
            for kinds in (("insert", "delete"), ("replace",)):
                for line in size(program, seed, kinds, args):
                    print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
