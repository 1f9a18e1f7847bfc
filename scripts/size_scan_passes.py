#!/usr/bin/env python3
"""Size the cached LogicBlox scan's two passes against its queue mass.

The cached scan (``LogicBloxScheduler(policy="cached")``, Hybrid's)
walks a queue in Python when its candidates hold at most
``SCALAR_SCAN_MAX`` ancestor intervals between them (its *mass*) and
takes one vectorized pass above that. This script records every state
Hybrid scans while it simulates ``sim_sched``'s deep trace (job trace
#5's shape, ``benchmarks/e2e/workloads.build_sim_trace``), then times
both passes on the same state:

* over queues cut from the widest recorded state to a mass of 4 … 512
  intervals, µs per scan (best of ``--reps``);
* over the recorded states themselves, grouped by mass.

Both passes must agree on every state; the script stops if they do not.
The crossover it prints is where ``SCALAR_SCAN_MAX`` belongs.

Usage:
    python scripts/size_scan_passes.py [--seed S] [--reps R]
"""

from __future__ import annotations

import argparse
import sys
import timeit
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from workloads import build_sim_trace  # noqa: E402

from repro.schedulers import HybridScheduler, logicblox  # noqa: E402
from repro.sim import simulate  # noqa: E402

MASSES = (4, 8, 16, 32, 64, 128, 192, 256, 384, 512)


def best_us(fn, reps: int, number: int) -> float:
    return min(timeit.repeat(fn, number=number, repeat=reps)) / number * 1e6


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()

    trace = build_sim_trace("deep", args.seed)
    hybrid = HybridScheduler()
    lbx = hybrid._lbx
    states = []
    scan = logicblox.LogicBloxScheduler._scan

    def record(self):
        states.append((list(self._queue), list(self._active)))
        scan(self)

    logicblox.LogicBloxScheduler._scan = record
    try:
        simulate(trace, hybrid, processors=8)
    finally:
        logicblox.LogicBloxScheduler._scan = scan
    offsets = lbx._cols.offsets

    def mass(queue):
        return sum(offsets[v + 1] - offsets[v] for v in queue)

    def both(queue, active):
        lbx._active = active
        walked = lbx._walk(queue)
        if walked != lbx._sweep(queue):
            raise SystemExit(f"the passes disagree on {queue}")
        return (best_us(lambda: lbx._walk(queue), args.reps, 50),
                best_us(lambda: lbx._sweep(queue), args.reps, 50))

    masses = sorted(mass(q) for q, _ in states)
    print(f"deep trace seed {args.seed}: {len(states)} scans, mass p50 "
          f"{masses[len(masses) // 2]}, max {masses[-1]}; "
          f"SCALAR_SCAN_MAX = {logicblox.SCALAR_SCAN_MAX}")
    widest, active = max(states, key=lambda s: mass(s[0]))
    node_of = {lbx._cols.key[v]: v for v in range(trace.dag.n_nodes)}
    pool = widest + [node_of[k] for k in active if node_of[k] not in widest]
    print("| mass | candidates | walk µs | vectorized µs |")
    print("|---|---|---|---|")
    seen = set()
    for target in MASSES:
        queue, m = [], 0
        for v in pool:
            if m >= target:
                break
            queue.append(v)
            m += offsets[v + 1] - offsets[v]
        if m in seen:  # the first candidate alone holds more
            continue
        seen.add(m)
        walk, sweep = both(queue, active)
        print(f"| {m} | {len(queue)} | {walk:.1f} | {sweep:.1f} |")
    groups = defaultdict(list)
    for queue, active in states:
        bound = 4
        while bound < mass(queue):
            bound *= 2
        groups[bound].append(both(queue, active))
    print("\n| recorded states, mass ≤ | scans | walk µs | vectorized µs |")
    print("|---|---|---|---|")
    for bound, rows in sorted(groups.items()):
        walk = sum(r[0] for r in rows) / len(rows)
        sweep = sum(r[1] for r in rows) / len(rows)
        print(f"| {bound} | {len(rows)} | {walk:.1f} | {sweep:.1f} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
