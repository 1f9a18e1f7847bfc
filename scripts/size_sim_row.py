#!/usr/bin/env python3
"""Size one simulated table row: where do its milliseconds go?

For a seed, builds a *deep* (job trace #5) and a *wide* (job trace #6
divided by 512) Table-I-shaped trace from the statistics in
``repro.workloads.tables`` and prints

* per (shape, scheduler) the median wall-clock of ``--runs`` ``simulate``
  calls, with the modelled counts next to it (they must not move);
* the cold ``compute_levels`` / ``IntervalIndex`` build times on the
  DAG and on its reverse (the LogicBlox scheduler indexes the reverse);
* the share of a row — the eight cells — spent inside level and
  interval builds, read by timing those two calls where the schedulers
  make them;
* ``ru_maxrss`` after each stage.

It uses nothing that is not public API, so the same file runs on the
parent commit and on a change: the tables in CHANGES.md / DESIGN.md
that quote it can be reproduced from the repository.

Usage:
    python scripts/size_sim_row.py [--seed S] [--runs N]
"""

from __future__ import annotations

import argparse
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import repro.schedulers.logicblox as logicblox  # noqa: E402
import repro.tasks.trace as trace_mod  # noqa: E402
from repro.dag import Dag, IntervalIndex, compute_levels  # noqa: E402
from repro.schedulers import scheduler_registry  # noqa: E402
from repro.sim import simulate  # noqa: E402
from repro.tasks import JobTrace  # noqa: E402
from repro.workloads.synthetic import make_synthetic_trace  # noqa: E402
from repro.workloads.tables import TRACE_CONFIGS  # noqa: E402

SCHEDULERS = ("logicblox", "levelbased", "lbl3", "hybrid")
PROCESSORS = 8
#: a deep trace is redrawn until its update reaches this many jobs
DEEP_MIN_ACTIVE = 250
WIDE_DIVISOR = 512


def build_trace(shape: str, seed: int) -> JobTrace:
    """One trace of ``shape``, sized from Table I's row #5 or #6."""
    if shape == "deep":
        cfg, div = TRACE_CONFIGS[5], 1
    else:
        cfg, div = TRACE_CONFIGS[6], WIDE_DIVISOR
    for attempt in range(1000):
        trace = make_synthetic_trace(
            cfg.n_nodes // div, cfg.n_edges // div, cfg.n_levels,
            max(1, cfg.n_initial // div), cfg.active_jobs // div,
            mean_work=cfg.mean_work, sigma=cfg.sigma,
            frac_task=cfg.frac_task, level_profile=cfg.level_profile,
            depth_bias=cfg.depth_bias,
            seed=seed * 1000 + attempt, name=f"{shape}-{seed}",
        )
        if shape != "deep" or trace.n_active_jobs >= DEEP_MIN_ACTIVE:
            return trace
    raise RuntimeError(f"no deep trace with {DEEP_MIN_ACTIVE} active jobs")


def timed_ms(fn, *args) -> float:
    t0 = perf_counter()
    fn(*args)
    return (perf_counter() - t0) * 1e3


class BuildClock:
    """Times every call the schedulers make to one build function."""

    def __init__(self, module, name: str) -> None:
        self.ms = 0.0
        self.calls = 0
        real = getattr(module, name)

        def clocked(dag):
            t0 = perf_counter()
            try:
                return real(dag)
            finally:
                self.ms += (perf_counter() - t0) * 1e3
                self.calls += 1

        setattr(module, name, clocked)


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=9)
    args = ap.parse_args()

    print(f"seed {args.seed}, {args.runs} runs a cell, P={PROCESSORS}")
    print(f"rss after import            {rss_mb():8.2f} MB")
    traces = {s: build_trace(s, args.seed) for s in ("deep", "wide")}
    print(f"rss after trace build       {rss_mb():8.2f} MB")

    print("\ncold builds (ms, median of 5; fresh Dag objects)")
    print(f"{'shape':6} {'V':>6} {'E':>6} {'levels':>8} {'levels/rev':>11}"
          f" {'intervals':>10} {'intervals/rev':>14} {'rev lists':>10}")
    for shape, trace in traces.items():
        edges = trace.dag.edge_array()
        fwd = [Dag(trace.dag.n_nodes, edges) for _ in range(5)]
        rev = [Dag(trace.dag.n_nodes, edges[:, ::-1]) for _ in range(5)]
        cells = [
            median(timed_ms(fn, d) for d in dags)
            for fn in (compute_levels, IntervalIndex)
            for dags in (fwd, rev)
        ]
        mass = IntervalIndex(rev[0]).total_intervals
        print(f"{shape:6} {trace.dag.n_nodes:6d} {trace.dag.n_edges:6d}"
              f" {cells[0]:8.2f} {cells[1]:11.2f} {cells[2]:10.2f}"
              f" {cells[3]:14.2f} {mass:10d}")
    print(f"rss after cold builds       {rss_mb():8.2f} MB")

    levels_clock = BuildClock(trace_mod, "compute_levels")
    index_clock = BuildClock(logicblox, "IntervalIndex")
    registry = scheduler_registry()
    # one row first, unmeasured: what a warm-up row would leave behind
    for trace in traces.values():
        for name in SCHEDULERS:
            simulate(trace, registry[name](), processors=PROCESSORS)
    warm_builds = levels_clock.calls + index_clock.calls
    levels_clock.ms = index_clock.ms = 0.0
    levels_clock.calls = index_clock.calls = 0

    print(f"\nper cell (ms, median of {args.runs} simulate calls after one "
          f"warm-up row that made {warm_builds} builds)")
    print(f"{'shape':6} {'scheduler':11} {'sim_ms':>8} {'ops':>9}"
          f" {'precompute':>11} {'cells':>8} {'makespan_s':>12}")
    row_ms = 0.0
    for shape, trace in traces.items():
        for name in SCHEDULERS:
            took, result = [], None
            for _ in range(args.runs):
                t0 = perf_counter()
                result = simulate(
                    trace, registry[name](), processors=PROCESSORS
                )
                took.append((perf_counter() - t0) * 1e3)
            row_ms += median(took)
            print(f"{shape:6} {name:11} {median(took):8.2f}"
                  f" {result.scheduling_ops:9d} {result.precompute_ops:11d}"
                  f" {result.precompute_memory_cells:8d}"
                  f" {result.makespan:12.6f}")
    build_ms = (levels_clock.ms + index_clock.ms) / args.runs
    print(f"\nrow (eight cells)           {row_ms:8.2f} ms")
    print(f"  of which builds           {build_ms:8.2f} ms"
          f"  ({build_ms / row_ms:.1%}; a row made"
          f" {index_clock.calls / args.runs:g} interval and"
          f" {levels_clock.calls / args.runs:g} level builds)")
    print(f"rss after measured rows     {rss_mb():8.2f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
