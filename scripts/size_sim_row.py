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

With ``--against DIR`` only the cells are measured, each tree in its
own interpreter: ``--reps`` times this checkout's ``src/`` and
``DIR/src`` run the whole row back to back, alternating which goes
first, and the table gives per cell the median ``sim_ms`` over the reps
of both trees and their ratio (this ÷ against), then the same for the
row. The script exits 1 if any cell's ``ops``, ``precompute_ops``,
memory cells or ``repr(makespan)`` differs between the trees.

It uses nothing that is not public API, so the same file runs on the
parent commit and on a change: the tables in CHANGES.md / DESIGN.md
that quote it can be reproduced from the repository.

Usage:
    python scripts/size_sim_row.py [--seed S] [--runs N]
        [--against DIR] [--reps R]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from _against import alternate, medians

HERE = Path(__file__).resolve()
SCHEDULERS = ("logicblox", "levelbased", "lbl3", "hybrid")
SHAPES = ("deep", "wide")
PROCESSORS = 8
#: a deep trace is redrawn until its update reaches this many jobs
DEEP_MIN_ACTIVE = 250
WIDE_DIVISOR = 512
#: what must not differ between two trees, per cell
MODELLED = ("ops", "precompute_ops", "precompute_cells", "peak_cells",
            "makespan")


def build_trace(shape: str, seed: int):
    """One trace of ``shape``, sized from Table I's row #5 or #6."""
    from repro.workloads.synthetic import make_synthetic_trace
    from repro.workloads.tables import TRACE_CONFIGS

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


def warm_up(traces) -> None:
    """One row, unmeasured: what a warm-up row would leave behind."""
    from repro.schedulers import scheduler_registry
    from repro.sim import simulate

    registry = scheduler_registry()
    for trace in traces.values():
        for name in SCHEDULERS:
            simulate(trace, registry[name](), processors=PROCESSORS)


def measure_cells(traces, runs: int) -> list[dict]:
    """Per cell: the median ms of ``runs`` ``simulate`` calls and the
    modelled counts of the last one."""
    from repro.schedulers import scheduler_registry
    from repro.sim import simulate

    registry = scheduler_registry()
    cells = []
    for shape, trace in traces.items():
        for name in SCHEDULERS:
            took, result = [], None
            for _ in range(runs):
                t0 = perf_counter()
                result = simulate(
                    trace, registry[name](), processors=PROCESSORS
                )
                took.append((perf_counter() - t0) * 1e3)
            assert result is not None
            cells.append({
                "shape": shape,
                "scheduler": name,
                "sim_ms": median(took),
                "ops": result.scheduling_ops,
                "precompute_ops": result.precompute_ops,
                "precompute_cells": result.precompute_memory_cells,
                "peak_cells": result.runtime_peak_memory_cells,
                "makespan": repr(result.makespan),
            })
    return cells


def worker(args) -> int:
    """The cells of one row on ``args.worker``'s tree, as one JSON line."""
    sys.path.insert(0, args.worker)
    traces = {s: build_trace(s, args.seed) for s in SHAPES}
    warm_up(traces)
    print(json.dumps(measure_cells(traces, args.runs)))
    return 0


def against(args) -> int:
    """Alternate this tree and ``args.against`` over ``args.reps`` rows."""
    rows = alternate(HERE, args.against, args.reps, [
        "--seed", str(args.seed), "--runs", str(args.runs),
    ])
    print(
        f"\nsim_ms per cell (seed {args.seed}, P={PROCESSORS}): median "
        f"over {args.reps} rep(s), each the median of {args.runs} "
        "simulate calls"
    )
    print("| shape | scheduler | against | this | this ÷ against "
          "| modelled counts |")
    print("|---|---|---|---|---|---|")
    failed = False
    totals = {"against": 0.0, "this": 0.0}
    for i, cell in enumerate(rows["this"][0]):
        ms = dict(zip(totals, medians(rows, i, "sim_ms")))
        for name in totals:
            totals[name] += ms[name]
        differs = [
            key for key in MODELLED
            if any(
                row[i][key] != cell[key]
                for name in totals for row in rows[name]
            )
        ]
        failed |= bool(differs)
        print(
            f"| {cell['shape']} | {cell['scheduler']} "
            f"| {ms['against']:.2f} | {ms['this']:.2f} "
            f"| {ms['this'] / ms['against']:.2f} "
            f"| {'DIFFER: ' + ', '.join(differs) if differs else 'same'} |"
        )
    print(
        f"| row | eight cells | {totals['against']:.2f} "
        f"| {totals['this']:.2f} "
        f"| {totals['this'] / totals['against']:.2f} | |"
    )
    return 1 if failed else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=9)
    ap.add_argument("--against", help="another checkout to compare with")
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        return worker(args)
    if args.against:
        return against(args)

    sys.path.insert(0, str(HERE.parents[1] / "src"))
    import repro.schedulers.logicblox as logicblox
    import repro.tasks.trace as trace_mod
    from repro.dag import Dag, IntervalIndex, compute_levels

    print(f"seed {args.seed}, {args.runs} runs a cell, P={PROCESSORS}")
    print(f"rss after import            {rss_mb():8.2f} MB")
    traces = {s: build_trace(s, args.seed) for s in SHAPES}
    print(f"rss after trace build       {rss_mb():8.2f} MB")

    print("\ncold builds (ms, median of 5; fresh Dag objects)")
    print(f"{'shape':6} {'V':>6} {'E':>6} {'levels':>8} {'levels/rev':>11}"
          f" {'intervals':>10} {'intervals/rev':>14} {'rev lists':>10}")
    for shape, trace in traces.items():
        edges = trace.dag.edge_array()
        fwd = [Dag(trace.dag.n_nodes, edges) for _ in range(5)]
        rev = [Dag(trace.dag.n_nodes, edges[:, ::-1]) for _ in range(5)]
        cold = [
            median(timed_ms(fn, d) for d in dags)
            for fn in (compute_levels, IntervalIndex)
            for dags in (fwd, rev)
        ]
        mass = IntervalIndex(rev[0]).total_intervals
        print(f"{shape:6} {trace.dag.n_nodes:6d} {trace.dag.n_edges:6d}"
              f" {cold[0]:8.2f} {cold[1]:11.2f} {cold[2]:10.2f}"
              f" {cold[3]:14.2f} {mass:10d}")
    print(f"rss after cold builds       {rss_mb():8.2f} MB")

    levels_clock = BuildClock(trace_mod, "compute_levels")
    index_clock = BuildClock(logicblox, "IntervalIndex")
    warm_up(traces)
    warm_builds = levels_clock.calls + index_clock.calls
    levels_clock.ms = index_clock.ms = 0.0
    levels_clock.calls = index_clock.calls = 0

    print(f"\nper cell (ms, median of {args.runs} simulate calls after one "
          f"warm-up row that made {warm_builds} builds)")
    print(f"{'shape':6} {'scheduler':11} {'sim_ms':>8} {'ops':>9}"
          f" {'precompute':>11} {'cells':>8} {'makespan_s':>12}")
    row_ms = 0.0
    for cell in measure_cells(traces, args.runs):
        row_ms += cell["sim_ms"]
        print(f"{cell['shape']:6} {cell['scheduler']:11}"
              f" {cell['sim_ms']:8.2f} {cell['ops']:9d}"
              f" {cell['precompute_ops']:11d}"
              f" {cell['precompute_cells']:8d}"
              f" {float(cell['makespan']):12.6f}")
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
