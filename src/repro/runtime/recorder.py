"""Real rounds as simulator-compatible schedules.

A :class:`~repro.runtime.executor.RoundOutcome` carries wall-clock
``(start, finish)`` intervals per executed node. This module rebuilds
them as a :class:`~repro.sim.result.SimulationResult` plus a
*verification trace* — the compiled round's DAG with measured durations
as per-node work — so the strict invariant checker
(:func:`repro.verify.check_invariants`) and the timeline tooling
(:mod:`repro.sim.timeline`) apply to real runs unchanged.

Two deliberate translations:

* **work := measured duration.** The compiled trace's work values model
  derivation counts; the invariant checker's duration and bound checks
  compare against the *recorded* schedule, so the verification trace
  carries what each node actually took. Precedence, exactly-once,
  active-set, and capacity checks are measurement-independent.
* **whole-system idle gaps are compressed out.** The coordinator does
  real work between completions (diffing, scheduler hooks, compiling
  the next dispatch); while every worker is idle the timeline would
  show pure coordination time that the simulator models as scheduling
  overhead, not makespan. Compression removes exactly the intervals
  where *no* node was running — it preserves every duration, every
  overlap, and every precedence relation (events on either side of a
  gap can only move closer, never reorder) — and reports the removed
  time as ``extras["compressed_idle_s"]``.
* **partial-idle coordination is charged as inline overhead.** The
  executor exports the intervals during which the coordinator was
  deciding or handing work to the pool; the timeline measure of those
  intervals where *some but not all* workers ran is dead time the
  simulator's instantaneous-dispatch model excludes from its bounds
  (the engine's precedent: inline-charged overhead is subtracted from
  ``execution_makespan``). It is reported as
  ``extras["coordination_stall_s"]`` and subtracted the same way;
  ``makespan`` itself — and so the lower bounds — stays wall-clock.
  A retried unit's failed attempt and backoff
  (``RoundOutcome.retry_intervals``) are dead time of the same kind —
  a ready node no lane is running — and are charged with it: the
  checker's bounds are those of a fault-free schedule.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..sim.result import DispatchRecord, SimulationResult
from ..tasks.model import ExecutionModel
from ..tasks.trace import JobTrace
from .executor import RoundOutcome

__all__ = [
    "RoundArtifacts",
    "compress_idle_gaps",
    "coordination_stall",
    "record_round",
]


@dataclass
class RoundArtifacts:
    """One real round in the simulator's vocabulary."""

    #: compiled DAG with measured durations as work/span
    trace: JobTrace
    result: SimulationResult

    def check(self, atol: float = 1e-6):
        """Run the strict invariant checker over this round."""
        from ..verify import check_invariants

        return check_invariants(
            self.trace, self.result, reallot=False, atol=atol
        )


def union_intervals(
    intervals: list[tuple[float, float]],
) -> list[tuple[float, float]]:
    """The maximal disjoint intervals covering ``intervals``, sorted —
    on a real-valued timeline: touching intervals join, nearby ones do
    not (:func:`repro.dag.intervals.merge_intervals` is the integer
    one)."""
    merged: list[tuple[float, float]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            if b > merged[-1][1]:
                merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    return merged


def compress_idle_gaps(
    records: dict[int, tuple[float, float]],
) -> tuple[dict[int, tuple[float, float]], float]:
    """Shift intervals left over whole-idle gaps; returns removed time.

    A gap is any stretch of the timeline (including before the first
    start) where no interval is active. Each interval lies entirely
    inside one maximal covered segment, so both endpoints shift by the
    same amount: durations and overlaps are exact, and order between
    segments is preserved (boundary events collapse onto the same
    instant at most).
    """
    if not records:
        return {}, 0.0
    intervals = sorted(records.values())
    segments: list[tuple[float, float]] = []
    for s, f in intervals:
        f = max(f, s)
        if segments and s <= segments[-1][1]:
            if f > segments[-1][1]:
                segments[-1] = (segments[-1][0], f)
        else:
            segments.append((s, f))
    seg_starts = [a for a, _ in segments]
    gap_before = []
    gap = segments[0][0]  # idle before the first start
    for i, (a, _b) in enumerate(segments):
        if i > 0:
            gap += a - segments[i - 1][1]
        gap_before.append(gap)
    out = {}
    for node, (s, f) in records.items():
        g = gap_before[bisect_right(seg_starts, s) - 1]
        out[node] = (s - g, f - g)
    return out, gap_before[-1]


def coordination_stall(
    records: dict[int, tuple[float, float]],
    coord: list[tuple[float, float]],
    workers: int,
) -> float:
    """Timeline measure of partial-idle time under coordination.

    Sweeps the raw (uncompressed) timeline; stretches where ``1 ≤
    busy < workers`` contribute their overlap with the coordinator's
    exported intervals. Whole-idle stretches are excluded — those are
    removed by gap compression and must not be charged twice.
    """
    if not records or not coord or workers <= 1:
        return 0.0
    events = sorted(
        [(s, 1) for s, f in records.values()]
        + [(f, -1) for _, f in records.values()]
    )
    total = 0.0
    busy = 0
    j = 0
    prev_t: float | None = None
    for t, d in events:
        if prev_t is not None and t > prev_t and 1 <= busy < workers:
            while j < len(coord) and coord[j][1] <= prev_t:
                j += 1
            k = j
            while k < len(coord) and coord[k][0] < t:
                total += min(t, coord[k][1]) - max(prev_t, coord[k][0])
                k += 1
        busy += d
        prev_t = t
    return total


def record_round(
    outcome: RoundOutcome,
    trace: JobTrace,
    compress: bool = True,
) -> RoundArtifacts:
    """Rebuild a real round as ``(verification trace, result)``.

    ``trace`` is the compiled round's job trace; its DAG and initial
    tasks carry over unchanged, work and span become the measured
    durations, and the change flags are the ones execution *observed*:
    every out-edge of a node whose output differed from its old value
    (``outcome.diffs``). The invariant checker therefore holds the
    executor and the scheduler to the paper's contract — exactly the
    nodes those flags activate ran, once, after their ancestors — and
    says nothing about the flags themselves; what the units computed is
    checked against a from-scratch evaluation instead
    (:mod:`repro.runtime.service`).
    """
    records = outcome.records
    stall = coordination_stall(
        records,
        union_intervals(outcome.coord_intervals + outcome.retry_intervals),
        outcome.workers,
    )
    if compress:
        records, compressed = compress_idle_gaps(records)
    else:
        compressed = 0.0

    dag = trace.dag
    n = dag.n_nodes
    # plain lists, turned into the trace's arrays once at the end
    offsets = dag.out_lists()[0]
    durations = [0.0] * n
    for node, (s, f) in records.items():
        durations[node] = f - s
    observed = [False] * dag.n_edges
    for node, changed in outcome.diffs.items():
        if changed:
            lo, hi = offsets[node], offsets[node + 1]
            observed[lo:hi] = [True] * (hi - lo)
    work = np.array(durations, dtype=np.float64)
    vtrace = JobTrace(
        dag=dag,
        work=work,
        span=work.copy(),
        models=np.full(n, ExecutionModel.SEQUENTIAL, dtype=np.int8),
        is_task=trace.is_task.copy(),
        initial_tasks=trace.initial_tasks,  # JobTrace builds its own array
        changed_edges=np.array(observed, dtype=bool),
        name=f"{trace.name}:live",
        metadata={
            **trace.metadata,
            "runtime": True,
            "workers": outcome.workers,
        },
    )

    schedule = [
        DispatchRecord(node=node, start=s, finish=f, processors=1)
        for node, (s, f) in sorted(records.items(), key=lambda kv: kv[1])
    ]
    makespan = max((f for _, f in records.values()), default=0.0)
    busy = sum(durations)
    utilization = (
        min(1.0, busy / (outcome.workers * makespan)) if makespan > 0 else 0.0
    )
    result = SimulationResult(
        scheduler_name=outcome.scheduler_name,
        trace_name=vtrace.name,
        processors=outcome.workers,
        makespan=makespan,
        execution_makespan=max(0.0, makespan - stall),
        scheduling_overhead=outcome.overhead_s,
        scheduling_ops=outcome.scheduler_ops,
        precompute_ops=outcome.precompute_ops,
        precompute_memory_cells=outcome.precompute_memory_cells,
        runtime_peak_memory_cells=outcome.runtime_peak_memory_cells,
        tasks_executed=len(records),
        total_work=busy,
        utilization=utilization,
        schedule=schedule,
        extras={
            "wall_latency_s": outcome.wall_latency_s,
            "compressed_idle_s": compressed,
            "coordination_stall_s": stall,
            "dispatch_lag_s": outcome.dispatch_lag_s,
            "prepare_s": outcome.prepare_s,
            "select_calls": outcome.select_calls,
        },
    )
    return RoundArtifacts(trace=vtrace, result=result)
