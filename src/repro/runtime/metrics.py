"""Per-round structured metrics for the update-stream service.

Every maintenance round emits one :class:`RoundMetrics` record; the
:class:`MetricsLog` aggregates them into throughput (rounds/sec) and
latency percentiles and serializes the whole log as JSON — what
``repro serve --metrics`` writes.

Aggregation is backed by the :class:`~repro.obs.MetricsRegistry`'s
log-linear histograms (1% relative precision) instead of ad-hoc lists:
each appended round feeds the per-phase latency histograms
(``latency_s`` / ``compile_s`` / ``execute_s`` / ``verify_s`` /
``queue_wait_s``) and the task/batch counters, and the summary
percentiles read straight from them. The raw per-round records are
kept for the JSON log and for readers of the last rounds, but only the
last :data:`ROUND_WINDOW` or so: a long-lived service's log is bounded,
and every whole-run total (the round count included) is a registry
counter or histogram.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import IO, Any

import numpy as np

from ..obs.metrics import MetricsRegistry

__all__ = ["RoundMetrics", "MetricsLog", "ROUND_WINDOW"]

#: the fewest last rounds :attr:`MetricsLog.rounds` keeps once that many
#: were served; it holds fewer than twice as many, trimmed in chunks
ROUND_WINDOW = 1024

#: RoundMetrics field → histogram name fed on append
_PHASE_HISTOGRAMS = (
    "latency_s",
    "compile_s",
    "execute_s",
    "verify_s",
    "queue_wait_s",
)


@dataclass(kw_only=True, slots=True)
class RoundMetrics:
    """What one maintenance round cost and touched.

    The defaults from ``n_nodes`` on are those of a round that did
    nothing — what a no-op round records. Slotted: the log keeps up to
    2 × :data:`ROUND_WINDOW` records, and past 29 attributes CPython
    3.11 stops sharing instance-dict keys, which made each record ≈ 5×
    larger.
    """

    index: int
    trace_name: str
    scheduler: str
    workers: int
    #: update batches merged into this round's delta
    batches_coalesced: int
    #: queue depth observed at round start, before draining
    queue_depth: int
    n_nodes: int = 0
    n_active: int = 0
    tasks_executed: int = 0
    #: fixpoint nodes among them that *maintained* — continued their
    #: committed fixpoint from the rows their inputs gained — instead
    #: of recomputing their SCC (``ValueStore.notes``); a unit span's
    #: ``mode`` / ``delta_rows`` args say which node, from how many rows
    continued_nodes: int = 0
    #: fixpoint nodes among them that *retracted* — took out of their
    #: committed fixpoint only the rows that lost their support, then
    #: continued from what came back (``mode: "retract"``; a unit span
    #: adds ``removed_rows`` / ``rederived_rows`` / ``abandoned``)
    retracted_nodes: int = 0
    #: task nodes among them that *maintained* their value — applied
    #: their inputs' Z-sets through counted Δ-plans — instead of
    #: re-running their whole rule (``mode: "maintain"`` in the notes)
    maintained_tasks: int = 0
    #: net facts inserted + deleted across the published
    #: materialization: the final nodes' Z-sets, summed
    changed_facts: int = 0
    #: wall-clock end-to-end round latency (compile + execute + verify);
    #: starts when the drain returns (= the ``merge`` + ``round`` trace
    #: spans), so queue wait is *not* included — it is reported
    #: separately below
    latency_s: float
    compile_s: float = 0.0
    execute_s: float = 0.0
    verify_s: float = 0.0
    #: busy-span of the recorded schedule (idle-compressed)
    makespan_s: float = 0.0
    scheduler_ops: int = 0
    precompute_ops: int = 0
    utilization: float = 1.0
    #: how long the round's *oldest* coalesced batch sat in the queue
    #: before the drain picked it up
    queue_wait_s: float = 0.0
    #: failed unit attempts re-dispatched under the executor's
    #: retry policy
    unit_retries: int = 0
    #: the breaker was open: the round's plan ran serially on the
    #: service thread, every node of it, not on the concurrent executor
    degraded: bool = False
    #: chaos injections observed during the round (0 without chaos)
    injected_faults: int = 0
    #: submitted insert/delete operations that cancelled against each
    #: other or the live EDB before compilation (weighted-delta
    #: coalescing) — work the round never had to do
    cancelled_ops: int = 0
    #: the round's effective delta was empty and the service skipped
    #: compile/execute/verify entirely
    noop: bool = False
    #: total distinct constants interned by the service's pool at round
    #: end
    intern_table_size: int = 0
    #: columnar mirrors and hash indexes built during this round — a
    #: pass over a relation's facts each (cold relations, new probe
    #: patterns). A fixpoint iteration's Δ, wrapped around rows that
    #: already are id-rows, is neither, so the count does not grow with
    #: fixpoint depth
    columnar_builds: int = 0
    #: rows pushed through columnar index probes during this round
    columnar_probes: int = 0
    #: rows taken from id space back to value space during this round
    #: (``InternPool.extern_rows`` / ``extern_row``) — 0 on a served
    #: round, whose relations stay id-rows until someone reads their
    #: facts; what a reader of the materialization externs after the
    #: round is in no round's count, only in the pool's total
    columnar_externs: int = 0

    def to_json_dict(self) -> dict[str, Any]:
        """Plain-dict form for JSON emission."""
        return asdict(self)


@dataclass
class MetricsLog:
    """Round metrics: the last rounds' records, whole-run statistics.

    :attr:`rounds` is a list of the last records, in arrival order:
    every round until :data:`ROUND_WINDOW` of them, and from then on
    between ``ROUND_WINDOW`` and ``2 × ROUND_WINDOW`` — an append that
    fills twice the window drops the older half, so trimming costs
    O(1) amortised per round. Totals over the whole run come from the
    :attr:`registry`: :attr:`n_rounds`, the task and batch counters and
    the phase histograms.
    """

    rounds: list[RoundMetrics] = field(default_factory=list)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    def append(self, m: RoundMetrics) -> None:
        """Record one finished round (and feed the histograms)."""
        rounds = self.rounds
        rounds.append(m)
        if len(rounds) >= 2 * ROUND_WINDOW:
            del rounds[:-ROUND_WINDOW]
        self.registry.counter("rounds").inc(1)
        for name in _PHASE_HISTOGRAMS:
            self.registry.histogram(name).observe(getattr(m, name))
        self.registry.counter("tasks_executed").inc(m.tasks_executed)
        self.registry.counter("batches_coalesced").inc(m.batches_coalesced)
        if m.continued_nodes:
            self.registry.counter("continued_nodes").inc(m.continued_nodes)
        if m.retracted_nodes:
            self.registry.counter("retracted_nodes").inc(m.retracted_nodes)
        if m.maintained_tasks:
            self.registry.counter("maintained_tasks").inc(m.maintained_tasks)
        if m.unit_retries:
            self.registry.counter("unit_retries").inc(m.unit_retries)
        if m.injected_faults:
            self.registry.counter("injected_faults").inc(m.injected_faults)
        if m.degraded:
            self.registry.counter("degraded_rounds").inc(1)
        if m.cancelled_ops:
            self.registry.counter("cancelled_ops").inc(m.cancelled_ops)
        if m.noop:
            self.registry.counter("noop_rounds").inc(1)

    @property
    def n_rounds(self) -> int:
        """Rounds recorded over the whole run (:attr:`rounds` keeps only
        the last of them)."""
        return int(self.registry.counter("rounds").value)

    # ------------------------------------------------------------------
    def latencies(self) -> np.ndarray:
        """The kept rounds' latencies in seconds, in arrival order."""
        return np.array([m.latency_s for m in self.rounds], dtype=np.float64)

    def latency_percentiles(
        self, qs: tuple[float, ...] = (50.0, 99.0)
    ) -> dict[str, float]:
        """``{"p50": ..., "p99": ...}`` over round latencies.

        Read from the log-linear histogram: each value carries the
        registry's bounded relative error (1% by default) instead of
        being exact, in exchange for O(buckets) memory however long
        the service runs.
        """
        h = self.registry.histogram("latency_s")
        if h.count == 0:
            return {f"p{q:g}": 0.0 for q in qs}
        return {f"p{q:g}": h.percentile(q) for q in qs}

    def rounds_per_second(self) -> float:
        """Throughput over the summed round latencies."""
        h = self.registry.histogram("latency_s")
        return h.count / h.sum if h.sum > 0 else 0.0

    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict[str, Any]:
        """Summary plus the kept rounds, ready for ``json.dump``."""
        return {
            "schema": 1,
            "n_rounds": self.n_rounds,
            "rounds_per_sec": self.rounds_per_second(),
            "latency": self.latency_percentiles((50.0, 90.0, 99.0)),
            "total_tasks_executed": int(
                self.registry.counter("tasks_executed").value
            ),
            "total_batches": int(
                self.registry.counter("batches_coalesced").value
            ),
            "histograms": {
                name: self.registry.histogram(name).to_json_dict()
                for name in _PHASE_HISTOGRAMS
            },
            "rounds": [m.to_json_dict() for m in self.rounds],
        }

    def dump(self, fh: IO[str]) -> None:
        """Write the JSON form to a file handle."""
        json.dump(self.to_json_dict(), fh, indent=2)
        fh.write("\n")

    def summary(self) -> str:
        """One-line human-readable summary."""
        pct = self.latency_percentiles((50.0, 99.0))
        return (
            f"{self.n_rounds} rounds, "
            f"{self.rounds_per_second():.1f} rounds/s, "
            f"p50={pct['p50'] * 1e3:.2f}ms p99={pct['p99'] * 1e3:.2f}ms"
        )
