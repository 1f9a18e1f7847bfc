"""Scheduler protocol shared by all five algorithms.

The simulation engine drives a scheduler through four entry points:

* :meth:`Scheduler.prepare` — one-time precomputation over ``G``
  (levels for LevelBased, interval lists for LogicBlox). Its cost is
  reported separately and excluded from makespan, as in the paper.
* :meth:`Scheduler.on_activate` — a node just received its first change
  signal (or was dirtied by the update at t=0).
* :meth:`Scheduler.on_complete` — a dispatched task finished; its
  outputs have been delivered.
* :meth:`Scheduler.select` — the engine has idle processors; return
  tasks that are safe to run *now*. The engine validates every returned
  task against ground truth and raises on any unsafe dispatch, so a
  scheduler bug cannot silently corrupt an experiment.

Cost accounting contract
------------------------
Schedulers increment :attr:`Scheduler.ops` by one per abstract unit of
work their *modeled* algorithm performs: an interval probed, a queue
entry scanned, a message sent, a level bucket advanced. Where an
implementation uses a shortcut whose result is provably identical to
the modeled computation (see :class:`ReadinessOracle`), it must still
charge the modeled operation count.

The oracle
----------
``ReadinessOracle.is_ready(v)`` answers ground-truth readiness — "all of
``v``'s activated ancestors have executed" (equivalently: every parent
resolved; the equivalence is proved in ``tasks/activation.py`` docs and
property-tested). The LogicBlox scheduler's interval-list check and the
LookAhead BFS check compute *exactly this predicate*, so they may call
the oracle for the boolean while charging the ops their own data
structure would have spent. LevelBased never needs it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..obs.trace import NULL_SINK, TraceSink

if TYPE_CHECKING:  # pragma: no cover
    from ..dag.graph import Dag
    from ..tasks.trace import JobTrace

__all__ = ["Scheduler", "SchedulerContext", "ReadinessOracle"]


class ReadinessOracle:
    """Ground-truth readiness oracle handed to schedulers.

    Wraps the engine's :class:`~repro.tasks.activation.ActivationState`
    exposing only the readiness predicate and the became-ready event
    feed (schedulers must not see future activations or the realized
    change flags).

    The event feed exists because readiness under the paper's model is
    *identical* for every correct checker — "no activated, uncompleted
    ancestor" ⟺ "every parent resolved" — so a scheduler whose modeled
    algorithm recomputes that predicate (LogicBlox's interval scans)
    may consume the feed as a result-equivalent shortcut while charging
    the operations its own data structure would have spent. Schedulers
    whose behavior depends on *discovering* readiness differently
    (LevelBased's level barrier, LBL's bounded BFS) must not use it.
    """

    def __init__(self, is_ready_fn: Callable[[int], bool]) -> None:
        self._is_ready = is_ready_fn
        self._ready_events: list[int] = []

    def is_ready(self, v: int) -> bool:
        """Whether ``v`` may be dispatched right now (ground truth)."""
        return self._is_ready(v)

    def push_ready_events(self, nodes: list[int]) -> None:
        """Engine-side: record tasks that just became ground-truth ready."""
        self._ready_events.extend(nodes)

    def drain_ready_events(self) -> list[int]:
        """Tasks that became ready since the last drain (FIFO order)."""
        out = self._ready_events
        self._ready_events = []
        return out

    def clear(self) -> None:
        """Drop any pending ready events (between service rounds)."""
        self._ready_events = []


@dataclass
class SchedulerContext:
    """Everything a scheduler may inspect at prepare time.

    What :meth:`Scheduler.prepare` computes from ``dag`` alone it keeps
    on the ``Dag`` (:meth:`~repro.dag.graph.Dag.derived`): one build per
    graph for every scheduler, simulated run and served round. A
    scheduler that reads such a value still reports the *modelled*
    ``precompute_ops`` / ``precompute_memory_cells`` of building it.
    """

    trace: "JobTrace"
    processors: int
    oracle: ReadinessOracle

    @property
    def dag(self) -> "Dag":
        return self.trace.dag

    @property
    def levels(self) -> tuple[int, ...]:
        """The trace's levels as a tuple of ints, built once per ``Dag``
        — what a hook reads per node without boxing a numpy scalar."""
        return self.dag.derived(
            "level_list", lambda _: tuple(self.trace.levels.tolist())
        )


class Scheduler(ABC):
    """Abstract base for all scheduling algorithms.

    Subclasses must set :attr:`name` and implement the four hooks.
    The base class owns the cost counters.
    """

    #: short identifier used in result tables
    name: str = "abstract"

    def __init__(self) -> None:
        #: runtime abstract operations (scanned entries, probes, messages)
        self.ops: int = 0
        #: operations spent in :meth:`prepare`
        self.precompute_ops: int = 0
        #: integer cells resident after :meth:`prepare`
        self.precompute_memory_cells: int = 0
        #: peak integer cells used by runtime structures
        self.runtime_peak_memory_cells: int = 0
        #: the oracle of the most recent run (set by the driver via
        #: :meth:`bind_oracle`), so :meth:`reset_counters` can clear
        #: its stale ready events when the instance is reused
        self._bound_oracle: ReadinessOracle | None = None
        #: the trace sink of the current run (set by the driver via
        #: :meth:`bind_sink`); :data:`~repro.obs.NULL_SINK` when
        #: tracing is off, so :meth:`charge_ops` stays branch-cheap
        self._bound_sink: TraceSink = NULL_SINK

    # ------------------------------------------------------------------
    @abstractmethod
    def prepare(self, ctx: SchedulerContext) -> None:
        """Precompute over ``G``; set precompute counters."""

    @abstractmethod
    def on_activate(self, v: int, t: float) -> None:
        """Node ``v`` activated at time ``t`` (will need re-execution)."""

    @abstractmethod
    def on_complete(self, v: int, t: float) -> None:
        """Task ``v`` finished at time ``t``; its outputs are delivered."""

    @abstractmethod
    def select(self, max_tasks: int, t: float) -> list[int]:
        """Return up to ``max_tasks`` tasks safe to dispatch at ``t``.

        May return fewer (including none) if no safe work is known; the
        engine will call again after the next completion. Returning a
        task that is not ground-truth ready aborts the simulation.
        """

    # ------------------------------------------------------------------
    def on_failure(self, v: int, t: float) -> None:
        """Task ``v``'s dispatch failed at time ``t``; requeue it.

        The engine calls this when a previously dispatched task must be
        re-run — a fault-injected attempt failure (after its backoff
        expires) or a processor loss that killed the attempt. ``v`` is
        ground-truth ready again when this hook fires.

        The default treats the requeue as a fresh activation, which is
        correct for schedulers whose :meth:`on_activate` bookkeeping is
        idempotent per pending task. Schedulers that count queue
        membership or per-level pending work (LevelBased's barrier
        counters, LogicBlox's active key set) must override this to
        re-queue without double-counting — and must still charge
        :attr:`ops` for the requeue work their modeled algorithm
        performs (the linter's ``api-contract`` rule checks this).
        """
        self.on_activate(v, t)

    # ------------------------------------------------------------------
    def charge_ops(self, n: int = 1, counter: str | None = None) -> None:
        """Charge ``n`` abstract ops, attributed to the active span.

        Identical to ``self.ops += n`` for cost accounting; when the
        bound :class:`~repro.obs.TraceSink` is recording and a
        ``counter`` name is given, the charge is additionally
        attributed to the innermost open span (e.g. ``"requeue_events"``
        on a failure requeue, ``"lookahead_probes"`` in an LBL scan),
        which is how scheduler decision counters reach the timeline.
        """
        self.ops += n
        sink = self._bound_sink
        if sink.enabled and counter is not None:
            sink.add_to_current(counter, n)

    def bind_sink(self, sink: TraceSink) -> None:
        """Attach the run's trace sink (engine/executor side, not a hook).

        Drivers bind the sink alongside the oracle on every run —
        including the disabled :data:`~repro.obs.NULL_SINK` — so a
        scheduler instance reused across rounds never attributes
        counters to a stale recorder.
        """
        self._bound_sink = sink

    def note_runtime_memory(self, cells: int) -> None:
        """Update the runtime peak-memory watermark."""
        if cells > self.runtime_peak_memory_cells:
            self.runtime_peak_memory_cells = cells

    def bind_oracle(self, oracle: ReadinessOracle) -> None:
        """Attach the run's oracle (engine/executor side, not a hook).

        Binding lets :meth:`reset_counters` clear the oracle's pending
        ready-event buffer, so a scheduler instance reused across
        service rounds cannot observe events left over from a previous
        round (a run can finish with pushed-but-undrained events).
        """
        self._bound_oracle = oracle

    def reset_counters(self) -> None:
        """Zero all cost counters (engine calls this before a run).

        Also clears any pending ready events of the bound oracle, so a
        reused scheduler instance starts each round with a clean feed.
        """
        self.ops = 0
        self.precompute_ops = 0
        self.precompute_memory_cells = 0
        self.runtime_peak_memory_cells = 0
        if self._bound_oracle is not None:
            self._bound_oracle.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
