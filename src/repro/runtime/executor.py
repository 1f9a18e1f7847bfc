"""Concurrent, fault-tolerant execution of one compiled maintenance round.

The executor is the runtime twin of :func:`repro.sim.engine.simulate`:
the same scheduler ABC, the same hook order (bootstrap → ``on_activate``
→ loop of ``select`` / dispatch / completion → ``on_complete``), the
same dispatch validation — but "executing a task" means a thread
actually runs the node's :class:`~repro.datalog.units.WorkUnit` against
the shared value store, and the changed/unchanged signal that decides
child activation is the Z-set the unit emits with its output — the
*real* change against its value under the old materialization.

Phases
------
:meth:`RoundExecutor.run` only sequences the phases of a ``_Round``,
the per-round state each ``run`` builds afresh::

    prepare → bootstrap →
      { dispatch → close window → run held unit → await → settle each }
    → finish

``_prepare`` resets and binds the scheduler and runs its ``prepare``
hook; ``_bootstrap`` stages the initial tasks and calls ``on_activate``
at t=0; ``_dispatch`` re-issues due retries, then calls ``select`` while
it yields work; ``_close_window`` stamps the hand-offs and closes the
coordination window; ``_run_held`` runs processor 0's unit; ``_done``
ends the loop once nothing runs or waits (or raises the stall);
``_await`` blocks for the next message or timer; ``_settle`` takes in a
lane death, a lane crash or a completion (retry, quarantine, or
``ValueStore.set`` → ``complete_live`` → the hooks); ``_finish`` fills
the round totals.
Every hook call is charged in one place, ``_charge``.

Threading model
---------------
``workers`` is the paper's P processors, and the coordinator — the
thread that calls :meth:`RoundExecutor.run` — is processor 0: of the
units one dispatch stage selects it hands all but the last to lanes,
runs the last itself, then handles whatever completions are queued.
The others are at most P−1 lane threads, each started by the first
hand-off that finds every live lane taken, so a round whose stages
never select two units (a chain-shaped ``G``, or ``workers=1``) starts
no thread. Lanes belong to the owner of their :class:`Lanes`: an
:class:`~repro.runtime.service.UpdateStreamService` keeps one for its
lifetime — its lanes park between rounds, and its ``close()`` stops
and joins them — while a :class:`RoundExecutor` run on its own starts
its lanes and joins them before ``run`` returns. Nothing of a round
rides on a thread: each job carries the round's :class:`_Crew` (its
``ValueStore``, completion queue, cancel flag, chaos and sink), and a
lane lets go of it before it parks. The coordinator owns all scheduler
and activation state;
lanes only run units and timestamp themselves, and every attempt,
wherever it ran, reports over one queue, so every scheduler hook and
every ``ValueStore.set`` happens on the coordinator — schedulers need
no locking, exactly as in the simulator. A unit only reads values of
nodes resolved before it was dispatched, and the completion queue's
put/get pair orders those writes before a lane's reads.

Inside a unit the coordinator cannot coordinate: a lane's completion
waits for it (exported as coordination time from the lane's finish
stamp, which :func:`~repro.runtime.recorder.record_round` charges as
stall), watchdog marks and due retries are late by at most that unit,
and the ``deadline`` is checked between units.

Fault tolerance
---------------
Lanes are *supervised*, not an opaque pool: when a lane thread dies
mid-attempt (chaos kill, or a harness bug) the coordinator
re-dispatches the orphaned unit and the next hand-off that needs the
capacity starts a replacement; a kill drawn for the coordinator's own
unit is the same event with no thread to replace. A failing unit is
retried under a :class:`RetryPolicy` — capped exponential backoff with
the same ``min(cap, base·factor^(k-1))`` law as the simulator's
:class:`~repro.sim.faults.FaultPlan` — until its budget is exhausted,
at which point the unit is quarantined: the round aborts with a
structured :class:`UnitExecutionError` aggregating every permanent
failure, cancellation stops lanes from draining the rest of the plan,
and the round waits until every lane has let go of its jobs — parked,
or joined if the round started them (no leaks) — with late completions
explicitly discarded. A soft per-unit watchdog marks in-flight
stragglers on :attr:`RoundOutcome.stragglers` without killing them;
the hard round ``deadline`` still aborts via
:class:`~repro.sim.faults.DeadlineExceededError`.
"""

from __future__ import annotations

import heapq
import queue
import threading
import weakref
from dataclasses import dataclass, field
from time import perf_counter, sleep

import numpy as np

from ..datalog.units import ExecutionPlan, ValueStore, WorkUnit
from ..obs.trace import NULL_SINK, TraceSink
from ..schedulers.base import ReadinessOracle, Scheduler, SchedulerContext
from ..sim.engine import all_done_or_stall, mark_selected
from ..sim.faults import (
    DeadlineExceededError,
    capped_backoff,
    check_round_limits,
)
from ..tasks.activation import ActivationState
from .chaos import ChaosInjector, InjectedUnitFault

__all__ = [
    "Lanes",
    "LiveActivationState",
    "RetryPolicy",
    "RoundExecutor",
    "RoundOutcome",
    "UnitExecutionError",
    "UnitFailure",
]


@dataclass(frozen=True)
class UnitFailure:
    """One work unit's permanent failure, as quarantined by the round."""

    node: int
    label: str
    #: dispatch attempts consumed (initial + retries + lane
    #: re-dispatches)
    attempts: int
    error: BaseException


class UnitExecutionError(RuntimeError):
    """One or more work units failed permanently; the round is aborted.

    The two-decades-old single-failure shape (``node`` / ``label`` /
    ``cause`` of the *first* permanent failure) is preserved for
    callers that predate retry; the full quarantine set is on
    :attr:`failures`.
    """

    def __init__(
        self,
        node: int,
        label: str,
        cause: BaseException,
        failures: tuple[UnitFailure, ...] | None = None,
    ) -> None:
        self.failures: tuple[UnitFailure, ...] = failures or (
            UnitFailure(node=node, label=label, attempts=1, error=cause),
        )
        extra = (
            f" (+{len(self.failures) - 1} more quarantined unit(s))"
            if len(self.failures) > 1
            else ""
        )
        super().__init__(
            f"unit {node} ({label}) failed: "
            f"{type(cause).__name__}: {cause}{extra}"
        )
        self.node = node
        self.label = label
        self.cause = cause

    @property
    def quarantined(self) -> tuple[int, ...]:
        """Nodes quarantined by the aborted round."""
        return tuple(f.node for f in self.failures)

    @classmethod
    def from_failures(
        cls, failures: list[UnitFailure]
    ) -> "UnitExecutionError":
        first = failures[0]
        return cls(
            first.node, first.label, first.error, tuple(failures)
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Per-unit retry budget with capped exponential backoff.

    Shares :func:`~repro.sim.faults.capped_backoff` with the sim's
    :class:`~repro.sim.faults.FaultPlan`, so a live retry at failure
    ``k`` backs off exactly as the simulated one does.
    """

    max_retries: int = 2
    backoff_base: float = 0.02
    backoff_factor: float = 2.0
    backoff_cap: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base/backoff_cap must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def backoff_delay(self, failure_index: int) -> float:
        """Delay before retry ``failure_index`` (1-based)."""
        return capped_backoff(
            self.backoff_base,
            self.backoff_factor,
            self.backoff_cap,
            failure_index,
        )

    def allows(self, failures: int) -> bool:
        """May a unit with ``failures`` recorded failures retry?"""
        return failures <= self.max_retries


class LiveActivationState(ActivationState):
    """Activation bookkeeping driven by *observed* diffs.

    :class:`~repro.tasks.activation.ActivationState` delivers change
    signals from precompiled per-edge flags; in a real run the signal
    only exists once the node has executed and emitted its Z-set.
    Completion therefore stamps the observed flag onto all of
    the node's out-edges first — the compiler derives its per-edge
    flags the same way (``changed[source]`` broadcast over out-edges),
    so when real diffs match the compiled ones the cascades are
    identical — and then reuses the parent class's resolution logic
    unchanged.
    """

    __slots__ = ()

    def __init__(self, plan: ExecutionPlan) -> None:
        trace = plan.compiled.trace
        super().__init__(
            dag=trace.dag,
            initial=trace.initial_tasks,
            changed_edges=np.zeros(trace.dag.n_edges, dtype=bool),
        )

    def complete_live(
        self, u: int, changed: bool
    ) -> tuple[list[int], list[int]]:
        """Record ``u``'s completion with its observed change flag."""
        lo, hi = self._offsets[u], self._offsets[u + 1]
        self.changed_edges[lo:hi] = [changed] * (hi - lo)
        return self.complete(u)


@dataclass
class RoundOutcome:
    """Everything one executed round produced and measured."""

    scheduler_name: str
    workers: int
    values: ValueStore
    #: real changed/unchanged signal per executed node
    diffs: dict[int, bool] = field(default_factory=dict)
    #: wall-clock ``(start, finish)`` per executed node, seconds
    #: relative to the round's origin
    records: dict[int, tuple[float, float]] = field(default_factory=dict)
    wall_latency_s: float = 0.0
    #: coordinator time spent inside scheduler hooks
    overhead_s: float = 0.0
    #: thread-pool handoff latency, Σ max(0, unit start − dispatch)
    dispatch_lag_s: float = 0.0
    #: intervals (round-relative, possibly overlapping) during which
    #: the coordinator was deciding or handing work to the pool — the
    #: periods the simulator models as instantaneous
    coord_intervals: list[tuple[float, float]] = field(default_factory=list)
    prepare_s: float = 0.0
    select_calls: int = 0
    scheduler_ops: int = 0
    precompute_ops: int = 0
    precompute_memory_cells: int = 0
    runtime_peak_memory_cells: int = 0
    #: round-relative windows a re-dispatched unit spent outside
    #: ``records``: from the start of its failed attempt (the handoff
    #: of one a dying lane took with it) to its next handoff — lost
    #: lane time and retry backoff, which no bound on a fault-free
    #: greedy schedule covers
    retry_intervals: list[tuple[float, float]] = field(default_factory=list)
    #: failed attempts that were re-dispatched under the retry policy
    unit_retries: int = 0
    #: attempts killed mid-round with their lane (or on the coordinator)
    lane_deaths: int = 0
    #: nodes the soft watchdog flagged as overdue (they still finished)
    stragglers: list[int] = field(default_factory=list)
    #: chaos injections observed during the round (0 without chaos)
    injected_faults: int = 0


#: lane shutdown sentinel
_STOP = object()


class _LaneKilled(BaseException):
    """Internal: chaos killed the lane running this attempt."""


def _queued(first, messages: queue.SimpleQueue):
    """``first``, then every message already queued behind it."""
    yield first
    while True:
        try:
            yield messages.get_nowait()
        except queue.Empty:
            return


def _lanes_lost(msg) -> int:
    """How many lanes a worker message reports dead (0 for a completion,
    or for a kill on processor 0, which has no lane to lose)."""
    if msg[0] == "lane-died":
        return msg[4]
    return 1 if msg[0] == "lane-crashed" else 0


class _Crew:
    """One round's side of its processors: runs attempts, reports each.

    Everything a lane needs of the round it works for travels with each
    job as this object, never with the thread: the round's
    :class:`~repro.datalog.units.ValueStore`, its completion queue, its
    cancel flag, chaos and the trace sink. :meth:`run` executes an
    attempt on the calling thread — the coordinator's own unit, or a
    lane's — and puts its completion on ``completions``. ``cancel``
    makes lanes drop this round's queued work instead of draining it —
    cooperative cancellation for aborted rounds.
    """

    __slots__ = ("values", "completions", "cancel", "chaos", "sink",
                 "tracing")

    def __init__(
        self,
        values: ValueStore,
        completions: queue.SimpleQueue,
        chaos: ChaosInjector | None,
        sink: TraceSink,
    ) -> None:
        self.values = values
        self.completions = completions
        self.cancel = threading.Event()
        self.chaos = chaos
        self.sink = sink
        self.tracing = sink.enabled

    def run(self, unit: WorkUnit, attempt: int) -> None:
        """Run one attempt here; raises :class:`_LaneKilled` on a kill."""
        if not self.tracing:
            self._attempt(unit, attempt)
            return
        # per-WorkUnit span recorded by the thread that runs it, into
        # its own thread-local buffer — the processor is the span's tid
        with self.sink.span(
            f"unit:{unit.node}",
            "unit",
            args={"node": unit.node, "label": unit.label, "attempt": attempt},
        ) as sp:
            self._attempt(unit, attempt)
            # what the unit says of how it got its value
            for key, said in self.values.notes.get(unit.node, {}).items():
                sp.set(key, said)

    def _attempt(self, unit: WorkUnit, attempt: int) -> None:
        chaos = self.chaos
        injected = False
        if chaos is not None:
            decide = chaos.unit_outcome(unit.node, attempt)
            if decide.kill_worker:
                raise _LaneKilled()
            if decide.latency_s > 0.0:
                sleep(decide.latency_s)
            injected = decide.fail
        t0 = perf_counter()
        try:
            if injected:
                raise InjectedUnitFault(unit.node, attempt)
            out, err = unit.run(self.values), None
        except Exception as exc:  # handled by the coordinator; an
            # interrupt is no unit's failure and ends the round
            out, err = None, exc
        self.completions.put(
            ("done", unit.node, attempt, out, t0, perf_counter(), err)
        )


def _lane(tasks: queue.SimpleQueue, parked: queue.SimpleQueue) -> None:
    """One lane thread: take a job, run it for its round, let go, park.

    A job is ``(crew, unit, attempt)``. Whatever happens to it, the lane
    drops every reference to the job's round and only then puts one
    token on ``parked`` — so a round that has collected a token per job
    it handed knows no lane holds anything of it (a parked lane blocks
    in ``tasks.get()`` holding nothing but the two queues). A lane
    killed mid-attempt reports its death to the round and exits.
    """
    name = threading.current_thread().name
    while True:
        job = tasks.get()
        if job is _STOP:
            return
        crew, unit, attempt = job
        job = died = None
        try:
            # an aborted round's queued work is dropped, not drained
            if not crew.cancel.is_set():
                if crew.tracing:
                    crew.sink.set_thread_name(name)
                crew.run(unit, attempt)
        except _LaneKilled:
            died = ("lane-died", unit.node, attempt, perf_counter(), 1)
        except BaseException as exc:  # pragma: no cover
            # a bug in the lane machinery itself: surface it as the
            # unit's failure so the round aborts typed
            died = ("lane-crashed", unit.node, attempt, perf_counter(), exc)
        dead = died is not None
        if dead:
            crew.completions.put(died)
        crew = unit = died = None
        parked.put(None)
        if dead:
            return


def _stop(tasks: queue.SimpleQueue, threads: list[threading.Thread]) -> None:
    """Wake every lane thread in ``threads`` with a sentinel."""
    for _ in threads:
        tasks.put(_STOP)


class Lanes:
    """The processors besides the coordinator: supervised lane threads.

    Lanes park on one job queue and are started on demand: the
    :meth:`hand` that finds every live lane taken starts one, so work
    with no width starts none. Unlike an opaque pool they are
    individually replaceable: the coordinator decrements :attr:`live`
    when a lane reports its death mid-attempt and a later hand-off
    restores it, so a chaos kill (or a harness bug that escapes a unit)
    costs one re-dispatch instead of the round.

    Who makes a ``Lanes`` owns its threads. A :class:`RoundExecutor`
    run on its own makes one per round and closes it before returning;
    :class:`~repro.runtime.service.UpdateStreamService` keeps one for
    its lifetime, so its lanes park between rounds, and its ``close()``
    closes them. They are daemon threads, and an owner that is freed
    without closing them still stops them (never joins them: the
    collector may run on any thread).
    """

    def __init__(self) -> None:
        self.tasks: queue.SimpleQueue = queue.SimpleQueue()
        #: one token per job a lane has let go of (see :func:`_lane`)
        self.parked: queue.SimpleQueue = queue.SimpleQueue()
        self._threads: list[threading.Thread] = []
        self._started = 0
        #: lanes started and not reported dead (coordinator-owned)
        self.live = 0
        weakref.finalize(self, _stop, self.tasks, self._threads)

    def hand(self, job, on_lanes: int) -> None:
        """Queue ``job``; start a lane if fewer than ``on_lanes`` live."""
        self.tasks.put(job)
        if self.live < on_lanes:
            t = threading.Thread(
                target=_lane,
                args=(self.tasks, self.parked),
                name=f"repro-runtime-{self._started}",
                daemon=True,
            )
            self._started += 1
            self.live += 1
            self._threads[:] = [x for x in self._threads if x.is_alive()]
            self._threads.append(t)
            t.start()

    def settle(self, handed: int) -> None:
        """Wait until lanes have let go of ``handed`` jobs — every job a
        round handed them, run, dropped or orphaned by a death."""
        for _ in range(handed):
            self.parked.get()

    def close(self) -> None:
        """Stop and join every lane; idempotent.

        One sentinel is enqueued per thread started and not yet joined;
        dead lanes leave theirs unconsumed, and those are discarded, so
        lanes a later hand-off starts begin from an empty queue. After
        this returns no lane thread is alive — the no-leak guarantee the
        deadline regression test pins.
        """
        _stop(self.tasks, self._threads)
        for t in self._threads:
            t.join()
        self._threads.clear()
        self.live = 0
        while True:
            try:
                self.tasks.get_nowait()
            except queue.Empty:
                return


class RoundExecutor:
    """Runs one :class:`~repro.datalog.units.ExecutionPlan` for real.

    Parameters
    ----------
    plan, scheduler, workers, deadline, sink:
        The compiled plan, the driving scheduler, the processor count
        (the thread calling :meth:`run` plus at most P−1 lanes), optional
        hard wall-clock deadline for the whole round, and trace sink.
    retry:
        The per-unit :class:`RetryPolicy`; ``None`` (the default) is
        ``RetryPolicy(max_retries=0)``: the first unit failure
        quarantines the unit and aborts the round.
    unit_timeout_s:
        Optional soft per-unit watchdog: an attempt in flight longer
        than this is marked on :attr:`RoundOutcome.stragglers` (and as
        a ``unit-straggler`` trace instant). Soft only — the unit is
        never killed; the hard ``deadline`` bounds the round.
    chaos:
        Optional :class:`~repro.runtime.chaos.ChaosInjector` consulted
        on every dispatched attempt. ``None`` keeps the hot path
        byte-identical to a chaos-free build.
    lanes:
        The :class:`Lanes` whose threads run the handed-off units, owned
        by the caller, who closes them — a service keeps one for its
        lifetime. ``None`` (the default): each :meth:`run` starts its
        own and closes them before returning.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        scheduler: Scheduler,
        workers: int = 4,
        deadline: float | None = None,
        sink: TraceSink = NULL_SINK,
        retry: RetryPolicy | None = None,
        unit_timeout_s: float | None = None,
        chaos: ChaosInjector | None = None,
        lanes: Lanes | None = None,
    ) -> None:
        check_round_limits("workers", workers,
                           unit_timeout_s=unit_timeout_s, deadline=deadline)
        self.plan = plan
        self.scheduler = scheduler
        self.workers = workers
        self.deadline = deadline
        self.sink = sink
        self.retry = RetryPolicy(max_retries=0) if retry is None else retry
        self.unit_timeout_s = unit_timeout_s
        self.chaos = chaos
        self.lanes = lanes

    # ------------------------------------------------------------------
    def run(self) -> RoundOutcome:
        """Execute the round; returns measurements and real diffs.

        Raises :class:`~repro.sim.engine.InvalidDispatchError` /
        :class:`~repro.sim.engine.SchedulerStallError` on scheduler
        misbehavior (validated against the live activation state, like
        the simulator validates against ground truth) and
        :class:`UnitExecutionError` when a unit exhausts its retry
        budget. However it exits, every lane has let go of the round —
        parked, or joined if the round started them — and late
        completions are discarded before control returns.
        """
        lanes = Lanes() if self.lanes is None else self.lanes
        r = _Round(self, lanes)
        r._prepare()
        try:
            r._bootstrap()
            while True:
                r._dispatch()
                r._close_window()
                r._run_held()
                if r._done():
                    break
                first = r._await()
                if first is None:
                    # timer tick: a retry came due or a unit went
                    # overdue — mark stragglers, back to dispatch
                    r._mark_stragglers()
                    continue
                # it and whatever is queued behind it: a completion
                # that landed while this thread ran a unit must not
                # wait out another
                for msg in _queued(first, r.completions):
                    r._settle(msg)
        finally:
            r._release()
            if lanes is not self.lanes:
                lanes.close()
        return r._finish()


class _Round:
    """One :meth:`RoundExecutor.run`: its state and its phases.

    Built fresh by every ``run``; the coordinator is the only thread
    that touches it (lanes see only its :class:`_Crew`).
    """

    def __init__(self, ex: RoundExecutor, lanes: Lanes) -> None:
        self.plan = ex.plan
        self.scheduler = ex.scheduler
        self.workers = ex.workers
        self.deadline = ex.deadline
        self.sink = ex.sink
        self.tracing = ex.sink.enabled
        self.retry = ex.retry
        #: the soft per-unit watchdog, seconds (``None``: off)
        self.watchdog = ex.unit_timeout_s
        self.chaos = ex.chaos
        self.state = LiveActivationState(ex.plan)
        self.oracle = ReadinessOracle(self.state.is_ready)
        self.values = ex.plan.new_store()
        self.outcome = RoundOutcome(
            scheduler_name=ex.scheduler.name,
            workers=ex.workers,
            values=self.values,
        )
        self.completions: queue.SimpleQueue = queue.SimpleQueue()
        self.crew = _Crew(self.values, self.completions, ex.chaos, ex.sink)
        self.lanes = lanes
        #: jobs handed to lanes, each owed a token on ``lanes.parked``
        self.handed = 0
        self.origin = 0.0
        self.faults0 = 0
        self.inflight = 0
        #: start stamp of the open coordination window (``None``: shut)
        self.window: float | None = None
        #: when the last coordination window was closed
        self.closed_at = 0.0
        #: nodes submitted since the last window close
        self.just_submitted: list[int] = []
        #: node → the window-close instant after its submit; a unit
        #: starting later than this kept a worker idle on pool handoff
        self.handoff_from: dict[int, float] = {}
        #: node → when the attempt it must repeat began
        self.retry_from: dict[int, float] = {}
        #: node → dispatch attempts issued so far (0-based last attempt)
        self.attempts: dict[int, int] = {}
        #: node → recorded (non-lane-death) failures
        self.failures: dict[int, int] = {}
        #: (due perf_counter stamp, node) min-heap of pending retries
        self.retry_heap: list[tuple[float, int]] = []
        #: node → dispatch stamp, maintained only when the watchdog is on
        self.dispatched_at: dict[int, float] = {}
        #: nodes the watchdog already flagged as stragglers
        self.marked: set[int] = set()
        #: the attempt issued last, held back for this thread to run
        self.held: tuple[WorkUnit, int] | None = None

    # -- phases, in the order :meth:`RoundExecutor.run` sequences them --
    def _prepare(self) -> None:
        """Reset and bind the scheduler, then its ``prepare`` hook."""
        scheduler, sink = self.scheduler, self.sink
        scheduler.reset_counters()
        scheduler.bind_oracle(self.oracle)
        scheduler.bind_sink(sink)
        ctx = SchedulerContext(
            trace=self.plan.compiled.trace,
            processors=self.workers,
            oracle=self.oracle,
        )
        t_prep = perf_counter()
        with sink.span("prepare", "phase", args={"sched": scheduler.name}):
            scheduler.prepare(ctx)
        self.outcome.prepare_s = perf_counter() - t_prep
        if self.chaos is not None:
            self.faults0 = self.chaos.injected_total
        self.origin = perf_counter()

    def _bootstrap(self) -> None:
        """Stage the initial tasks and announce their activation at t=0."""
        scheduler = self.scheduler
        dispatchable, activated = self.state.bootstrap()
        self.oracle.push_ready_events(dispatchable)
        h0, ops0 = perf_counter(), scheduler.ops
        for v in activated:
            scheduler.on_activate(v, 0.0)
        self._charge("activate_ops", h0, ops0)

    def _dispatch(self) -> None:
        """Due retries first, then ask the scheduler while it selects."""
        workers, heap = self.workers, self.retry_heap
        # due retries take freed lanes first — the scheduler already
        # dispatched these nodes; re-dispatch is the executor's
        # business, not a new select decision
        if heap:
            now = perf_counter()
            while heap and self.inflight < workers and heap[0][0] <= now:
                _, v = heapq.heappop(heap)
                self.inflight += 1
                self._submit(v)
        scheduler, state, outcome = self.scheduler, self.state, self.outcome
        while self.inflight < workers:
            idle = workers - self.inflight
            t = perf_counter() - self.origin
            h0, ops0 = perf_counter(), scheduler.ops
            chosen = scheduler.select(idle, t)
            self._charge("ready_scan_ops", h0, ops0)
            if self.tracing:
                self.sink.add_to_current("select_calls", 1)
            outcome.select_calls += 1
            if not chosen:
                return
            mark_selected(state, scheduler, chosen, idle)
            for v in chosen:
                self.inflight += 1
                self._submit(v)

    def _close_window(self) -> None:
        """End the coordination window the last completion opened.

        From here on any worker idleness is the scheduler's choice, not
        coordination latency: this stamps the hand-off instant of every
        node just submitted and closes the retry interval of each one
        being repeated.
        """
        now, origin = perf_counter(), self.origin
        outcome, retry_from = self.outcome, self.retry_from
        for v in self.just_submitted:
            self.handoff_from[v] = now
            if v in retry_from:
                outcome.retry_intervals.append(
                    (retry_from.pop(v) - origin, now - origin)
                )
        self.just_submitted.clear()
        if self.window is not None:
            if now > self.window:
                outcome.coord_intervals.append(
                    (self.window - origin, now - origin)
                )
            self.window = None
        self.closed_at = now

    def _run_held(self) -> None:
        """Processor 0 runs a unit instead of waiting for one."""
        if self.held is None:
            return
        (unit, a), self.held = self.held, None
        try:
            self.crew.run(unit, a)
        except _LaneKilled:
            # the same capacity loss, no thread to replace
            self.completions.put(
                ("lane-died", unit.node, a, perf_counter(), 0)
            )

    def _done(self) -> bool:
        """Nothing runs or waits to: the round is over, or stalled."""
        if self.inflight:
            return False
        return all_done_or_stall(
            self.state, self.scheduler, self.plan.compiled.trace.name,
            bool(self.retry_heap),
        )

    def _await(self):
        """Block for the next worker message, honoring every timer.

        Returns ``None`` on a timer tick (a retry came due or the
        watchdog wants a straggler scan); raises
        :class:`~repro.sim.faults.DeadlineExceededError` once the hard
        round deadline has passed. With no deadline, no pending
        retries, and no watchdog this is a plain blocking ``get()`` —
        the chaos-free hot path pays nothing.
        """
        timeout: float | None = None
        if self.deadline is not None:
            elapsed = perf_counter() - self.origin
            if elapsed >= self.deadline:
                raise DeadlineExceededError(
                    self.deadline, elapsed, self.state.pending_count()
                )
            timeout = self.deadline - elapsed
        now = perf_counter()
        if self.retry_heap and self.inflight < self.workers:
            # a due retry is only actionable once a lane is free; with
            # every lane busy the next interesting event is a completion
            due = self.retry_heap[0][0] - now
            timeout = due if timeout is None else min(timeout, due)
        if self.watchdog is not None:
            pending = [
                stamp
                for node, stamp in self.dispatched_at.items()
                if node not in self.marked
            ]
            if pending:
                overdue = min(pending) + self.watchdog - now
                timeout = (
                    overdue if timeout is None else min(timeout, overdue)
                )
        if timeout is None:
            return self.completions.get()
        if timeout <= 0:
            return None
        try:
            return self.completions.get(timeout=timeout)
        except queue.Empty:
            return None

    def _settle(self, msg) -> None:
        """Take in one worker message: a lane death, crash or completion."""
        outcome, origin = self.outcome, self.origin
        if msg[0] == "lane-died":
            _, node, attempt, t, lost = msg
            # supervision: re-dispatch the orphaned unit (a later
            # hand-off restores the lane) — capacity loss, not a unit
            # failure, so no retry budget is charged
            self.lanes.live -= lost
            outcome.lane_deaths += 1
            self.retry_from[node] = self.handoff_from.get(node, t)
            if self.watchdog is not None:
                self.dispatched_at.pop(node, None)
            if self.tracing:
                self.sink.record_instant(
                    "lane-replaced", args={"node": node, "attempt": attempt}
                )
            self._submit(node)
            return
        if msg[0] == "lane-crashed":
            _, node, attempt, t1, err = msg
            self.lanes.live -= 1
            outcome.lane_deaths += 1
            out, t0 = None, t1
        else:
            _, node, attempt, out, t0, t1, err = msg
        self.inflight -= 1
        if self.watchdog is not None:
            self.dispatched_at.pop(node, None)
        # the window opens at the first finish stamp (covers the queue
        # wake, or the rest of the unit this thread was inside); the
        # last window close shut the previous one
        if self.window is None:
            self.window = max(t1, self.closed_at)
        h = self.handoff_from.pop(node, t0)
        if t0 > h:
            outcome.dispatch_lag_s += t0 - h
            outcome.coord_intervals.append((h - origin, t0 - origin))
        if err is not None:
            self._retry_or_quarantine(node, t0, err)
            return

        values, scheduler = self.values, self.scheduler
        values.set(node, *out)
        outcome.diffs[node] = changed = values.changed(node)
        outcome.records[node] = (t0 - origin, t1 - origin)
        t = perf_counter() - origin
        h0, ops0 = perf_counter(), scheduler.ops
        dispatchable, activated = self.state.complete_live(node, changed)
        self.oracle.push_ready_events(dispatchable)
        for v in activated:
            scheduler.on_activate(v, t)
        scheduler.on_complete(node, t)
        self._charge("complete_ops", h0, ops0)

    def _finish(self) -> RoundOutcome:
        """Fill the outcome's round totals and hand it over."""
        outcome, scheduler = self.outcome, self.scheduler
        outcome.wall_latency_s = perf_counter() - self.origin
        outcome.scheduler_ops = scheduler.ops
        outcome.precompute_ops = scheduler.precompute_ops
        outcome.precompute_memory_cells = scheduler.precompute_memory_cells
        outcome.runtime_peak_memory_cells = (
            scheduler.runtime_peak_memory_cells
        )
        if self.chaos is not None:
            outcome.injected_faults = (
                self.chaos.injected_total - self.faults0
            )
        return outcome

    def _release(self) -> None:
        """However the round ends: wait until the lanes have let go of
        every job it handed them, then discard the completions that
        landed after an abort (deadline, chaos, quarantine) — they
        belong to a dead round — counting the lanes they report dead."""
        self.crew.cancel.set()
        self.lanes.settle(self.handed)
        while True:
            try:
                msg = self.completions.get_nowait()
            except queue.Empty:
                return
            self.lanes.live -= _lanes_lost(msg)

    # -- what the phases share --
    def _charge(self, counter: str, h0: float, ops0: int) -> None:
        """Book the scheduler hooks run since ``h0`` / ``ops0``: their
        time as overhead, their ops on the current span's ``counter``."""
        self.outcome.overhead_s += perf_counter() - h0
        if self.tracing:
            self.sink.add_to_current(counter, self.scheduler.ops - ops0)

    def _submit(self, node: int) -> None:
        """Issue ``node``'s next attempt; hand the held one to a lane.

        ``inflight`` counts this attempt already: once the one held
        before it is handed off, all but one are on lanes.
        """
        a = self.attempts.get(node, -1) + 1
        self.attempts[node] = a
        if self.watchdog is not None:
            self.dispatched_at[node] = perf_counter()
        if self.held is not None:
            self.lanes.hand((self.crew, *self.held), self.inflight - 1)
            self.handed += 1
        self.held = (self.plan.units[node], a)
        self.just_submitted.append(node)

    def _retry_or_quarantine(
        self, node: int, t0: float, err: BaseException
    ) -> None:
        """Schedule a failed unit's retry, or abort once it is poison."""
        nfail = self.failures.get(node, 0) + 1
        self.failures[node] = nfail
        if not self.retry.allows(nfail):
            # budget exhausted: quarantine it, stop dispatching, and
            # surface every failure
            raise self._quarantine(node, err) from err
        delay = self.retry.backoff_delay(nfail)
        heapq.heappush(self.retry_heap, (perf_counter() + delay, node))
        self.outcome.unit_retries += 1
        self.retry_from[node] = t0
        if self.chaos is not None:
            self.chaos.note_retry(node, self.attempts[node], delay)
        if self.tracing:
            self.sink.record_instant(
                "unit-retry",
                args={"node": node, "failures": nfail, "backoff_s": delay},
            )

    def _quarantine(
        self, node: int, err: BaseException
    ) -> UnitExecutionError:
        """Build the aborting aggregate for a permanently failed unit.

        Cancellation is raised first so lanes stop draining the plan;
        any *other* failures already sitting in the completion queue
        ride along in the aggregate (they would never get their retry —
        the round is over — and hiding them helps nobody).
        """
        units = self.plan.units
        self.crew.cancel.set()
        failed = [(node, err)]
        while True:
            try:
                msg = self.completions.get_nowait()
            except queue.Empty:
                break
            self.lanes.live -= _lanes_lost(msg)
            if msg[0] == "done" and msg[6] is not None:
                failed.append((msg[1], msg[6]))
        failures = [
            UnitFailure(
                node=v,
                label=units[v].label,
                attempts=self.attempts.get(v, 0) + 1,
                error=e,
            )
            for v, e in failed
        ]
        if self.chaos is not None:
            for f in failures:
                self.chaos.note_quarantine(f.node, f.attempts)
        if self.tracing:
            self.sink.record_instant(
                "quarantine",
                args={
                    "nodes": [f.node for f in failures],
                    "attempts": failures[0].attempts,
                },
            )
        return UnitExecutionError.from_failures(failures)

    def _mark_stragglers(self) -> None:
        """Flag in-flight units overdue past the soft watchdog."""
        if self.watchdog is None:
            return
        now = perf_counter()
        for node, stamp in self.dispatched_at.items():
            if node in self.marked or now - stamp < self.watchdog:
                continue
            self.marked.add(node)
            self.outcome.stragglers.append(node)
            if self.tracing:
                self.sink.record_instant(
                    "unit-straggler",
                    args={"node": node, "running_s": now - stamp},
                )
