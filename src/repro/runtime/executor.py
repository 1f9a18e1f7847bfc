"""Concurrent, fault-tolerant execution of one compiled maintenance round.

The executor is the runtime twin of :func:`repro.sim.engine.simulate`:
the same scheduler ABC, the same hook order (bootstrap → ``on_activate``
→ loop of ``select`` / dispatch / completion → ``on_complete``), the
same dispatch validation — but "executing a task" means a thread
actually runs the node's :class:`~repro.datalog.units.WorkUnit` against
the shared value store, and the changed/unchanged signal that decides
child activation is the Z-set the unit emits with its output — the
*real* change against its value under the old materialization.

Threading model
---------------
``workers`` is the paper's P processors, and the coordinator — the
thread that calls :meth:`RoundExecutor.run` — is processor 0: of the
units one dispatch stage selects it hands all but the last to lanes,
runs the last itself, then handles whatever completions are queued.
The others are at most P−1 lane threads, each started by the first
hand-off that finds every live lane taken, so a round whose stages
never select two units (a chain-shaped ``G``, or ``workers=1``) starts
no thread. The coordinator owns all scheduler and activation state;
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
and all lane threads are joined (no leaks) with late completions
explicitly discarded. A soft per-unit watchdog marks in-flight
stragglers on :attr:`RoundOutcome.stragglers` without killing them;
the hard round ``deadline`` still aborts via
:class:`~repro.sim.faults.DeadlineExceededError`.
"""

from __future__ import annotations

import heapq
import queue
import threading
from dataclasses import dataclass, field
from time import perf_counter, sleep

import numpy as np

from ..datalog.units import ExecutionPlan, ValueStore, WorkUnit
from ..obs.trace import NULL_SINK, TraceSink
from ..schedulers.base import ReadinessOracle, Scheduler, SchedulerContext
from ..sim.engine import InvalidDispatchError, SchedulerStallError
from ..sim.faults import DeadlineExceededError, capped_backoff
from ..tasks.activation import ActivationState
from .chaos import ChaosInjector, InjectedUnitFault

__all__ = [
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
    #: coordination dead time: completion-to-dispatch windows during
    #: which at least one worker idled (the real-run analog of the
    #: simulator's inline-charged scheduling overhead)
    stall_s: float = 0.0
    #: thread-pool handoff latency, Σ max(0, unit start − dispatch)
    dispatch_lag_s: float = 0.0
    #: maximal intervals (round-relative) during which the coordinator
    #: was deciding or handing work to the pool — the periods the
    #: simulator models as instantaneous
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


class _WorkerLanes:
    """A supervised set of worker threads over one dispatch queue.

    Starts empty: a lane is started by the :meth:`hand` that finds every
    live one taken. Unlike an opaque pool, lanes are individually
    replaceable: the coordinator decrements :attr:`live` when a lane
    reports its death mid-attempt and a later hand-off restores it, so
    a chaos kill (or a harness bug that escapes a unit) costs one
    re-dispatch instead of the round. ``cancel`` makes lanes drop
    queued work instead of draining it — cooperative cancellation for
    aborted rounds.
    """

    def __init__(
        self, target, tasks: queue.SimpleQueue, cancel: threading.Event
    ) -> None:
        self._target = target
        self.tasks = tasks
        self.cancel = cancel
        self._threads: list[threading.Thread] = []
        #: lanes started and not reported dead (coordinator-owned)
        self.live = 0

    def hand(self, item, on_lanes: int) -> None:
        """Queue ``item``; start a lane if fewer than ``on_lanes`` live."""
        self.tasks.put(item)
        if self.live < on_lanes:
            t = threading.Thread(
                target=self._target,
                name=f"repro-runtime-{len(self._threads)}",
                daemon=True,
            )
            self.live += 1
            self._threads.append(t)
            t.start()

    def shutdown(self) -> None:
        """Cancel, wake every lane with a sentinel, and join them all.

        One sentinel is enqueued per thread ever spawned; dead lanes
        leave theirs unconsumed, so every surviving lane is guaranteed
        to see one. After this returns no lane thread is alive — the
        no-leak guarantee the deadline regression test pins.
        """
        self.cancel.set()
        for _ in self._threads:
            self.tasks.put(_STOP)
        for t in self._threads:
            t.join()


class RoundExecutor:
    """Runs one :class:`~repro.datalog.units.ExecutionPlan` for real.

    Parameters
    ----------
    plan, scheduler, workers, deadline, sink:
        The compiled plan, the driving scheduler, the processor count
        (the thread calling :meth:`run` plus at most P−1 lanes), optional
        hard wall-clock deadline for the whole round, and trace sink.
    retry:
        Optional :class:`RetryPolicy`; ``None`` (the default) keeps
        the historical fail-fast behavior — the first unit failure
        aborts the round.
    unit_timeout_s:
        Optional soft per-unit watchdog: an attempt in flight longer
        than this is marked on :attr:`RoundOutcome.stragglers` (and as
        a ``unit-straggler`` trace instant). Soft only — the unit is
        never killed; the hard ``deadline`` bounds the round.
    chaos:
        Optional :class:`~repro.runtime.chaos.ChaosInjector` consulted
        on every dispatched attempt. ``None`` keeps the hot path
        byte-identical to a chaos-free build.
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
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if unit_timeout_s is not None and unit_timeout_s <= 0:
            raise ValueError(
                f"unit_timeout_s must be positive, got {unit_timeout_s}"
            )
        self.plan = plan
        self.scheduler = scheduler
        self.workers = workers
        self.deadline = deadline
        self.sink = sink
        self.retry = retry
        self.unit_timeout_s = unit_timeout_s
        self.chaos = chaos

    # ------------------------------------------------------------------
    def run(self) -> RoundOutcome:
        """Execute the round; returns measurements and real diffs.

        Raises :class:`~repro.sim.engine.InvalidDispatchError` /
        :class:`~repro.sim.engine.SchedulerStallError` on scheduler
        misbehavior (validated against the live activation state, like
        the simulator validates against ground truth) and
        :class:`UnitExecutionError` when a unit fails permanently —
        immediately without a retry policy, after budget exhaustion
        with one. However it exits, every lane thread is joined and
        late completions are discarded before control returns.
        """
        plan, scheduler, workers = self.plan, self.scheduler, self.workers
        sink, chaos, retry = self.sink, self.chaos, self.retry
        tracing = sink.enabled
        trace = plan.compiled.trace
        state = LiveActivationState(plan)
        scheduler.reset_counters()
        oracle = ReadinessOracle(state.is_ready)
        scheduler.bind_oracle(oracle)
        scheduler.bind_sink(sink)
        ctx = SchedulerContext(trace=trace, processors=workers, oracle=oracle)
        t_prep = perf_counter()
        with sink.span("prepare", "phase", args={"sched": scheduler.name}):
            scheduler.prepare(ctx)
        prepare_s = perf_counter() - t_prep

        values = plan.new_store()
        outcome = RoundOutcome(
            scheduler_name=scheduler.name,
            workers=workers,
            values=values,
            prepare_s=prepare_s,
        )
        faults0 = chaos.injected_total if chaos is not None else 0
        completions: queue.SimpleQueue = queue.SimpleQueue()
        tasks: queue.SimpleQueue = queue.SimpleQueue()
        cancel = threading.Event()
        origin = perf_counter()

        def clock() -> float:
            return perf_counter() - origin

        def run_attempt(unit: WorkUnit, attempt: int) -> None:
            if chaos is not None:
                decide = chaos.unit_outcome(unit.node, attempt)
                if decide.kill_worker:
                    raise _LaneKilled()
                if decide.latency_s > 0.0:
                    sleep(decide.latency_s)
                injected = decide.fail
            else:
                injected = False
            t0 = perf_counter()
            try:
                if injected:
                    raise InjectedUnitFault(unit.node, attempt)
                out, err = unit.run(values), None
            except Exception as exc:  # handled by the coordinator; an
                # interrupt is no unit's failure and ends the round
                out, err = None, exc
            completions.put(
                ("done", unit.node, attempt, out, t0, perf_counter(), err)
            )

        if tracing:
            # per-WorkUnit span recorded by the thread that runs it, into
            # its own thread-local buffer — the processor is the span's tid
            def exec_attempt(unit: WorkUnit, attempt: int) -> None:
                with sink.span(
                    f"unit:{unit.node}",
                    "unit",
                    args={
                        "node": unit.node,
                        "label": unit.label,
                        "attempt": attempt,
                    },
                ) as sp:
                    run_attempt(unit, attempt)
                    # what the unit says of how it got its value
                    for key, said in values.notes.get(unit.node, {}).items():
                        sp.set(key, said)
        else:
            exec_attempt = run_attempt

        def lane_loop() -> None:
            sink.set_thread_name(threading.current_thread().name)
            while True:
                item = tasks.get()
                if item is _STOP:
                    return
                if cancel.is_set():
                    # aborted round: drop queued work instead of
                    # draining the plan
                    continue
                unit, attempt = item
                try:
                    exec_attempt(unit, attempt)
                except _LaneKilled:
                    completions.put(
                        ("lane-died", unit.node, attempt, perf_counter(), 1)
                    )
                    return
                except BaseException as exc:  # pragma: no cover
                    # a bug in the lane machinery itself: surface it as
                    # the unit's failure so the round aborts typed
                    completions.put(
                        (
                            "lane-crashed",
                            unit.node,
                            attempt,
                            perf_counter(),
                            exc,
                        )
                    )
                    return

        inflight = 0
        overhead = 0.0
        stall = 0.0
        dispatch_lag = 0.0
        # open coordination window: (start, busy workers during it)
        window: tuple[float, float] | None = None
        #: nodes submitted since the last window close
        just_submitted: list[int] = []
        #: node → the window-close instant after its submit; a unit
        #: starting later than this kept a worker idle on pool handoff
        handoff_from: dict[int, float] = {}
        coord: list[tuple[float, float]] = []
        #: node → when the attempt it must repeat began
        retry_from: dict[int, float] = {}
        #: node → dispatch attempts issued so far (0-based last attempt)
        attempts: dict[int, int] = {}
        #: node → recorded (non-lane-death) failures
        failures: dict[int, int] = {}
        #: (due perf_counter stamp, node) min-heap of pending retries
        retry_heap: list[tuple[float, int]] = []
        watchdog = self.unit_timeout_s
        #: node → dispatch stamp, maintained only when the watchdog is on
        dispatched_at: dict[int, float] = {}
        marked: set[int] = set()
        lanes = _WorkerLanes(lane_loop, tasks, cancel)
        #: the attempt issued last, held back for this thread to run
        held: tuple[WorkUnit, int] | None = None

        def submit_attempt(node: int) -> None:
            # ``inflight`` counts this attempt already: once the one
            # held before it is handed off, all but one are on lanes
            nonlocal held
            a = attempts.get(node, -1) + 1
            attempts[node] = a
            if watchdog is not None:
                dispatched_at[node] = perf_counter()
            if held is not None:
                lanes.hand(held, inflight - 1)
            held = (plan.units[node], a)
            just_submitted.append(node)

        try:
            dispatchable0, activated0 = state.bootstrap()
            oracle.push_ready_events(dispatchable0)
            h0 = perf_counter()
            ops0 = scheduler.ops
            for v in activated0:
                scheduler.on_activate(v, 0.0)
            overhead += perf_counter() - h0
            if tracing:
                sink.add_to_current("activate_ops", scheduler.ops - ops0)

            while True:
                # due retries take freed lanes first — the scheduler
                # already dispatched these nodes; re-dispatch is the
                # executor's business, not a new select decision
                if retry_heap:
                    now_pc = perf_counter()
                    while (
                        retry_heap
                        and inflight < workers
                        and retry_heap[0][0] <= now_pc
                    ):
                        _, v = heapq.heappop(retry_heap)
                        inflight += 1
                        submit_attempt(v)

                # dispatch: keep asking while the scheduler produces work
                while inflight < workers:
                    t = clock()
                    h0 = perf_counter()
                    ops0 = scheduler.ops
                    chosen = scheduler.select(workers - inflight, t)
                    overhead += perf_counter() - h0
                    if tracing:
                        sink.add_to_current(
                            "ready_scan_ops", scheduler.ops - ops0
                        )
                        sink.add_to_current("select_calls", 1)
                    outcome.select_calls += 1
                    if not chosen:
                        break
                    if len(chosen) > workers - inflight:
                        raise InvalidDispatchError(
                            f"{scheduler.name} returned {len(chosen)} tasks "
                            f"for {workers - inflight} idle workers"
                        )
                    for v in chosen:
                        try:
                            state.mark_dispatched(v)
                        except RuntimeError as exc:
                            raise InvalidDispatchError(
                                f"{scheduler.name} dispatched task {v} "
                                f"illegally: {exc}"
                            ) from exc
                        inflight += 1
                        submit_attempt(v)

                # the coordination window that began at the last popped
                # completion ends here: from now on any worker idleness
                # is the scheduler's choice, not coordination latency
                now = perf_counter()
                for v in just_submitted:
                    handoff_from[v] = now
                    if v in retry_from:
                        outcome.retry_intervals.append(
                            (retry_from.pop(v) - origin, now - origin)
                        )
                just_submitted.clear()
                if window is not None:
                    w_start, busy = window
                    if busy > 0:
                        stall += max(0.0, now - w_start)
                    if now > w_start:
                        coord.append((w_start - origin, now - origin))
                    window = None

                if held is not None:
                    # processor 0 runs a unit instead of waiting for one
                    (unit, a), held = held, None
                    try:
                        exec_attempt(unit, a)
                    except _LaneKilled:
                        # the same capacity loss, no thread to replace
                        completions.put(
                            ("lane-died", unit.node, a, perf_counter(), 0)
                        )

                if inflight == 0 and not retry_heap:
                    if state.all_done():
                        break
                    raise SchedulerStallError(
                        f"{scheduler.name} stalled on {trace.name}: "
                        f"{state.pending_count()} task(s) pending, none "
                        "running, none selected"
                    )

                first = self._await_event(
                    completions, state, clock, retry_heap, dispatched_at,
                    marked, inflight,
                )
                if first is None:
                    # timer tick: a retry came due or a unit went
                    # overdue — mark stragglers and loop back to the
                    # dispatch stage
                    self._mark_stragglers(
                        dispatched_at, marked, outcome
                    )
                    continue

                # ... and whatever is queued behind it: a completion that
                # landed while this thread ran a unit must not wait out another
                for msg in _queued(first, completions):
                    if msg[0] == "lane-died":
                        _, node, attempt, _t, lost = msg
                        # supervision: re-dispatch the orphaned unit (a
                        # later hand-off restores the lane) — capacity loss,
                        # not a unit failure, so no retry budget is charged
                        lanes.live -= lost
                        outcome.lane_deaths += 1
                        retry_from[node] = handoff_from.get(node, _t)
                        if watchdog is not None:
                            dispatched_at.pop(node, None)
                        if tracing:
                            sink.record_instant(
                                "lane-replaced",
                                args={"node": node, "attempt": attempt},
                            )
                        submit_attempt(node)
                        continue

                    if msg[0] == "lane-crashed":
                        _, node, attempt, t1, err = msg
                        lanes.live -= 1
                        outcome.lane_deaths += 1
                        out, t0 = None, t1
                    else:
                        _, node, attempt, out, t0, t1, err = msg

                    inflight -= 1
                    if watchdog is not None:
                        dispatched_at.pop(node, None)
                    # window opens at the first finish stamp (covers the
                    # queue wake, or the rest of the unit this thread was
                    # inside); `now` closed the previous one
                    if window is None:
                        window = (max(t1, now), inflight)
                    h = handoff_from.pop(node, t0)
                    if t0 > h:
                        dispatch_lag += t0 - h
                        coord.append((h - origin, t0 - origin))

                    if err is not None:
                        nfail = failures.get(node, 0) + 1
                        failures[node] = nfail
                        if retry is not None and retry.allows(nfail):
                            delay = retry.backoff_delay(nfail)
                            heapq.heappush(
                                retry_heap, (perf_counter() + delay, node)
                            )
                            outcome.unit_retries += 1
                            retry_from[node] = t0
                            if chaos is not None:
                                chaos.note_retry(node, attempts[node], delay)
                            if tracing:
                                sink.record_instant(
                                    "unit-retry",
                                    args={
                                        "node": node,
                                        "failures": nfail,
                                        "backoff_s": delay,
                                    },
                                )
                            continue
                        # budget exhausted: the unit is poison — quarantine
                        # it, stop dispatching, and surface every failure
                        raise self._quarantine(
                            node, err, attempts, completions, lanes
                        ) from err

                    values.set(node, *out)
                    outcome.diffs[node] = changed = values.changed(node)
                    outcome.records[node] = (t0 - origin, t1 - origin)

                    t = clock()
                    h0 = perf_counter()
                    ops0 = scheduler.ops
                    dispatchable, newly_activated = state.complete_live(
                        node, changed
                    )
                    oracle.push_ready_events(dispatchable)
                    for v in newly_activated:
                        scheduler.on_activate(v, t)
                    scheduler.on_complete(node, t)
                    overhead += perf_counter() - h0
                    if tracing:
                        sink.add_to_current(
                            "complete_ops", scheduler.ops - ops0
                        )
        finally:
            lanes.shutdown()
            # completions that landed after an abort (deadline, chaos,
            # quarantine) belong to a dead round: drain and discard so
            # nothing dangles — every lane is already joined above
            while True:
                try:
                    completions.get_nowait()
                except queue.Empty:
                    break

        outcome.wall_latency_s = clock()
        outcome.overhead_s = overhead
        outcome.stall_s = stall
        outcome.dispatch_lag_s = dispatch_lag
        outcome.coord_intervals = union_intervals(coord)
        outcome.scheduler_ops = scheduler.ops
        outcome.precompute_ops = scheduler.precompute_ops
        outcome.precompute_memory_cells = scheduler.precompute_memory_cells
        outcome.runtime_peak_memory_cells = (
            scheduler.runtime_peak_memory_cells
        )
        if chaos is not None:
            outcome.injected_faults = chaos.injected_total - faults0
        return outcome

    # ------------------------------------------------------------------
    def _quarantine(
        self,
        node: int,
        err: BaseException,
        attempts: dict[int, int],
        completions: queue.SimpleQueue,
        lanes: _WorkerLanes,
    ) -> UnitExecutionError:
        """Build the aborting aggregate for a permanently failed unit.

        Cancellation is raised first so lanes stop draining the plan;
        any *other* failures already sitting in the completion queue
        ride along in the aggregate (they would never get their retry —
        the round is over — and hiding them helps nobody).
        """
        plan, chaos = self.plan, self.chaos
        lanes.cancel.set()
        failures = [
            UnitFailure(
                node=node,
                label=plan.units[node].label,
                attempts=attempts.get(node, 0) + 1,
                error=err,
            )
        ]
        while True:
            try:
                msg = completions.get_nowait()
            except queue.Empty:
                break
            if msg[0] != "done" or msg[6] is None:
                continue
            other = msg[1]
            failures.append(
                UnitFailure(
                    node=other,
                    label=plan.units[other].label,
                    attempts=attempts.get(other, 0) + 1,
                    error=msg[6],
                )
            )
        if chaos is not None:
            for f in failures:
                chaos.note_quarantine(f.node, f.attempts)
        if self.sink.enabled:
            self.sink.record_instant(
                "quarantine",
                args={
                    "nodes": [f.node for f in failures],
                    "attempts": failures[0].attempts,
                },
            )
        return UnitExecutionError.from_failures(failures)

    # ------------------------------------------------------------------
    def _mark_stragglers(
        self,
        dispatched_at: dict[int, float],
        marked: set[int],
        outcome: RoundOutcome,
    ) -> None:
        """Flag in-flight units overdue past the soft watchdog."""
        watchdog = self.unit_timeout_s
        if watchdog is None:
            return
        now = perf_counter()
        for node, stamp in dispatched_at.items():
            if node in marked or now - stamp < watchdog:
                continue
            marked.add(node)
            outcome.stragglers.append(node)
            if self.sink.enabled:
                self.sink.record_instant(
                    "unit-straggler",
                    args={"node": node, "running_s": now - stamp},
                )

    # ------------------------------------------------------------------
    def _await_event(
        self,
        completions: queue.SimpleQueue,
        state: LiveActivationState,
        clock,
        retry_heap: list[tuple[float, int]],
        dispatched_at: dict[int, float],
        marked: set[int],
        inflight: int,
    ):
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
            remaining = self.deadline - clock()
            if remaining <= 0:
                raise DeadlineExceededError(
                    self.deadline, clock(), state.pending_count()
                )
            timeout = remaining
        now_pc = perf_counter()
        if retry_heap and inflight < self.workers:
            # a due retry is only actionable once a lane is free; with
            # every lane busy the next interesting event is a completion
            due = retry_heap[0][0] - now_pc
            timeout = due if timeout is None else min(timeout, due)
        if self.unit_timeout_s is not None:
            pending = [
                stamp
                for node, stamp in dispatched_at.items()
                if node not in marked
            ]
            if pending:
                overdue = min(pending) + self.unit_timeout_s - now_pc
                timeout = (
                    overdue if timeout is None else min(timeout, overdue)
                )
        if timeout is None:
            return completions.get()
        if timeout <= 0:
            return None
        try:
            return completions.get(timeout=timeout)
        except queue.Empty:
            return None
