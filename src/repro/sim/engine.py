"""Discrete-event scheduling simulator.

Plays one :class:`~repro.tasks.trace.JobTrace` against one
:class:`~repro.schedulers.base.Scheduler` on ``P`` processors.
:func:`simulate` sequences the phases of a ``_SimRun``, named like the
live executor's (DESIGN.md §5)::

    prepare → bootstrap → { dispatch → done? → await → settle } → finish

Every pick is validated against the ground-truth
:class:`~repro.tasks.activation.ActivationState` (:func:`mark_selected`,
shared with the live executor): releasing a task before its activated
ancestors finish aborts the run. Completions deliver realized change
signals, revealing the active graph ``H`` incrementally (Section II-A).
``_charge`` books each hook's ops on ``activate_ops``, ``ready_scan_ops``
or ``complete_ops`` and charges their modelled time inline (see
:class:`~repro.sim.overhead.OverheadModel`), so makespans include
scheduling overhead exactly as Tables II/III report them.

Malleable tasks are supported with dynamic processor re-allotment:
leftover idle processors join running malleable tasks, and remaining
work is re-rated — the divisible-load model under which Lemma 5's
``w/P + L`` bound is exact.

Fault tolerance
---------------
``simulate(..., faults=FaultPlan(...))`` threads a deterministic fault
layer through the same event heap (see :mod:`repro.sim.faults`):
injected attempt failures push *failure* events instead of completions,
failed tasks are requeued through :meth:`Scheduler.on_failure` after a
capped exponential sim-time backoff, processor churn shrinks and grows
capacity mid-run (killing running attempts for requeue), and stragglers
run inflated durations. Every injected event lands in the
:class:`~repro.sim.faults.FaultLog` on the result. A no-progress
watchdog and an optional wall-clock ``deadline`` turn unbounded retry
loops into structured errors instead of hangs. With no plan (or an
empty one) the fault layer is inert and the engine's behavior — down to
event ordering and float arithmetic — is unchanged.
"""

from __future__ import annotations

import heapq
import time as _time
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from ..obs.trace import NULL_SINK, PID_SIM, TraceSink
from ..schedulers.base import ReadinessOracle, Scheduler, SchedulerContext
from ..tasks.activation import ActivationState
from ..tasks.model import ExecutionModel, max_useful_processors
from ..tasks.trace import JobTrace
from .faults import (
    DeadlineExceededError,
    FaultInjector,
    FaultLog,
    FaultPlan,
    NoProgressError,
    TaskFailedPermanentlyError,
    check_round_limits,
)
from .overhead import OverheadModel
from .result import DispatchRecord, SimulationResult

__all__ = [
    "simulate",
    "SchedulerStallError",
    "InvalidDispatchError",
    "mark_selected",
    "all_done_or_stall",
]


class SchedulerStallError(RuntimeError):
    """Scheduler found no work while tasks remain and nothing runs."""


class InvalidDispatchError(RuntimeError):
    """Scheduler released a task that is not ground-truth ready."""


def mark_selected(
    state: ActivationState, scheduler: Scheduler, chosen: Sequence[int],
    idle: int,
) -> None:
    """Mark one ``select``'s picks dispatched, or raise
    :class:`InvalidDispatchError`: more picks than ``idle`` processors,
    or a pick that is not ready."""
    if len(chosen) > idle:
        raise InvalidDispatchError(
            f"{scheduler.name} returned {len(chosen)} tasks for "
            f"{idle} idle workers"
        )
    for v in chosen:
        try:
            state.mark_dispatched(v)
        except RuntimeError as exc:
            raise InvalidDispatchError(
                f"{scheduler.name} dispatched task {v} illegally: {exc}"
            ) from exc


def all_done_or_stall(
    state: ActivationState, scheduler: Scheduler, trace_name: str,
    waiting: bool,
) -> bool:
    """Nothing runs: ``True`` once every task settled, ``False`` while
    something is ``waiting`` to arrive, else :class:`SchedulerStallError`."""
    if state.all_done():
        return True
    if waiting:
        return False
    raise SchedulerStallError(
        f"{scheduler.name} stalled on {trace_name}: "
        f"{state.pending_count()} task(s) pending, none running, "
        "none selected"
    )


# the models the event loop compares against several times per task, as
# plain ints: an enum member read goes through ``EnumType.__getattr__``
_UNIT = int(ExecutionModel.UNIT)
_MALLEABLE = int(ExecutionModel.MALLEABLE)

# event kinds on the heap; completions sort first only via (time, seq).
# A completion or failure ends one attempt version and goes stale when
# the version is superseded; the kinds above _EV_FAIL never do
_EV_COMPLETE = 0
_EV_FAIL = 1
_EV_RETRY = 2
_EV_PROC_FAIL = 3
_EV_PROC_RECOVER = 4

#: heap compaction threshold: when the heap holds more than this many
#: entries and over 4x the live-event count, superseded (stale-version)
#: entries are dropped eagerly instead of waiting to be popped
_HEAP_COMPACT_MIN = 64


@dataclass(slots=True)
class _Running:
    node: int
    model: int
    alloc: int
    start: float
    span_end: float  # earliest legal finish (start + span)
    work_remaining: float
    last_update: float
    version: int = 0
    #: fault layer: this attempt is doomed to fail
    failing: bool = False
    #: malleable failing attempt dies when work_remaining hits this
    fail_threshold: float = 0.0

    def finish_estimate(self, now: float) -> float:
        if self.model == _MALLEABLE:
            rem = self.work_remaining - self.alloc * (now - self.last_update)
            rem = max(rem, 0.0)
            return max(self.span_end, now + rem / self.alloc)
        return self.span_end  # sequential/unit: span_end holds the finish

    def fail_estimate(self, now: float) -> float:
        """When this (malleable, failing) attempt hits its fail point."""
        rem = self.work_remaining - self.alloc * (now - self.last_update)
        to_fail = max(rem - self.fail_threshold, 0.0)
        return now + to_fail / self.alloc

    def advance_to(self, now: float) -> None:
        """Advance a malleable task's remaining work to ``now``."""
        if self.model == _MALLEABLE:
            self.work_remaining = max(
                0.0, self.work_remaining - self.alloc * (now - self.last_update)
            )
            self.last_update = now


#: the kill order among shrinkable malleable attempts
_WIDEST = attrgetter("alloc", "node")


def simulate(
    trace: JobTrace,
    scheduler: Scheduler,
    processors: int = 8,
    overhead: OverheadModel | None = None,
    record_schedule: bool = False,
    reallot: bool = True,
    strict: bool = False,
    faults: FaultPlan | None = None,
    deadline: float | None = None,
    watchdog: int | None = None,
    sink: TraceSink = NULL_SINK,
) -> SimulationResult:
    """Run ``scheduler`` on ``trace`` with ``processors`` cores.

    Returns a :class:`SimulationResult`. Raises
    :class:`InvalidDispatchError` / :class:`SchedulerStallError` on
    scheduler misbehavior — these are correctness checks, not expected
    outcomes — and ``ValueError`` for a limit no run can honour.

    ``strict=True`` additionally replays the finished run through
    :func:`repro.verify.check_invariants` (precedence, exactly-once,
    capacity, durations, and the paper's makespan bounds — fault-aware
    when a plan injected anything) and raises
    :class:`repro.verify.InvariantViolationError` on any violation.
    Strict mode implies schedule recording; the records are returned on
    the result either way.

    ``faults`` switches on the deterministic fault layer
    (:mod:`repro.sim.faults`). ``deadline`` is a *wall-clock* budget in
    seconds; exceeding it raises
    :class:`~repro.sim.faults.DeadlineExceededError`. ``watchdog``
    bounds the number of consecutive simulation events without a task
    completing (default: automatic when faults are active); exceeding
    it raises :class:`~repro.sim.faults.NoProgressError` instead of
    looping forever on an unbounded retry chain.

    ``sink`` — a recording :class:`~repro.obs.TraceSink` captures the
    run on the *simulation* clock (Chrome-trace pid
    :data:`~repro.obs.PID_SIM`): one lane per processor with a span per
    task attempt, fault spans for failed attempts, instant markers for
    retries, quarantines, and processor churn, and a ``sim-run`` span
    with the run's totals, per-hook ops and the event heap's peak
    length (``peak_event_heap``). All instrumentation is
    gated on ``sink.enabled``, so the default no-op sink leaves the
    engine's behavior — including event ordering and float arithmetic —
    byte-identical.
    """
    check_round_limits(
        "processors", processors, watchdog=watchdog, deadline=deadline
    )
    run = _SimRun(
        trace, scheduler, processors, overhead or OverheadModel(),
        record_schedule or strict, reallot, faults, deadline, watchdog, sink,
    )
    run._prepare()
    run._bootstrap()
    while True:
        run._dispatch()
        if run._done():
            break
        run._settle(run._await())
    result = run._finish()
    if strict:
        # imported here: verify sits above sim in the layering
        from ..verify.invariants import (
            InvariantViolationError,
            check_invariants,
        )

        report = check_invariants(trace, result, reallot=reallot)
        if not report.ok:
            raise InvariantViolationError(report)
    return result


class _SimRun:
    """One :func:`simulate` call: its state and its phases. ``t`` is the
    simulation clock."""

    # slotted: past 30 attributes an instance dict stops sharing its
    # keys, and every attribute read in the event loop goes unspecialized
    __slots__ = (
        "trace", "scheduler", "processors", "overhead", "charge_inline",
        "record_schedule", "reallot", "sink", "tracing", "state", "oracle",
        "work", "span", "models", "malleable", "t", "charged_overhead",
        "hook_ops", "capacity", "idle", "busy_proc_seconds", "total_work_done",
        "tasks_executed", "select_calls", "schedule", "running",
        "event_heap", "seq", "peak_heap", "free_lanes", "lane_of", "faults",
        "injector", "fault_log", "fault_live", "attempts", "failures",
        "ver_base", "churn", "churn_downtimes", "churn_clock", "deadline",
        "wall_start", "watchdog", "events_since_progress",
    )

    def __init__(
        self, trace: JobTrace, scheduler: Scheduler, processors: int,
        overhead: OverheadModel, record_schedule: bool, reallot: bool,
        faults: FaultPlan | None, deadline: float | None,
        watchdog: int | None, sink: TraceSink,
    ) -> None:
        self.trace, self.scheduler, self.processors = (
            trace, scheduler, processors
        )
        self.overhead, self.charge_inline = overhead, overhead.charge_inline
        self.record_schedule, self.reallot = record_schedule, reallot
        self.sink, self.tracing = sink, sink.enabled
        self.state = trace.fresh_activation_state()
        self.oracle = ReadinessOracle(self.state.is_ready)
        self.work, self.span, self.models = trace.node_lists
        #: some task is malleable: without one, neither the allotment of
        #: spare processors nor their re-allotment has anything to do
        self.malleable = _MALLEABLE in self.models
        self.t = self.charged_overhead = 0.0
        #: the scheduler's ops per hook counter, booked by :meth:`_charge`
        self.hook_ops = dict.fromkeys(
            ("activate_ops", "ready_scan_ops", "complete_ops"), 0
        )
        self.capacity = self.idle = processors
        self.busy_proc_seconds = self.total_work_done = 0.0
        self.tasks_executed = self.select_calls = 0
        self.schedule: list[DispatchRecord] = []
        self.running: dict[int, _Running] = {}
        # (time, seq, kind, node, version); (time, seq) is a total order
        self.event_heap: list[tuple[float, int, int, int, int]] = []
        self.seq = self.peak_heap = 0
        # sim-clock visualization lanes: one per processor, lowest free
        # lane per dispatched attempt (tracing only — never touches `t`)
        self.free_lanes = list(range(processors)) if self.tracing else []
        self.lane_of: dict[int, int] = {}

        # the fault layer: inert (no injector) on a fault-free run
        self.faults = faults
        self.injector = (
            FaultInjector(faults)
            if faults is not None and not faults.is_empty()
            else None
        )
        self.fault_log = FaultLog()
        #: pending retry/churn events (always live, never superseded)
        self.fault_live = 0
        self.attempts: dict[int, int] = {}
        self.failures: dict[int, int] = {}
        # per-node floor for event versions: a re-dispatched attempt must
        # not match stale completion/failure events of a killed predecessor
        self.ver_base: dict[int, int] = {}
        self.churn = (
            iter(()) if self.injector is None
            else self.injector.churn_timeline()
        )
        self.churn_downtimes: deque[float] = deque()
        self.churn_clock = 0.0
        self.deadline = deadline
        self.wall_start = _time.monotonic() if deadline is not None else 0.0
        if watchdog is None and self.injector is not None:
            watchdog = max(10_000, 20 * trace.dag.n_nodes)
        self.watchdog = watchdog
        self.events_since_progress = 0

    # -- phases, in the order :func:`simulate` sequences them --
    def _prepare(self) -> None:
        """Reset and bind the scheduler, then its ``prepare`` hook."""
        scheduler, oracle = self.scheduler, self.oracle
        scheduler.reset_counters()
        scheduler.bind_oracle(oracle)
        scheduler.bind_sink(self.sink)
        scheduler.prepare(
            SchedulerContext(
                trace=self.trace, processors=self.processors, oracle=oracle
            )
        )

    def _bootstrap(self) -> None:
        """Arm processor churn, reveal the update, and announce its
        activations at t=0."""
        if self.injector is not None and self.injector.plan.proc_fail_rate > 0:
            self._arm_churn()
        dispatchable, activated = self.state.bootstrap()
        self.oracle.push_ready_events(dispatchable)
        scheduler, t = self.scheduler, self.t
        ops0 = scheduler.ops
        for v in activated:
            scheduler.on_activate(v, t)
        self._charge("activate_ops", ops0)

    def _dispatch(self) -> None:
        """Ask the scheduler while processors idle and it selects, start
        its picks, then re-allot what is left to malleable attempts."""
        scheduler, work, span, models = (
            self.scheduler, self.work, self.span, self.models
        )
        while self.idle > 0:
            idle = self.idle
            ops0 = scheduler.ops
            chosen = scheduler.select(idle, self.t)
            self.select_calls += 1
            self._charge("ready_scan_ops", ops0)
            if not chosen:
                break
            mark_selected(self.state, scheduler, chosen, idle)
            # first pass: one processor each; extras go to malleable tasks
            allocs = dict.fromkeys(chosen, 1)
            spare = idle - len(chosen)
            mall = (
                [v for v in chosen if models[v] == _MALLEABLE]
                if spare and self.malleable
                else ()
            )
            while spare > 0 and mall:
                progressed = False
                for v in mall:
                    if spare <= 0:
                        break
                    cap = max_useful_processors(work[v], span[v], models[v])
                    if allocs[v] < cap:
                        allocs[v] += 1
                        spare -= 1
                        progressed = True
                if not progressed:
                    break
            for v in chosen:
                self._start(v, allocs[v])
        if self.reallot and self.malleable and self.idle > 0:
            self._reallot_idle()

    def _done(self) -> bool:
        """Nothing runs or waits to: the run is over, or stalled."""
        if self.running:
            return False
        return all_done_or_stall(
            self.state, self.scheduler, self.trace.name, self.fault_live > 0
        )

    def _await(self) -> tuple[float, int, int, int, int]:
        """Pop the next live event off the heap and move the clock to it.
        The deadline and the watchdog are checked here."""
        if self.deadline is not None and (
            _time.monotonic() - self.wall_start > self.deadline
        ):
            raise DeadlineExceededError(
                self.deadline, self.t, self.state.pending_count()
            )
        # not empty: each running attempt and each waiting fault event
        # has its live entry, and _done saw one of them
        heap, running = self.event_heap, self.running
        while True:
            event = heapq.heappop(heap)
            etime, _, kind, node, ver = event
            if kind > _EV_FAIL:
                break
            rec = running.get(node)
            if rec is not None and rec.version == ver:
                break  # else a superseded version
        if etime > self.t:
            self.t = etime
        if self.watchdog is not None:
            self.events_since_progress += 1
            if self.events_since_progress > self.watchdog:
                raise NoProgressError(
                    self.events_since_progress, self.state.pending_count(),
                    self.t,
                )
        return event

    def _settle(self, event: tuple[float, int, int, int, int]) -> None:
        """Take in one event through its kind's method."""
        _, _, kind, node, _ = event
        if kind == _EV_COMPLETE:
            self._settle_complete(node, self.running.pop(node))
            return
        if kind == _EV_FAIL:
            self._settle_fail(node, self.running.pop(node))
            return
        self.fault_live -= 1
        if kind == _EV_RETRY:
            self._settle_retry(node)
        elif kind == _EV_PROC_FAIL:
            self._settle_proc_fail()
        else:
            self._settle_proc_recover()

    def _finish(self) -> SimulationResult:
        """The ``sim-run`` span and the result."""
        scheduler, trace, processors = (
            self.scheduler, self.trace, self.processors
        )
        makespan, charged = self.t, self.charged_overhead
        if self.tracing:
            self.sink.record_span(
                f"simulate:{trace.name}", "sim-run", 0.0, makespan,
                tid=processors, pid=PID_SIM,
                args={
                    "scheduler": scheduler.name,
                    "processors": processors,
                    "tasks_executed": self.tasks_executed,
                    "scheduler_ops": scheduler.ops,
                    **self.hook_ops,
                    "precompute_ops": scheduler.precompute_ops,
                    "select_calls": self.select_calls,
                    "charged_overhead": charged,
                    "peak_event_heap": self.peak_heap,
                },
            )
        exec_makespan = max(
            0.0, makespan - (charged if self.charge_inline else 0.0)
        )
        util = (
            self.busy_proc_seconds / (processors * exec_makespan)
            if exec_makespan > 0
            else 1.0
        )
        extras: dict = {"select_calls": self.select_calls}
        if self.injector is not None and True in self.state.quarantined:
            # The full partial-completion set: every ground-truth-active
            # task that did not run. This is a superset of the nodes in
            # the log's quarantine events — suppression can also
            # materialize *later*, when a normal completion resolves a
            # node whose only change signal would have arrived through
            # the quarantined task.
            suppressed_all = np.flatnonzero(
                trace.propagation.executed
                & ~np.array(self.state.executed, dtype=bool)
            )
            extras["quarantined_nodes"] = [int(v) for v in suppressed_all]
        return SimulationResult(
            scheduler_name=scheduler.name,
            trace_name=trace.name,
            processors=processors,
            makespan=makespan,
            execution_makespan=exec_makespan,
            scheduling_overhead=charged,
            scheduling_ops=scheduler.ops,
            precompute_ops=scheduler.precompute_ops,
            precompute_memory_cells=scheduler.precompute_memory_cells,
            runtime_peak_memory_cells=scheduler.runtime_peak_memory_cells,
            tasks_executed=self.tasks_executed,
            total_work=self.total_work_done,
            utilization=min(util, 1.0),
            schedule=self.schedule,
            extras=extras,
            fault_log=self.fault_log.events,
        )

    # -- one method per event kind, called by :meth:`_settle` --
    def _settle_complete(self, node: int, rec: _Running) -> None:
        """Free the attempt's processors, record it, reveal its change
        signals and run the hooks."""
        t = self.t
        self.events_since_progress = 0
        self.idle += rec.alloc
        self.busy_proc_seconds += (t - rec.start) * rec.alloc
        self.tasks_executed += 1
        self.total_work_done += self.work[node]
        if self.tracing:
            self._trace_attempt("sim-task", rec)
        if self.record_schedule:
            self.schedule.append(
                DispatchRecord(
                    node=node, start=rec.start, finish=t, processors=rec.alloc
                )
            )
        dispatchable, activated = self.state.complete(node)
        self.oracle.push_ready_events(dispatchable)
        scheduler = self.scheduler
        ops0 = scheduler.ops
        for v in activated:
            scheduler.on_activate(v, t)
        scheduler.on_complete(node, t)
        self._charge("complete_ops", ops0)

    def _settle_fail(self, node: int, rec: _Running) -> None:
        """Book the failed attempt's lost time, then retry the task after
        its backoff — or, its budget spent, raise or quarantine it."""
        t, faults, injector = self.t, self.faults, self.injector
        assert faults is not None and injector is not None
        if self.tracing:
            self._trace_attempt("sim-fault", rec, failed=True)
        self.ver_base[node] = rec.version + 1
        self.idle += rec.alloc
        lost = (t - rec.start) * rec.alloc
        self.busy_proc_seconds += lost
        nfail = self.failures[node] = self.failures.get(node, 0) + 1
        attempt = self.attempts[node]
        retry = {} if injector.exhausted(nfail) else {
            "backoff": faults.backoff_delay(nfail)
        }
        self.fault_log.record(
            "task-fail", t, node, attempt,
            start=rec.start, alloc=rec.alloc, lost=lost, **retry,
        )
        if retry:
            self._push_fault(t + retry["backoff"], _EV_RETRY, node)
        elif faults.on_exhaustion == "raise":
            raise TaskFailedPermanentlyError(node, attempt, t)
        else:
            self._quarantine(node)
            self.events_since_progress = 0  # a task settled: progress

    def _settle_retry(self, node: int) -> None:
        """A failed or killed task is dispatchable again; the scheduler
        hears so through ``on_failure``."""
        t = self.t
        self.state.clear_dispatch(node)
        attempt = self.attempts.get(node, 0) + 1
        self.fault_log.record("task-retry", t, node, attempt)
        self.oracle.push_ready_events([node])
        if self.tracing:
            self._instant("retry", node=node, attempt=attempt)
        ops0 = self.scheduler.ops
        self.scheduler.on_failure(node, t)
        self._charge("complete_ops", ops0)

    def _settle_proc_fail(self) -> None:
        """Arm the next processor failure, then — unless the floor blocks
        it — lose an idle processor, or one under a running attempt."""
        t, faults = self.t, self.faults
        assert faults is not None
        downtime = self.churn_downtimes.popleft()
        self._arm_churn()
        if self.tracing:
            self._instant(
                "proc-fail", capacity=self.capacity, downtime=downtime
            )
        applied = self.capacity > min(faults.min_processors, self.processors)
        self.fault_log.record(
            "proc-fail", t, applied=float(applied), downtime=downtime
        )
        if not applied:
            return
        self.capacity -= 1
        self._push_fault(t + downtime, _EV_PROC_RECOVER, -1)
        if self.idle > 0:
            self.idle -= 1
        else:
            self._kill_victim()

    def _settle_proc_recover(self) -> None:
        """A failed processor is back."""
        self.capacity += 1
        self.idle += 1
        if self.tracing:
            self._instant("proc-recover", capacity=self.capacity)
        self.fault_log.record("proc-recover", self.t, applied=1.0)

    # -- what the phases share --
    def _charge(self, counter: str, ops0: int) -> None:
        """Book the hooks run since ``ops0``: their ops on ``counter``,
        their modelled time as overhead (on the clock too, inline)."""
        ops = self.scheduler.ops - ops0
        self.hook_ops[counter] += ops
        cost = self.overhead.time_for(ops)
        self.charged_overhead += cost
        if self.charge_inline:
            self.t += cost

    def _start(self, node: int, alloc: int) -> None:
        """Start ``node``'s next attempt on ``alloc`` processors and push
        the event that ends it, as the fault layer decides it."""
        now = self.t
        self.idle -= alloc
        att = self.attempts[node] = self.attempts.get(node, 0) + 1
        inflation = 1.0
        outcome = None
        if self.injector is not None:
            outcome = self.injector.attempt_outcome(node, att)
            inflation = outcome.inflation
            if inflation != 1.0:
                self.fault_log.record(
                    "straggler", now, node, att, factor=inflation
                )
        m = self.models[node]
        if m == _MALLEABLE:
            total = self.work[node] * inflation
            span_end = now + self.span[node] * inflation
        else:
            dur = (1.0 if m == _UNIT else self.work[node]) * inflation
            total, span_end = 0.0, now + dur
        version = self.ver_base.get(node, 0)
        # running first: a compaction the push triggers keeps its event
        rec = self.running[node] = _Running(
            node, m, alloc, now, span_end, total, now, version
        )
        if outcome is None or not outcome.fails:
            end = rec.finish_estimate(now) if m == _MALLEABLE else span_end
            self._push(end, _EV_COMPLETE, node, version)
        else:
            rec.failing = True
            if m == _MALLEABLE:
                rec.fail_threshold = total * (1.0 - outcome.fail_fraction)
                end = rec.fail_estimate(now)
            else:
                end = now + dur * outcome.fail_fraction
            self._push(end, _EV_FAIL, node, version)
        if self.tracing:
            free = self.free_lanes
            self.lane_of[node] = (
                heapq.heappop(free) if free else self.processors
            )

    def _reallot_idle(self) -> None:
        """Give leftover idle processors to running malleable tasks."""
        now, idle = self.t, self.idle
        grew = True
        while idle > 0 and grew:
            grew = False
            for rec in self.running.values():
                if idle <= 0:
                    break
                if rec.model != _MALLEABLE:
                    continue
                rec.advance_to(now)
                cap = max_useful_processors(
                    rec.work_remaining, max(0.0, rec.span_end - now), rec.model
                )
                if rec.alloc < cap:
                    rec.alloc += 1
                    rec.version += 1
                    idle -= 1
                    grew = True
                    self._push_rec(rec)
        self.idle = idle

    def _push(self, etime: float, kind: int, node: int, ver: int) -> None:
        heap = self.event_heap
        heapq.heappush(heap, (etime, self.seq, kind, node, ver))
        self.seq += 1
        n = len(heap)
        if n > self.peak_heap:
            self.peak_heap = n
        if n > _HEAP_COMPACT_MIN and n > 4 * (
            len(self.running) + self.fault_live
        ):
            self._compact_heap()

    def _push_rec(self, rec: _Running) -> None:
        """Re-push a running attempt's end after its allotment changed."""
        now = self.t
        if rec.failing:
            self._push(rec.fail_estimate(now), _EV_FAIL, rec.node, rec.version)
        else:
            self._push(
                rec.finish_estimate(now), _EV_COMPLETE, rec.node, rec.version
            )

    def _push_fault(self, etime: float, kind: int, node: int) -> None:
        """Push a retry or churn event, which nothing supersedes."""
        self._push(etime, kind, node, 0)
        self.fault_live += 1

    def _compact_heap(self) -> None:
        """Drop superseded completion/failure events eagerly."""
        running = self.running
        keep = [
            ev for ev in self.event_heap
            if ev[2] > _EV_FAIL
            or (rec := running.get(ev[3])) is not None and rec.version == ev[4]
        ]
        heapq.heapify(keep)
        self.event_heap[:] = keep

    def _trace_attempt(self, cat: str, rec: _Running, **args: bool) -> None:
        """The ``task:<node>`` span of an attempt that just ended; its
        lane is free again."""
        node, processors = rec.node, self.processors
        lane = self.lane_of.pop(node, processors)
        if lane < processors:
            heapq.heappush(self.free_lanes, lane)
        self.sink.record_span(
            f"task:{node}", cat, rec.start, self.t, tid=lane, pid=PID_SIM,
            args={"node": node, "alloc": rec.alloc, **args},
        )

    def _instant(self, name: str, **args: float) -> None:
        self.sink.record_instant(
            name, t=self.t, tid=self.processors, pid=PID_SIM, args=args
        )

    # -- the fault layer's own (never called on a fault-free run) --
    def _arm_churn(self) -> None:
        """Push the next processor failure of the churn timeline."""
        nxt = next(self.churn, None)
        if nxt is None:
            return
        gap, downtime = nxt
        self.churn_clock += gap
        self.churn_downtimes.append(downtime)
        self._push_fault(self.churn_clock, _EV_PROC_FAIL, -1)

    def _quarantine(self, node: int) -> None:
        """Degrade mode: resolve ``node`` without running it."""
        t, log = self.t, self.fault_log
        dispatchable, suppressed = self.state.fail_permanently(node)
        if self.tracing:
            self._instant("quarantine", node=node)
        log.record("quarantine", t, node, self.attempts.get(node, 0))
        prop_executed = self.trace.propagation.executed
        for v in suppressed:
            if bool(prop_executed[v]):
                log.record("quarantine", t, v)
        self.oracle.push_ready_events(dispatchable)
        # the scheduler is told the task is settled (its output is
        # permanently stale); pure descendants were never activated, so
        # no scheduler queue can hold them
        ops0 = self.scheduler.ops
        self.scheduler.on_complete(node, t)
        self._charge("complete_ops", ops0)

    def _kill_victim(self) -> None:
        """A processor died under a running attempt: shrink or evict."""
        t, running = self.t, self.running
        shrinkable = [
            r for r in running.values() if r.model == _MALLEABLE and r.alloc > 1
        ]
        if shrinkable:
            rec = max(shrinkable, key=_WIDEST)
            rec.advance_to(t)
            rec.alloc -= 1
            rec.version += 1
            self._push_rec(rec)
            return
        node = max(running)
        rec = running.pop(node)
        if self.tracing:
            self._trace_attempt("sim-kill", rec, killed=True)
        self.ver_base[node] = rec.version + 1
        self.idle += rec.alloc - 1  # one core died; the rest return to the pool
        att = self.attempts[node]
        self.attempts[node] = att - 1  # churn kills do not consume the budget
        self.fault_log.record(
            "proc-kill", t, node, att,
            start=rec.start, alloc=rec.alloc, lost=(t - rec.start) * rec.alloc,
        )
        self._push_fault(t, _EV_RETRY, node)
