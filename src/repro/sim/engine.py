"""Discrete-event scheduling simulator.

Plays one :class:`~repro.tasks.trace.JobTrace` against one
:class:`~repro.schedulers.base.Scheduler` on ``P`` processors:

1. The update dirties the initial tasks; the engine notifies the
   scheduler of every activation and asks it for dispatchable work
   whenever processors are idle.
2. Every dispatch is validated against the ground-truth
   :class:`~repro.tasks.activation.ActivationState` — a scheduler that
   releases a task before its activated ancestors finish aborts the run.
3. Completions deliver realized change signals, revealing the active
   graph ``H`` to the scheduler incrementally (Section II-A's
   "dynamically revealed over time").
4. Scheduler operations are charged inline (see
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
from dataclasses import dataclass

import numpy as np

from ..obs.trace import NULL_SINK, PID_SIM, TraceSink
from ..schedulers.base import ReadinessOracle, Scheduler, SchedulerContext
from ..tasks.model import ExecutionModel, max_useful_processors
from ..tasks.trace import JobTrace
from .faults import (
    DeadlineExceededError,
    FaultInjector,
    FaultLog,
    FaultPlan,
    NoProgressError,
    TaskFailedPermanentlyError,
)
from .overhead import OverheadModel
from .result import DispatchRecord, SimulationResult

__all__ = [
    "simulate",
    "SchedulerStallError",
    "InvalidDispatchError",
]


class SchedulerStallError(RuntimeError):
    """Scheduler found no work while tasks remain and nothing runs."""


class InvalidDispatchError(RuntimeError):
    """Scheduler released a task that is not ground-truth ready."""


# the models the event loop compares against several times per task, as
# plain ints: an enum member read goes through ``EnumType.__getattr__``
_UNIT = int(ExecutionModel.UNIT)
_MALLEABLE = int(ExecutionModel.MALLEABLE)

# event kinds on the heap; completions sort first only via (time, seq)
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
    debug_stats: dict | None = None,
    sink: TraceSink = NULL_SINK,
) -> SimulationResult:
    """Run ``scheduler`` on ``trace`` with ``processors`` cores.

    Returns a :class:`SimulationResult`. Raises
    :class:`InvalidDispatchError` / :class:`SchedulerStallError` on
    scheduler misbehavior — these are correctness checks, not expected
    outcomes.

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

    ``debug_stats``, when a dict, receives engine internals after the
    run (currently ``peak_event_heap``) — used by regression tests.

    ``sink`` — a recording :class:`~repro.obs.TraceSink` captures the
    run on the *simulation* clock (Chrome-trace pid
    :data:`~repro.obs.PID_SIM`): one lane per processor with a span per
    task attempt, fault spans for failed attempts, and instant markers
    for retries, quarantines, and processor churn. All instrumentation
    is gated on ``sink.enabled``, so the default no-op sink leaves the
    engine's behavior — including event ordering and float arithmetic —
    byte-identical.
    """
    if processors <= 0:
        raise ValueError(f"processors must be positive, got {processors}")
    record_schedule = record_schedule or strict
    overhead = overhead or OverheadModel()

    injector: FaultInjector | None = None
    if faults is not None and not faults.is_empty():
        injector = FaultInjector(faults)
    fault_log = FaultLog()

    state = trace.fresh_activation_state()
    scheduler.reset_counters()
    oracle = ReadinessOracle(state.is_ready)
    scheduler.bind_oracle(oracle)
    scheduler.bind_sink(sink)
    tracing = sink.enabled
    # sim-clock visualization lanes: one per processor, lowest free
    # lane per dispatched attempt (tracing only — never touches `t`)
    free_lanes: list[int] = list(range(processors)) if tracing else []
    lane_of: dict[int, int] = {}

    def _take_lane(node: int) -> None:
        lane_of[node] = (
            heapq.heappop(free_lanes) if free_lanes else processors
        )

    def _drop_lane(node: int) -> int:
        lane = lane_of.pop(node, processors)
        if lane < processors:
            heapq.heappush(free_lanes, lane)
        return lane
    ctx = SchedulerContext(
        trace=trace,
        processors=processors,
        oracle=oracle,
    )
    scheduler.prepare(ctx)

    work, span, models = trace.node_lists

    t = 0.0
    charged_overhead = 0.0
    capacity = processors
    idle = processors
    busy_proc_seconds = 0.0
    tasks_executed = 0
    total_work_done = 0.0
    select_calls = 0
    schedule: list[DispatchRecord] = []

    running: dict[int, _Running] = {}
    # (time, seq, kind, node, version); (time, seq) is a total order
    event_heap: list[tuple[float, int, int, int, int]] = []
    seq = 0
    peak_heap = 0
    #: pending retry/churn events (always live, never superseded)
    fault_live = 0

    attempts: dict[int, int] = {}
    failures: dict[int, int] = {}
    quarantined: list[int] = []
    # per-node floor for event versions: a re-dispatched attempt must
    # not match stale completion/failure events of a killed predecessor
    ver_base: dict[int, int] = {}

    watchdog_limit = watchdog
    if watchdog_limit is None and injector is not None:
        watchdog_limit = max(10_000, 20 * trace.dag.n_nodes)
    events_since_progress = 0
    wall_start = _time.monotonic() if deadline is not None else 0.0

    def _compact_heap() -> None:
        """Drop superseded completion/failure events eagerly."""
        keep = []
        for ev in event_heap:
            if ev[2] in (_EV_COMPLETE, _EV_FAIL):
                rec = running.get(ev[3])
                if rec is None or rec.version != ev[4]:
                    continue
            keep.append(ev)
        event_heap[:] = keep
        heapq.heapify(event_heap)

    def push_event(etime: float, kind: int, node: int, ver: int) -> None:
        nonlocal seq, peak_heap
        heapq.heappush(event_heap, (etime, seq, kind, node, ver))
        seq += 1
        if len(event_heap) > peak_heap:
            peak_heap = len(event_heap)
        if len(event_heap) > _HEAP_COMPACT_MIN and len(event_heap) > 4 * (
            len(running) + fault_live
        ):
            _compact_heap()

    def push_rec_event(rec: _Running, now: float) -> None:
        if rec.failing:
            push_event(rec.fail_estimate(now), _EV_FAIL, rec.node, rec.version)
        else:
            push_event(
                rec.finish_estimate(now), _EV_COMPLETE, rec.node, rec.version
            )

    def charge(ops_delta: int) -> None:
        nonlocal t, charged_overhead
        cost = overhead.time_for(ops_delta)
        charged_overhead += cost
        if overhead.charge_inline:
            t += cost

    def update_malleable(rec: _Running, now: float) -> None:
        """Advance a malleable task's remaining work to ``now``."""
        if rec.model == _MALLEABLE:
            rec.work_remaining = max(
                0.0, rec.work_remaining - rec.alloc * (now - rec.last_update)
            )
            rec.last_update = now

    def dispatch(node: int, alloc: int, now: float) -> None:
        nonlocal idle
        try:
            state.mark_dispatched(node)
        except RuntimeError as exc:
            raise InvalidDispatchError(
                f"{scheduler.name} dispatched task {node} illegally: {exc}"
            ) from exc
        idle -= alloc
        att = attempts.get(node, 0) + 1
        attempts[node] = att
        inflation = 1.0
        outcome = None
        if injector is not None:
            outcome = injector.attempt_outcome(node, att)
            inflation = outcome.inflation
            if inflation != 1.0:
                fault_log.record(
                    "straggler", now, node, att, factor=inflation
                )
        m = models[node]
        if m == _MALLEABLE:
            total_w = work[node] * inflation
            rec = _Running(
                node=node,
                model=m,
                alloc=alloc,
                start=now,
                span_end=now + span[node] * inflation,
                work_remaining=total_w,
                last_update=now,
                version=ver_base.get(node, 0),
            )
            if outcome is not None and outcome.fails:
                rec.failing = True
                rec.fail_threshold = total_w * (1.0 - outcome.fail_fraction)
                push_event(rec.fail_estimate(now), _EV_FAIL, node, rec.version)
            else:
                push_event(rec.finish_estimate(now), _EV_COMPLETE, node,
                           rec.version)
        else:
            dur = 1.0 if m == _UNIT else work[node]
            dur *= inflation
            rec = _Running(
                node=node,
                model=m,
                alloc=alloc,
                start=now,
                span_end=now + dur,
                work_remaining=0.0,
                last_update=now,
                version=ver_base.get(node, 0),
            )
            if outcome is not None and outcome.fails:
                rec.failing = True
                push_event(
                    now + dur * outcome.fail_fraction, _EV_FAIL, node,
                    rec.version,
                )
            else:
                push_event(rec.span_end, _EV_COMPLETE, node, rec.version)
        running[node] = rec
        if tracing:
            _take_lane(node)

    def reallot_idle(now: float) -> None:
        """Give leftover idle processors to running malleable tasks."""
        nonlocal idle
        if idle <= 0:
            return
        grew = True
        while idle > 0 and grew:
            grew = False
            for rec in running.values():
                if idle <= 0:
                    break
                if rec.model != _MALLEABLE:
                    continue
                update_malleable(rec, now)
                cap = max_useful_processors(
                    rec.work_remaining, max(0.0, rec.span_end - now), rec.model
                )
                if rec.alloc < cap:
                    rec.alloc += 1
                    rec.version += 1
                    idle -= 1
                    grew = True
                    push_rec_event(rec, now)

    # ------------------------------------------------------------------
    # fault-layer helpers (never invoked on a fault-free run)
    # ------------------------------------------------------------------
    churn_iter = iter(()) if injector is None else injector.churn_timeline()
    churn_downtimes: deque[float] = deque()
    churn_clock = 0.0

    def schedule_next_proc_failure() -> None:
        nonlocal churn_clock, fault_live
        nxt = next(churn_iter, None)
        if nxt is None:
            return
        gap, downtime = nxt
        churn_clock += gap
        churn_downtimes.append(downtime)
        push_event(churn_clock, _EV_PROC_FAIL, -1, 0)
        fault_live += 1

    if injector is not None and faults is not None:
        if faults.proc_fail_rate > 0.0:
            schedule_next_proc_failure()

    def requeue_task(node: int, now: float) -> None:
        """A failed/killed task becomes dispatchable again."""
        state.clear_dispatch(node)
        fault_log.record(
            "task-retry", now, node, attempts.get(node, 0) + 1
        )
        oracle.push_ready_events([node])
        if tracing:
            sink.record_instant(
                "retry", t=now, tid=processors, pid=PID_SIM,
                args={"node": node, "attempt": attempts.get(node, 0) + 1},
            )
        ops_before = scheduler.ops
        scheduler.on_failure(node, now)
        charge(scheduler.ops - ops_before)

    def quarantine(node: int, now: float) -> None:
        """Degrade mode: resolve ``node`` without running it."""
        dispatchable, suppressed = state.fail_permanently(node)
        quarantined.append(node)
        if tracing:
            sink.record_instant(
                "quarantine", t=now, tid=processors, pid=PID_SIM,
                args={"node": node},
            )
        fault_log.record("quarantine", now, node, attempts.get(node, 0))
        prop_executed = trace.propagation.executed
        for v in suppressed:
            if bool(prop_executed[v]):
                quarantined.append(v)
                fault_log.record("quarantine", now, v)
        oracle.push_ready_events(dispatchable)
        # the scheduler is told the task is settled (its output is
        # permanently stale); pure descendants were never activated, so
        # no scheduler queue can hold them
        ops_before = scheduler.ops
        scheduler.on_complete(node, now)
        charge(scheduler.ops - ops_before)

    def kill_victim(now: float) -> None:
        """A processor died under a running attempt: shrink or evict."""
        nonlocal idle
        shrinkable = [
            r
            for r in running.values()
            if r.model == _MALLEABLE and r.alloc > 1
        ]
        if shrinkable:
            rec = max(shrinkable, key=lambda r: (r.alloc, r.node))
            update_malleable(rec, now)
            rec.alloc -= 1
            rec.version += 1
            push_rec_event(rec, now)
            return
        node = max(running)
        rec = running.pop(node)
        if tracing:
            sink.record_span(
                f"task:{node}", "sim-kill", rec.start, now,
                tid=_drop_lane(node), pid=PID_SIM,
                args={"node": node, "alloc": rec.alloc, "killed": True},
            )
        ver_base[node] = rec.version + 1
        update_malleable(rec, now)
        idle += rec.alloc - 1  # one core died; the rest return to the pool
        att = attempts[node]
        attempts[node] = att - 1  # churn kills do not consume the budget
        fault_log.record(
            "proc-kill",
            now,
            node,
            att,
            start=rec.start,
            alloc=rec.alloc,
            lost=(now - rec.start) * rec.alloc,
        )
        push_event(now, _EV_RETRY, node, 0)
        _bump_fault_live(1)

    def _bump_fault_live(d: int) -> None:
        nonlocal fault_live
        fault_live += d

    # ------------------------------------------------------------------
    # bootstrap: reveal the update
    # ------------------------------------------------------------------
    dispatchable0, activated0 = state.bootstrap()
    oracle.push_ready_events(dispatchable0)
    ops_before = scheduler.ops
    for v in activated0:
        scheduler.on_activate(v, t)
    charge(scheduler.ops - ops_before)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    while True:
        if deadline is not None and (
            _time.monotonic() - wall_start > deadline
        ):
            raise DeadlineExceededError(
                deadline, t, state.pending_count()
            )

        # dispatch phase: keep asking while the scheduler produces work
        while idle > 0:
            ops_before = scheduler.ops
            chosen = scheduler.select(idle, t)
            select_calls += 1
            charge(scheduler.ops - ops_before)
            if not chosen:
                break
            if len(chosen) > idle:
                raise InvalidDispatchError(
                    f"{scheduler.name} returned {len(chosen)} tasks for "
                    f"{idle} idle processors"
                )
            # first pass: one processor each; extras go to malleable tasks
            mall = [v for v in chosen if models[v] == _MALLEABLE]
            allocs = {v: 1 for v in chosen}
            spare = idle - len(chosen)
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
                dispatch(v, allocs[v], t)

        if reallot:
            reallot_idle(t)

        if not running:
            if state.all_done():
                break
            if fault_live == 0:
                raise SchedulerStallError(
                    f"{scheduler.name} stalled on {trace.name}: "
                    f"{state.pending_count()} task(s) pending, none running, "
                    "none selected"
                )

        # event phase: pop the next valid event
        while True:
            if not event_heap:
                raise SchedulerStallError(
                    f"{scheduler.name} stalled on {trace.name}: "
                    f"{state.pending_count()} task(s) pending, event heap "
                    "empty"
                )
            etime, _, kind, node, ver = heapq.heappop(event_heap)
            if kind in (_EV_COMPLETE, _EV_FAIL):
                rec = running.get(node)
                if rec is not None and rec.version == ver:
                    break
                continue  # superseded version
            rec = None
            break
        t = max(t, etime)

        if watchdog_limit is not None:
            events_since_progress += 1
            if events_since_progress > watchdog_limit:
                raise NoProgressError(
                    events_since_progress, state.pending_count(), t
                )

        if kind == _EV_COMPLETE:
            events_since_progress = 0
            assert rec is not None
            update_malleable(rec, t)
            del running[node]
            idle += rec.alloc
            duration = t - rec.start
            busy_proc_seconds += duration * rec.alloc
            tasks_executed += 1
            total_work_done += work[node]
            if tracing:
                sink.record_span(
                    f"task:{node}", "sim-task", rec.start, t,
                    tid=_drop_lane(node), pid=PID_SIM,
                    args={"node": node, "alloc": rec.alloc},
                )
            if record_schedule:
                schedule.append(
                    DispatchRecord(
                        node=node, start=rec.start, finish=t,
                        processors=rec.alloc,
                    )
                )

            dispatchable, newly_activated = state.complete(node)
            oracle.push_ready_events(dispatchable)
            ops_before = scheduler.ops
            for v in newly_activated:
                scheduler.on_activate(v, t)
            scheduler.on_complete(node, t)
            charge(scheduler.ops - ops_before)

        elif kind == _EV_FAIL:
            assert rec is not None and injector is not None
            assert faults is not None
            update_malleable(rec, t)
            del running[node]
            if tracing:
                sink.record_span(
                    f"task:{node}", "sim-fault", rec.start, t,
                    tid=_drop_lane(node), pid=PID_SIM,
                    args={"node": node, "alloc": rec.alloc, "failed": True},
                )
            ver_base[node] = rec.version + 1
            idle += rec.alloc
            lost = (t - rec.start) * rec.alloc
            busy_proc_seconds += lost
            failures[node] = failures.get(node, 0) + 1
            nfail = failures[node]
            if injector.exhausted(nfail):
                fault_log.record(
                    "task-fail", t, node, attempts[node],
                    start=rec.start, alloc=rec.alloc, lost=lost,
                )
                if faults.on_exhaustion == "raise":
                    raise TaskFailedPermanentlyError(node, attempts[node], t)
                quarantine(node, t)
                events_since_progress = 0  # a task settled: progress
            else:
                delay = faults.backoff_delay(nfail)
                fault_log.record(
                    "task-fail", t, node, attempts[node],
                    start=rec.start, alloc=rec.alloc, lost=lost,
                    backoff=delay,
                )
                push_event(t + delay, _EV_RETRY, node, 0)
                _bump_fault_live(1)

        elif kind == _EV_RETRY:
            _bump_fault_live(-1)
            requeue_task(node, t)

        elif kind == _EV_PROC_FAIL:
            _bump_fault_live(-1)
            assert faults is not None
            downtime = churn_downtimes.popleft()
            schedule_next_proc_failure()
            floor = min(faults.min_processors, processors)
            if tracing:
                sink.record_instant(
                    "proc-fail", t=t, tid=processors, pid=PID_SIM,
                    args={"capacity": capacity, "downtime": downtime},
                )
            if capacity <= floor:
                fault_log.record(
                    "proc-fail", t, applied=0.0, downtime=downtime
                )
            else:
                capacity -= 1
                fault_log.record(
                    "proc-fail", t, applied=1.0, downtime=downtime
                )
                push_event(t + downtime, _EV_PROC_RECOVER, -1, 0)
                _bump_fault_live(1)
                if idle > 0:
                    idle -= 1
                else:
                    kill_victim(t)

        elif kind == _EV_PROC_RECOVER:
            _bump_fault_live(-1)
            capacity += 1
            idle += 1
            if tracing:
                sink.record_instant(
                    "proc-recover", t=t, tid=processors, pid=PID_SIM,
                    args={"capacity": capacity},
                )
            fault_log.record("proc-recover", t, applied=1.0)

    makespan = t
    if tracing:
        sink.record_span(
            f"simulate:{trace.name}", "sim-run", 0.0, makespan,
            tid=processors, pid=PID_SIM,
            args={
                "scheduler": scheduler.name,
                "processors": processors,
                "tasks_executed": tasks_executed,
                "scheduler_ops": scheduler.ops,
                "precompute_ops": scheduler.precompute_ops,
                "select_calls": select_calls,
                "charged_overhead": charged_overhead,
            },
        )
    exec_makespan = max(0.0, makespan - (charged_overhead if overhead.charge_inline else 0.0))
    util = (
        busy_proc_seconds / (processors * exec_makespan)
        if exec_makespan > 0
        else 1.0
    )
    extras: dict = {"select_calls": select_calls}
    if quarantined:
        # The full partial-completion set: every ground-truth-active
        # task that did not run. This is a superset of the nodes in the
        # log's quarantine events — suppression can also materialize
        # *later*, when a normal completion resolves a node whose only
        # change signal would have arrived through the quarantined task.
        suppressed_all = np.flatnonzero(
            trace.propagation.executed
            & ~np.array(state.executed, dtype=bool)
        )
        extras["quarantined_nodes"] = [int(v) for v in suppressed_all]
    result = SimulationResult(
        scheduler_name=scheduler.name,
        trace_name=trace.name,
        processors=processors,
        makespan=makespan,
        execution_makespan=exec_makespan,
        scheduling_overhead=charged_overhead,
        scheduling_ops=scheduler.ops,
        precompute_ops=scheduler.precompute_ops,
        precompute_memory_cells=scheduler.precompute_memory_cells,
        runtime_peak_memory_cells=scheduler.runtime_peak_memory_cells,
        tasks_executed=tasks_executed,
        total_work=total_work_done,
        utilization=min(util, 1.0),
        schedule=schedule,
        extras=extras,
        fault_log=fault_log.events,
    )
    if debug_stats is not None:
        debug_stats["peak_event_heap"] = peak_heap
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
