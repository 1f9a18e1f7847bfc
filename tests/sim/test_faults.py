"""Fault-injection layer tests.

Covers the :class:`FaultPlan` surface (validation, JSON round-trip,
backoff math), counter-based determinism, the golden byte-identity
guarantee of the no-fault path, retry/degrade semantics, processor
churn, watchdog/deadline aborts, and the event-heap compaction
regression for repeated reallotment.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.dag import Dag
from repro.obs import TraceRecorder
from repro.schedulers import scheduler_registry
from repro.sim import (
    DeadlineExceededError,
    FaultEvent,
    FaultInjector,
    FaultLog,
    FaultPlan,
    NoProgressError,
    SimulationResult,
    TaskFailedPermanentlyError,
    simulate,
)
from repro.tasks import ExecutionModel, JobTrace

from ..conftest import random_job_trace

GOLDEN_DIR = Path(__file__).with_name("golden")


def flaky_plan(**over):
    base = dict(seed=3, task_fail_prob=0.35, max_retries=10)
    base.update(over)
    return FaultPlan(**base)


def single_malleable_trace(total_work=400.0):
    dag = Dag(1, [])
    return JobTrace(
        dag=dag,
        work=np.array([total_work]),
        span=np.array([0.0]),
        models=np.array([ExecutionModel.MALLEABLE], dtype=np.int8),
        initial_tasks=np.array([0]),
        changed_edges=np.zeros(0, dtype=bool),
        name="one-malleable",
    )


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_default_plan_is_empty(self):
        assert FaultPlan().is_empty()
        assert not flaky_plan().is_empty()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(task_fail_prob=-0.1),
            dict(task_fail_prob=1.5),
            dict(fail_fraction=(0.9, 0.1)),
            dict(fail_fraction=(-0.1, 0.5)),
            dict(max_retries=-1),
            dict(backoff_base=-1.0),
            dict(backoff_factor=0.0),
            dict(on_exhaustion="explode"),
            dict(proc_fail_rate=-2.0),
            dict(proc_downtime=(5.0, 1.0)),
            dict(min_processors=0),
            dict(straggler_prob=2.0),
            dict(straggler_factor=(0.5, 2.0)),
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_backoff_schedule_is_capped_exponential(self):
        plan = FaultPlan(backoff_base=0.5, backoff_factor=2.0,
                         backoff_cap=3.0)
        delays = [plan.backoff_delay(k) for k in (1, 2, 3, 4, 5)]
        assert delays == [0.5, 1.0, 2.0, 3.0, 3.0]

    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=9, task_fail_prob=0.2, max_retries=None,
            on_exhaustion="degrade", proc_fail_rate=0.1,
            straggler_prob=0.3, straggler_factor=(2.0, 5.0),
        )
        assert FaultPlan.from_json_dict(plan.to_json_dict()) == plan

    def test_json_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultPlan.from_json_dict({"seed": 1, "chaos_level": 11})


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_attempt_outcomes_replay_identically(self):
        plan = flaky_plan(straggler_prob=0.4)
        a, b = FaultInjector(plan), FaultInjector(plan)
        for node in range(50):
            for attempt in (1, 2, 3):
                assert a.attempt_outcome(node, attempt) == b.attempt_outcome(
                    node, attempt
                )

    def test_same_seed_gives_bit_identical_fault_log(self):
        trace = random_job_trace(23)
        plan = flaky_plan(straggler_prob=0.2, proc_fail_rate=0.1)
        logs = []
        for _ in range(2):
            res = simulate(
                trace, scheduler_registry()["hybrid"](), processors=4,
                faults=plan,
            )
            logs.append(json.dumps(
                FaultLog(res.fault_log).to_json_list(), sort_keys=True
            ))
        assert logs[0] == logs[1]

    def test_different_seed_differs(self):
        trace = random_job_trace(23)
        make = scheduler_registry()["levelbased"]
        r1 = simulate(trace, make(), processors=4, faults=flaky_plan(seed=1))
        r2 = simulate(trace, make(), processors=4, faults=flaky_plan(seed=2))
        as_json = lambda r: FaultLog(r.fault_log).to_json_list()  # noqa: E731
        assert as_json(r1) != as_json(r2)


# ----------------------------------------------------------------------
# golden byte-identity of the no-fault path
# ----------------------------------------------------------------------
def _datalog_stream():
    """The program, EDB and deltas of scripts/make_golden_results.py's
    ``dlog`` trace."""
    from repro.datalog import Database, Delta, parse_program

    program = parse_program(
        """
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- path(X, Y), edge(Y, Z).
        """
    )
    edb = Database()
    edb.relation("edge", 2)
    for t in [(0, 1), (1, 2), (2, 3), (3, 4)]:
        edb.add_fact("edge", t)
    deltas = [
        Delta().insert("edge", (4, 5)).delete("edge", (1, 2)),
        Delta().insert("edge", (1, 2)).insert("edge", (5, 6)),
    ]
    return program, edb, deltas


def _datalog_trace() -> JobTrace:
    """Mirrors scripts/make_golden_results.py::datalog_trace: the second
    round of the stream, compiled — the engine's round on the static
    DAG with its observed flags."""
    from repro.datalog import compile_update

    program, edb, deltas = _datalog_stream()
    cu = None
    for delta in deltas:
        cu = compile_update(program, edb, delta, name="dlog")
        edb = cu.edb_new
    return cu.trace


def _mixed_trace() -> JobTrace:
    """Mirrors scripts/make_golden_results.py::mixed_trace: UNIT,
    SEQUENTIAL and MALLEABLE nodes with ``span <= work``, so the goldens
    pin the malleable allotment and idle re-allotment."""
    from repro.dag import layered_dag

    rng = np.random.default_rng(11)
    dag = layered_dag([3, 5, 8, 8, 5, 3], edge_prob=0.3, rng=rng,
                      skip_prob=0.3)
    work = rng.uniform(0.5, 3.0, dag.n_nodes)
    n_init = 1 + int(rng.integers(0, min(3, dag.sources().size)))
    return JobTrace(
        dag=dag,
        work=work,
        span=work * rng.uniform(0.1, 1.0, dag.n_nodes),
        models=rng.integers(0, 3, dag.n_nodes).astype(np.int8),
        initial_tasks=dag.sources()[:n_init],
        changed_edges=rng.random(dag.n_edges) < 0.6,
        name="mixed",
    )


TRACES = {
    "diamond": lambda: JobTrace(
        dag=Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
        work=np.ones(4),
        initial_tasks=np.array([0]),
        changed_edges=np.ones(4, dtype=bool),
        name="diamond",
    ),
    "rand7": lambda: random_job_trace(7),
    "rand23": lambda: random_job_trace(23),
    "dlog": _datalog_trace,
    "mixed": _mixed_trace,
}


@pytest.mark.parametrize(
    "golden", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda p: p.stem
)
@pytest.mark.parametrize("faults", [None, FaultPlan()],
                         ids=["no-plan", "empty-plan"])
def test_no_fault_run_matches_golden_bytes(golden, faults):
    trace_name, sched_name = golden.stem.split("__", 1)
    res = simulate(
        TRACES[trace_name](),
        scheduler_registry()[sched_name](),
        processors=4,
        record_schedule=True,
        faults=faults,
    )
    assert json.dumps(res.to_json_dict(), sort_keys=True) + "\n" == (
        golden.read_text()
    )


#: mirrors scripts/make_golden_results.py::FAULTED_PLAN
FAULTED_PLAN = FaultPlan(
    seed=1,
    task_fail_prob=0.2,
    max_retries=1,
    backoff_base=0.25,
    on_exhaustion="degrade",
    proc_fail_rate=0.4,
    proc_downtime=(0.5, 2.0),
    straggler_prob=0.15,
)

FAULTED_GOLDENS = sorted((GOLDEN_DIR / "faulted").glob("*.json"))


def test_faulted_runs_match_golden_bytes():
    """The fault path is pinned like the fault-free one: every faulted
    golden replays byte for byte, fault log included — and the set as a
    whole injects every fault kind, so the pin covers each branch."""
    assert len(FAULTED_GOLDENS) == 2 * len(scheduler_registry())
    kinds: set[str] = set()
    for golden in FAULTED_GOLDENS:
        trace_name, sched_name = golden.stem.split("__", 1)
        res = simulate(
            TRACES[trace_name](),
            scheduler_registry()[sched_name](),
            processors=4,
            record_schedule=True,
            faults=FAULTED_PLAN,
        )
        assert json.dumps(res.to_json_dict(), sort_keys=True) + "\n" == (
            golden.read_text()
        ), golden.stem
        kinds.update(e.kind for e in res.fault_log)
    assert kinds == {
        "straggler", "task-fail", "task-retry", "quarantine",
        "proc-fail", "proc-kill", "proc-recover",
    }


@pytest.mark.parametrize("sched_name", sorted(scheduler_registry()))
def test_served_round_replays_in_the_simulator(sched_name):
    """The plan cache serves the stream on the program's static DAG and
    only execution reveals the change flags; the recorded round — that
    DAG with the observed flags — is a simulator input like any other:
    every scheduler, simulated on it, runs exactly the nodes the live
    executor ran."""
    from repro.datalog import CompiledProgramCache
    from repro.runtime import RoundExecutor, record_round

    program, edb, deltas = _datalog_stream()
    cache = CompiledProgramCache(program)
    factory = scheduler_registry()[sched_name]
    for delta in deltas:
        cu = cache.compile(program, edb, delta, name="dlog")
        outcome = RoundExecutor(cache.plan(cu), factory(), workers=2).run()
        recorded = record_round(outcome, cu.trace)
        assert recorded.check().ok
        res = simulate(
            recorded.trace, factory(), processors=4, record_schedule=True
        )
        assert sorted(r.node for r in res.schedule) == sorted(outcome.records)
        cache.commit(cu, outcome.values)
        edb = cu.edb_new
    assert cache.hits == 1 and len(outcome.records) == 3


# ----------------------------------------------------------------------
# retry / exhaustion semantics
# ----------------------------------------------------------------------
class TestRetry:
    def test_failed_tasks_retry_and_run_completes(self):
        trace = random_job_trace(7)
        res = simulate(
            trace, scheduler_registry()["levelbased"](), processors=4,
            faults=flaky_plan(), strict=True,
        )
        log = FaultLog(res.fault_log)
        assert log.select("task-fail")
        assert len(log.select("task-retry")) == len(log.select("task-fail"))
        assert res.tasks_executed == trace.propagation.executed.sum()

    def test_retry_waits_out_the_backoff(self):
        trace = random_job_trace(7)
        res = simulate(
            trace, scheduler_registry()["oracle"](), processors=4,
            faults=flaky_plan(backoff_base=0.25),
        )
        fails = {
            (e.node, e.attempt): e for e in res.fault_log
            if e.kind == "task-fail"
        }
        for e in res.fault_log:
            if e.kind == "task-retry":
                cause = fails.get((e.node, e.attempt - 1))
                if cause is not None and "backoff" in cause.data:
                    assert e.time >= cause.time + cause.data["backoff"] - 1e-9

    def test_exhaustion_raises_by_default(self, diamond_trace):
        with pytest.raises(TaskFailedPermanentlyError) as exc:
            simulate(
                diamond_trace, scheduler_registry()["levelbased"](),
                faults=FaultPlan(seed=1, task_fail_prob=1.0, max_retries=2),
            )
        assert exc.value.attempts == 3

    def test_degrade_quarantines_and_reports_partial_completion(self):
        trace = random_job_trace(23)
        res = simulate(
            trace, scheduler_registry()["hybrid"](), processors=4,
            faults=FaultPlan(seed=5, task_fail_prob=0.5, max_retries=1,
                             on_exhaustion="degrade"),
            strict=True,
        )
        lost = res.extras.get("quarantined_nodes", [])
        assert lost, "this seed is known to exhaust at least one task"
        n_active = int(trace.propagation.executed.sum())
        assert res.tasks_executed == n_active - len(lost)
        directly = {e.node for e in res.fault_log if e.kind == "quarantine"}
        assert directly <= set(lost)


# ----------------------------------------------------------------------
# processor churn
# ----------------------------------------------------------------------
class TestChurn:
    def test_churn_run_is_strict_clean(self):
        trace = random_job_trace(7)
        res = simulate(
            trace, scheduler_registry()["levelbased"](), processors=4,
            faults=FaultPlan(seed=8, proc_fail_rate=0.4), strict=True,
        )
        applied = [e for e in res.fault_log
                   if e.kind == "proc-fail" and e.data["applied"]]
        assert applied
        assert res.tasks_executed == trace.propagation.executed.sum()

    def test_capacity_never_drops_below_floor(self):
        trace = random_job_trace(23)
        res = simulate(
            trace, scheduler_registry()["hybrid"](), processors=4,
            faults=FaultPlan(seed=8, proc_fail_rate=1.5, min_processors=2),
        )
        capacity = 4
        for e in res.fault_log:
            if e.kind == "proc-fail" and e.data["applied"]:
                capacity -= 1
            elif e.kind == "proc-recover":
                capacity += 1
            assert capacity >= 2

    def test_stragglers_inflate_durations(self):
        trace = random_job_trace(7)
        make = scheduler_registry()["levelbased"]
        clean = simulate(trace, make(), processors=4)
        slow = simulate(
            trace, make(), processors=4,
            faults=FaultPlan(seed=4, straggler_prob=0.5,
                             straggler_factor=(2.0, 3.0)),
        )
        events = [e for e in slow.fault_log if e.kind == "straggler"]
        assert events
        assert all(2.0 <= e.data["factor"] <= 3.0 for e in events)
        assert slow.makespan > clean.makespan


# ----------------------------------------------------------------------
# watchdog and deadline
# ----------------------------------------------------------------------
class TestAborts:
    def test_watchdog_fires_on_livelock(self, diamond_trace):
        # every attempt fails and retries are unlimited: sim time
        # advances forever without a single task resolving
        with pytest.raises(NoProgressError) as exc:
            simulate(
                diamond_trace, scheduler_registry()["levelbased"](),
                faults=FaultPlan(seed=1, task_fail_prob=1.0,
                                 max_retries=None),
                watchdog=200,
            )
        assert exc.value.events > 200
        assert exc.value.pending > 0

    def test_deadline_exceeded_is_structured(self, diamond_trace):
        # a deadline of 0 is refused up front (test_engine.py); one
        # nanosecond has passed by the first event
        with pytest.raises(DeadlineExceededError):
            simulate(
                diamond_trace, scheduler_registry()["levelbased"](),
                faults=FaultPlan(seed=1, task_fail_prob=1.0,
                                 max_retries=None),
                deadline=1e-9,
            )


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
class TestSerialization:
    def test_result_round_trips_with_fault_log(self):
        trace = random_job_trace(7)
        res = simulate(
            trace, scheduler_registry()["levelbased"](), processors=4,
            faults=flaky_plan(), record_schedule=True,
        )
        assert res.fault_log
        back = SimulationResult.from_json_dict(res.to_json_dict())
        assert back.fault_log == res.fault_log
        assert back.to_json_dict() == res.to_json_dict()

    def test_empty_fault_log_is_omitted_from_json(self, diamond_trace):
        res = simulate(diamond_trace, scheduler_registry()["levelbased"]())
        assert "fault_log" not in res.to_json_dict()

    def test_fault_event_round_trip(self):
        ev = FaultEvent("task-fail", 1.5, node=3, attempt=2,
                        data={"lost": 0.75})
        assert FaultEvent.from_json_dict(ev.to_json_dict()) == ev


# ----------------------------------------------------------------------
# event-heap compaction (reallot_idle growth regression)
# ----------------------------------------------------------------------
def peak_event_heap(sink: TraceRecorder) -> int:
    """The event heap's peak length, off the run's ``sim-run`` span."""
    (run,) = [r for r in sink.records() if r.cat == "sim-run"]
    return run.args["peak_event_heap"]


class TestHeapCompaction:
    def test_churned_malleable_task_keeps_heap_bounded(self):
        # One divisible task, heavy churn: every kill shrinks the
        # allotment and every recovery re-grows it via reallot_idle,
        # superseding the task's pending completion event each time.
        # Before eager compaction the heap accumulated one stale entry
        # per version bump — O(churn events) for a single running task.
        sink = TraceRecorder()
        res = simulate(
            single_malleable_trace(400.0),
            scheduler_registry()["oracle"](),
            processors=8,
            faults=FaultPlan(seed=2, proc_fail_rate=2.0,
                             proc_downtime=(0.1, 0.5)),
            sink=sink,
        )
        churn = [e for e in res.fault_log
                 if e.kind == "proc-fail" and e.data["applied"]]
        assert len(churn) > 60, "scenario must actually churn"
        assert peak_event_heap(sink) <= 80

    def test_no_fault_run_reports_heap_stats(self, diamond_trace):
        sink = TraceRecorder()
        simulate(diamond_trace, scheduler_registry()["levelbased"](),
                 sink=sink)
        assert 0 < peak_event_heap(sink) <= 4
