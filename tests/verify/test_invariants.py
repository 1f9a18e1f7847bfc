"""Invariant-checker tests: clean runs verify OK, and every mutation of
a recorded result is rejected with the right violation kind."""

import dataclasses
import json

import numpy as np
import pytest

from repro.dag import Dag
from repro.sim import DispatchRecord, SimulationResult, simulate
from repro.schedulers import HybridScheduler, LevelBasedScheduler
from repro.tasks import ExecutionModel, JobTrace
from repro.verify import (
    VIOLATION_KINDS,
    InvariantViolationError,
    check_invariants,
)


@pytest.fixture
def run(diamond_trace):
    res = simulate(
        diamond_trace, LevelBasedScheduler(), processors=2,
        record_schedule=True,
    )
    return diamond_trace, res


def mutate(res: SimulationResult, **field_overrides) -> SimulationResult:
    return dataclasses.replace(res, **field_overrides)


# ----------------------------------------------------------------------
# the happy path
# ----------------------------------------------------------------------
def test_clean_run_verifies_ok(run):
    trace, res = run
    report = check_invariants(trace, res, reallot=True)
    assert report.ok
    assert report.kinds() == set()
    assert "OK" in report.summary()
    assert report.bounds["makespan_upper"] >= report.bounds["work_lower"]
    assert report.bounds["critical_path"] > 0


def test_no_schedule_is_an_error(diamond_trace):
    res = simulate(diamond_trace, LevelBasedScheduler(), processors=2)
    with pytest.raises(ValueError, match="no recorded schedule"):
        check_invariants(diamond_trace, res)


# ----------------------------------------------------------------------
# active set / exactly-once
# ----------------------------------------------------------------------
def test_missing_task_detected(run):
    trace, res = run
    bad = mutate(res, schedule=res.schedule[:-1])
    report = check_invariants(trace, bad)
    assert "missing-task" in report.kinds()


def test_duplicate_execution_detected(run):
    trace, res = run
    bad = mutate(res, schedule=res.schedule + [res.schedule[0]])
    report = check_invariants(trace, bad)
    assert "duplicate-execution" in report.kinds()


def test_unknown_node_is_spurious(run):
    trace, res = run
    ghost = DispatchRecord(node=99, start=0.0, finish=1.0, processors=1)
    report = check_invariants(trace, mutate(res, schedule=res.schedule + [ghost]))
    assert "spurious-execution" in report.kinds()


def test_deactivated_node_execution_is_spurious(diamond):
    # only edges out of node 0 carry changes: node 3 deactivates
    trace = JobTrace(
        dag=diamond,
        work=np.ones(4),
        initial_tasks=np.array([0]),
        changed_edges=np.array([True, True, False, False]),
        name="diamond-partial",
    )
    res = simulate(
        trace, LevelBasedScheduler(), processors=2, record_schedule=True
    )
    assert {r.node for r in res.schedule} == {0, 1, 2}
    ghost = DispatchRecord(node=3, start=5.0, finish=6.0, processors=1)
    report = check_invariants(trace, mutate(res, schedule=res.schedule + [ghost]))
    assert "spurious-execution" in report.kinds()
    assert any(v.node == 3 for v in report.violations)


@pytest.fixture
def quiet_pair():
    """``0 → 1`` with the edge unchanged: only node 0 runs."""
    trace = JobTrace(
        dag=Dag(2, [(0, 1)]),
        work=np.ones(2),
        initial_tasks=np.array([0]),
        changed_edges=np.array([False]),
        name="quiet-pair",
    )
    res = simulate(
        trace, LevelBasedScheduler(), processors=1, record_schedule=True
    )
    assert [r.node for r in res.schedule] == [0]
    assert check_invariants(trace, res).ok
    return trace, res


def test_nan_record_does_not_hide_a_spurious_dispatch(quiet_pair):
    """A record whose times are NaN is still a dispatch: node 1 ran
    though nothing activated it, and its times are no numbers."""
    trace, res = quiet_pair
    ghost = DispatchRecord(node=1, start=float("nan"),
                           finish=float("nan"), processors=1)
    report = check_invariants(trace, mutate(res, schedule=res.schedule + [ghost]))
    found = {(v.kind, v.node) for v in report.violations}
    assert ("spurious-execution", 1) in found
    assert ("duration", 1) in found


def test_duplicate_after_a_nan_start_is_reported(quiet_pair):
    trace, res = quiet_pair
    (rec,) = res.schedule
    nan_first = dataclasses.replace(rec, start=float("nan"))
    report = check_invariants(
        trace, mutate(res, schedule=[nan_first, rec])
    )
    found = [(v.kind, v.node) for v in report.violations]
    assert ("duplicate-execution", 0) in found
    assert ("duration", 0) in found


@pytest.mark.parametrize("bad_time", [float("inf"), float("-inf")])
def test_infinite_record_time_is_a_duration_violation(quiet_pair, bad_time):
    trace, res = quiet_pair
    (rec,) = res.schedule
    report = check_invariants(
        trace, mutate(res, schedule=[dataclasses.replace(rec, finish=bad_time)])
    )
    assert ("duration", 0) in {(v.kind, v.node) for v in report.violations}


# ----------------------------------------------------------------------
# precedence / capacity / allotment / duration
# ----------------------------------------------------------------------
def test_precedence_violation_detected(run):
    trace, res = run
    # yank the sink's start to before its parents finish
    sched = [
        dataclasses.replace(r, start=0.0, finish=1.0)
        if r.node == 3 else r
        for r in res.schedule
    ]
    report = check_invariants(trace, mutate(res, schedule=sched))
    assert "precedence" in report.kinds()


def test_capacity_violation_detected(run):
    trace, res = run
    # claim the same schedule ran on a single processor
    report = check_invariants(trace, mutate(res, processors=1))
    assert "capacity" in report.kinds()


def test_allotment_violations_detected(run):
    trace, res = run
    wide = [dataclasses.replace(res.schedule[0], processors=2)]
    report = check_invariants(
        trace, mutate(res, schedule=wide + res.schedule[1:])
    )
    assert "allotment" in report.kinds()  # non-malleable with 2 procs

    out_of_range = [dataclasses.replace(res.schedule[0], processors=99)]
    report = check_invariants(
        trace, mutate(res, schedule=out_of_range + res.schedule[1:])
    )
    assert "allotment" in report.kinds()


def test_malleable_allotment_cap():
    trace = JobTrace(
        dag=Dag(1, []),
        work=np.array([2.0]),
        span=np.array([1.0]),
        models=np.array([ExecutionModel.MALLEABLE], dtype=np.int8),
        initial_tasks=np.array([0]),
        changed_edges=np.zeros(0, dtype=bool),
        name="one-malleable",
    )
    res = simulate(
        trace, LevelBasedScheduler(), processors=4,
        record_schedule=True, reallot=False,
    )
    assert check_invariants(trace, res, reallot=False).ok
    # 3 processors can never help a work=2, span=1 task
    sched = [dataclasses.replace(res.schedule[0], processors=3)]
    report = check_invariants(
        trace, mutate(res, schedule=sched), reallot=False
    )
    assert "allotment" in report.kinds()


def test_too_short_duration_detected(run):
    trace, res = run
    r0 = res.schedule[0]
    sched = [dataclasses.replace(r0, finish=r0.start + 0.5)]
    report = check_invariants(
        trace, mutate(res, schedule=sched + res.schedule[1:])
    )
    assert "duration" in report.kinds()


# ----------------------------------------------------------------------
# paper bounds and self-consistency
# ----------------------------------------------------------------------
def test_makespan_upper_bound_enforced(run):
    trace, res = run
    report = check_invariants(
        trace, mutate(res, execution_makespan=res.execution_makespan + 1e6)
    )
    assert "makespan-bound" in report.kinds()


def test_impossibly_good_makespan_rejected(run):
    trace, res = run
    report = check_invariants(trace, mutate(res, makespan=1e-9))
    assert "makespan-lower" in report.kinds()


def test_consistency_checks(run):
    trace, res = run
    assert "result-consistency" in check_invariants(
        trace, mutate(res, tasks_executed=res.tasks_executed + 1)
    ).kinds()
    assert "result-consistency" in check_invariants(
        trace, mutate(res, total_work=res.total_work + 5.0)
    ).kinds()
    assert "result-consistency" in check_invariants(
        trace, mutate(res, utilization=1.5)
    ).kinds()


def test_violation_kinds_are_the_documented_set(run):
    trace, res = run
    report = check_invariants(trace, mutate(res, processors=1, makespan=0.0))
    assert report.kinds() <= set(VIOLATION_KINDS)
    assert not report.ok
    assert "violation(s)" in report.summary()


# ----------------------------------------------------------------------
# strict mode and serialization
# ----------------------------------------------------------------------
def test_strict_mode_records_and_passes(diamond_trace):
    res = simulate(
        diamond_trace, HybridScheduler(), processors=3, strict=True
    )
    assert res.schedule  # strict implies record_schedule


def test_invariant_violation_error_carries_report(run):
    trace, res = run
    report = check_invariants(trace, mutate(res, schedule=res.schedule[:-1]))
    err = InvariantViolationError(report)
    assert err.report is report
    assert "missing-task" in str(err)


def test_result_json_roundtrip(run):
    _, res = run
    payload = json.loads(json.dumps(res.to_json_dict()))
    back = SimulationResult.from_json_dict(payload)
    assert back == res
    with pytest.raises(ValueError, match="schema"):
        SimulationResult.from_json_dict({**payload, "schema": 99})
