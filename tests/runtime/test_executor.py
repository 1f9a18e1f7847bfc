"""The concurrent executor under every registered scheduler.

The acceptance bar: for every scheduler, a real concurrent round of the
static plan a served round runs produces a byte-identical
materialization and a recorded schedule that passes the strict
invariant checker.
"""

from __future__ import annotations

import gc
import threading
import time
import weakref

import pytest

from repro.datalog.units import build_execution_plan
from repro.runtime import UpdateStreamService, live_workload, make_stream
from repro.runtime.executor import RoundExecutor, UnitExecutionError
from repro.runtime.recorder import record_round
from repro.schedulers import scheduler_registry
from repro.schedulers.base import Scheduler
from repro.sim import InvalidDispatchError, SchedulerStallError
from repro.sim.faults import DeadlineExceededError


REGISTRY = scheduler_registry()


@pytest.mark.parametrize("sched_name", sorted(REGISTRY))
@pytest.mark.parametrize(
    "wl_name", ("transitive_closure", "retail_analytics", "points_to")
)
class TestAllSchedulers:
    def test_round_is_correct_and_verified(
        self, compiled_workloads, expected_new, wl_name, sched_name
    ):
        cu = compiled_workloads[wl_name]
        plan = build_execution_plan(cu)
        outcome = RoundExecutor(
            plan, REGISTRY[sched_name](), workers=4
        ).run()
        mat = plan.materialization(outcome.values)
        assert mat.as_dict() == expected_new[wl_name]
        report = record_round(outcome, plan.compiled.trace).check()
        assert report.ok, "\n".join(v.format() for v in report.violations)


@pytest.mark.parametrize("workers", (1, 2, 8))
def test_worker_counts(compiled_workloads, expected_new, workers):
    cu = compiled_workloads["same_generation"]
    plan = build_execution_plan(cu)
    outcome = RoundExecutor(
        plan, REGISTRY["hybrid"](), workers=workers
    ).run()
    assert plan.materialization(outcome.values).as_dict() == (
        expected_new["same_generation"]
    )
    report = record_round(outcome, plan.compiled.trace).check()
    assert report.ok


def test_consecutive_rounds_over_one_plan_share_no_state(
    compiled_workloads, expected_new,
):
    """Each round's activation tracker copies its counters from the
    Dag's derived tuples and writes only its own lists: a second round
    over the same plan — by a new executor or by the same one again —
    runs the same units, reports the same diffs and leaves the derived
    tuples as the first found them."""
    cu = compiled_workloads["transitive_closure"]
    plan = build_execution_plan(cu)
    dag = plan.compiled.trace.dag
    offsets, targets = dag.out_csr()
    scheduler = REGISTRY["levelbased"]()
    first = RoundExecutor(plan, scheduler, workers=2).run()
    second = RoundExecutor(plan, scheduler, workers=2).run()
    again = RoundExecutor(plan, scheduler, workers=2)
    third, fourth = again.run(), again.run()
    for later in (second, third, fourth):
        assert later.diffs == first.diffs
        assert sorted(later.records) == sorted(first.records)
    for outcome in (first, second, third, fourth):
        assert plan.materialization(outcome.values).as_dict() == (
            expected_new["transitive_closure"]
        )
    assert dag.out_lists() == (
        tuple(offsets.tolist()), tuple(targets.tolist())
    )
    assert dag.in_degree_list() == tuple(dag.in_degrees().tolist())


def test_waits_on_the_callers_own_unit_pass_the_strict_check(
    compiled_workloads, expected_new,
):
    """The calling thread is one of the processors: while it is inside
    a slow unit a lane's completion waits for it. The round is still
    right, and the wait is exported as coordination time, so the
    recorded schedule holds the greedy bounds."""
    cu = compiled_workloads["points_to"]
    plan = build_execution_plan(cu)
    for unit in plan.units[::2]:
        original = unit.run

        def slow(values, _orig=original):
            time.sleep(0.005)
            return _orig(values)

        unit.run = slow
    outcome = RoundExecutor(plan, REGISTRY["hybrid"](), workers=2).run()
    assert plan.materialization(outcome.values).as_dict() == (
        expected_new["points_to"]
    )
    report = record_round(outcome, plan.compiled.trace).check()
    assert report.ok, "\n".join(v.format() for v in report.violations)


@pytest.mark.parametrize("workers", (1, 2))
def test_round_state_is_freed_without_the_collector(
    compiled_workloads, workers
):
    """``run`` leaves no reference cycle through the round's values: a
    served process runs one per round, and a cycle (say, the lane loop
    closing over the object that holds it as thread target) keeps every
    round's store alive until a collection — measured at 3× the
    generation-0 collections and +1.6 MB on ``agg_burst``."""
    cu = compiled_workloads["points_to"]
    plan = build_execution_plan(cu)
    gc.collect()
    gc.disable()
    try:
        outcome = RoundExecutor(
            plan, REGISTRY["hybrid"](), workers=workers
        ).run()
        values = weakref.ref(outcome.values)
        del outcome
        assert values() is None
    finally:
        gc.enable()


def test_served_round_state_is_freed_without_the_collector(monkeypatch):
    """The same for a served round, whose lanes outlive it: a lane
    parks holding nothing of the round it ran units for, so each
    round's store is gone once its report is."""
    stores = []
    real_run = RoundExecutor.run

    def run(self):
        outcome = real_run(self)
        stores.append(weakref.ref(outcome.values))
        return outcome

    monkeypatch.setattr(RoundExecutor, "run", run)
    wl = live_workload("pt", seed=5)
    svc = UpdateStreamService(
        wl.program, wl.edb, REGISTRY["hybrid"](), workers=2
    )
    gc.collect()
    gc.disable()
    try:
        for batches in make_stream(wl, "steady", rounds=8, batch_size=2):
            for delta in batches:
                svc.submit(delta)
            report = svc.run_round()
            assert report.materialization_ok
            del report
            assert stores[-1]() is None
        assert any(
            t.name.startswith("repro-runtime") for t in threading.enumerate()
        )
    finally:
        gc.enable()
        svc.close()
    assert len(stores) == 8


def test_executes_only_active_nodes(compiled_workloads):
    """Activation is live: a miss round stages every source of ``G`` as
    initial and has no old value to diff against, so every node's
    output reads as changed and every node of ``G`` runs, once."""
    plan = build_execution_plan(compiled_workloads["retail_rollup"])
    outcome = RoundExecutor(plan, REGISTRY["hybrid"](), workers=4).run()
    assert sorted(outcome.records) == list(range(len(plan.units)))
    assert all(outcome.diffs.values())


def test_measurements_are_sane(compiled_workloads):
    cu = compiled_workloads["transitive_closure"]
    plan = build_execution_plan(cu)
    outcome = RoundExecutor(plan, REGISTRY["levelbased"](), workers=4).run()
    assert outcome.wall_latency_s > 0
    for start, finish in outcome.records.values():
        assert 0 <= start <= finish <= outcome.wall_latency_s
    assert outcome.select_calls > 0
    assert outcome.scheduler_ops > 0


def test_rejects_nonpositive_workers(compiled_workloads):
    plan = build_execution_plan(compiled_workloads["retail_rollup"])
    with pytest.raises(ValueError, match="workers"):
        RoundExecutor(plan, REGISTRY["hybrid"](), workers=0)


class _EagerIllegalScheduler(Scheduler):
    """Dispatches every activated node immediately, ready or not."""

    name = "eager-illegal"

    def __init__(self) -> None:
        super().__init__()
        self._pending: list[int] = []

    def prepare(self, ctx) -> None:
        self._pending = []

    def on_activate(self, v: int, t: float) -> None:
        self._pending.append(v)

    def on_complete(self, v: int, t: float) -> None:
        pass

    def select(self, max_tasks: int, t: float) -> list[int]:
        out, self._pending = (
            self._pending[:max_tasks],
            self._pending[max_tasks:],
        )
        return out


class _StallingScheduler(Scheduler):
    """Never selects anything."""

    name = "staller"

    def prepare(self, ctx) -> None:
        pass

    def on_activate(self, v: int, t: float) -> None:
        pass

    def on_complete(self, v: int, t: float) -> None:
        pass

    def select(self, max_tasks: int, t: float) -> list[int]:
        return []


class _OverDispatchScheduler(_EagerIllegalScheduler):
    """Returns more tasks than there are idle workers."""

    name = "over-dispatch"

    def select(self, max_tasks: int, t: float) -> list[int]:
        out, self._pending = self._pending, []
        return out


def test_illegal_dispatch_is_caught(compiled_workloads):
    plan = build_execution_plan(compiled_workloads["retail_rollup"])
    with pytest.raises(InvalidDispatchError):
        RoundExecutor(plan, _EagerIllegalScheduler(), workers=2).run()


def test_stall_is_caught(compiled_workloads):
    plan = build_execution_plan(compiled_workloads["retail_rollup"])
    with pytest.raises(SchedulerStallError):
        RoundExecutor(plan, _StallingScheduler(), workers=2).run()


def test_over_dispatch_is_caught(compiled_workloads):
    plan = build_execution_plan(compiled_workloads["retail_rollup"])
    with pytest.raises(InvalidDispatchError, match="idle workers"):
        RoundExecutor(plan, _OverDispatchScheduler(), workers=1).run()


def test_unit_exception_aborts_round(compiled_workloads):
    plan = build_execution_plan(compiled_workloads["retail_rollup"])
    victim = int(plan.compiled.trace.initial_tasks[0])

    def boom(_values):
        raise RuntimeError("injected unit failure")

    plan.units[victim].run = boom
    with pytest.raises(UnitExecutionError) as exc_info:
        RoundExecutor(plan, REGISTRY["hybrid"](), workers=2).run()
    assert exc_info.value.node == victim


def test_deadline_fires(compiled_workloads):
    plan = build_execution_plan(compiled_workloads["retail_rollup"])
    victim = int(plan.compiled.trace.initial_tasks[0])
    original = plan.units[victim].run

    def slow(values):
        time.sleep(0.5)
        return original(values)

    plan.units[victim].run = slow
    with pytest.raises(DeadlineExceededError):
        RoundExecutor(
            plan, REGISTRY["hybrid"](), workers=2, deadline=0.05
        ).run()
