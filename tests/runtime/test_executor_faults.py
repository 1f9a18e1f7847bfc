"""Executor fault tolerance: retry, quarantine, watchdog, supervision.

Covers the live runtime's fault layer in isolation: per-unit retry
with the sim's capped-backoff law, retry-budget exhaustion and the
structured quarantine aggregate, the soft straggler watchdog, chaos
injection at the unit level, supervised worker-lane replacement, and
the deadline regression — a deadline-exceeded round returns promptly
without leaking a single lane thread. Last, processor 0: the calling
thread runs units itself, so lanes exist only where a round has width.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.datalog.units import build_execution_plan
from repro.obs import TraceRecorder
from repro.runtime import UpdateStreamService, live_workload, make_stream
from repro.runtime.chaos import ChaosInjector, ChaosPlan, InjectedUnitFault
from repro.runtime.executor import (
    RetryPolicy,
    RoundExecutor,
    UnitExecutionError,
)
from repro.schedulers import scheduler_registry
from repro.sim.faults import DeadlineExceededError, FaultPlan

REGISTRY = scheduler_registry()

#: tiny backoffs keep fault tests fast without changing the law
FAST_RETRY = RetryPolicy(
    max_retries=8, backoff_base=0.001, backoff_factor=2.0, backoff_cap=0.01
)


def _runtime_threads() -> list[threading.Thread]:
    return [
        t
        for t in threading.enumerate()
        if t.name.startswith("repro-runtime") and t.is_alive()
    ]


# ----------------------------------------------------------------------
# retry policy semantics
# ----------------------------------------------------------------------
def test_backoff_matches_sim_fault_plan_semantics():
    policy = RetryPolicy(
        max_retries=5, backoff_base=0.5, backoff_factor=2.0, backoff_cap=8.0
    )
    plan = FaultPlan(
        backoff_base=0.5, backoff_factor=2.0, backoff_cap=8.0
    )
    for k in range(1, 8):
        assert policy.backoff_delay(k) == plan.backoff_delay(k)
    with pytest.raises(ValueError):
        policy.backoff_delay(0)


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_base=-1.0)


def test_transient_failure_is_retried_to_success(
    compiled_workloads, expected_new
):
    cu = compiled_workloads["retail_rollup"]
    plan = build_execution_plan(cu)
    victim = int(plan.compiled.trace.initial_tasks[0])
    original = plan.units[victim].run
    calls = {"n": 0}

    def flaky(values):
        calls["n"] += 1
        if calls["n"] <= 2:
            raise RuntimeError("transient")
        return original(values)

    plan.units[victim].run = flaky
    outcome = RoundExecutor(
        plan, REGISTRY["hybrid"](), workers=2, retry=FAST_RETRY
    ).run()
    assert calls["n"] == 3
    assert outcome.unit_retries == 2
    # each failed attempt's dead time is exported: a window at least its
    # backoff long that ends before the successful run starts
    assert len(outcome.retry_intervals) == 2
    for k, (began, handed) in enumerate(outcome.retry_intervals, start=1):
        assert handed - began >= FAST_RETRY.backoff_delay(k)
        assert handed <= outcome.records[victim][0]
    assert plan.materialization(outcome.values).as_dict() == (
        expected_new["retail_rollup"]
    )


def test_budget_exhaustion_quarantines_with_aggregate(compiled_workloads):
    cu = compiled_workloads["retail_rollup"]
    plan = build_execution_plan(cu)
    victim = int(plan.compiled.trace.initial_tasks[0])

    def boom(_values):
        raise RuntimeError("permanent")

    plan.units[victim].run = boom
    policy = RetryPolicy(max_retries=2, backoff_base=0.001)
    with pytest.raises(UnitExecutionError) as exc_info:
        RoundExecutor(
            plan, REGISTRY["hybrid"](), workers=2, retry=policy
        ).run()
    err = exc_info.value
    # legacy single-failure surface is intact...
    assert err.node == victim
    assert isinstance(err.cause, RuntimeError)
    # ...and the aggregate records the whole budget being consumed
    assert victim in err.quarantined
    f = [f for f in err.failures if f.node == victim][0]
    assert f.attempts == 3  # initial + 2 retries
    assert not _runtime_threads()


def test_no_retry_policy_preserves_fail_fast(compiled_workloads):
    """Without a policy the first failure aborts — historical behavior —
    and ``retry=None`` is ``RetryPolicy(max_retries=0)``: both abort an
    always-failing round with the same aggregate (the same nodes,
    attempts and labels), and neither retries: no ``unit-retry``
    instant, one attempt."""
    seen = []
    for retry in (None, RetryPolicy(max_retries=0)):
        plan = build_execution_plan(compiled_workloads["retail_rollup"])
        victim = int(plan.compiled.trace.initial_tasks[0])

        def boom(_values):
            raise RuntimeError("nope")

        plan.units[victim].run = boom
        rec = TraceRecorder()
        with pytest.raises(UnitExecutionError) as exc_info:
            RoundExecutor(
                plan, REGISTRY["hybrid"](), workers=2, sink=rec, retry=retry
            ).run()
        assert exc_info.value.failures[0].attempts == 1
        instants = [r.name for r in rec.records() if r.cat == "instant"]
        assert "unit-retry" not in instants and "quarantine" in instants
        seen.append(
            [(f.node, f.attempts, f.label) for f in exc_info.value.failures]
        )
    assert seen[0] == seen[1]
    assert all(attempts == 1 for _, attempts, _ in seen[0])
    assert not _runtime_threads()


# ----------------------------------------------------------------------
# S1: deadline abort leaks nothing and returns promptly
# ----------------------------------------------------------------------
def test_deadline_returns_promptly_without_leaked_threads(
    compiled_workloads,
):
    plan = build_execution_plan(compiled_workloads["retail_analytics"])
    # a miss round runs every node of G: a full drain would cost >=
    # (|G|/2) * 0.3 s — far past the bound asserted below
    assert len(plan.units) >= 12
    for unit in plan.units:
        original = unit.run

        def slow(values, _orig=original):
            time.sleep(0.3)
            return _orig(values)

        unit.run = slow
    t0 = time.perf_counter()
    with pytest.raises(DeadlineExceededError):
        RoundExecutor(
            plan, REGISTRY["hybrid"](), workers=2, deadline=0.05
        ).run()
    elapsed = time.perf_counter() - t0
    # abort waits only for the <= 2 in-flight units (~0.3 s), never
    # drains the remaining queue (which would cost >= 0.6 s more)
    assert elapsed < 0.3 * 2 + 0.2
    assert not _runtime_threads()


# ----------------------------------------------------------------------
# soft watchdog
# ----------------------------------------------------------------------
def test_watchdog_marks_stragglers_softly(compiled_workloads, expected_new):
    cu = compiled_workloads["retail_rollup"]
    plan = build_execution_plan(cu)
    victim = int(plan.compiled.trace.initial_tasks[0])
    original = plan.units[victim].run

    def slow(values):
        time.sleep(0.15)
        return original(values)

    plan.units[victim].run = slow
    outcome = RoundExecutor(
        plan, REGISTRY["hybrid"](), workers=2, unit_timeout_s=0.03
    ).run()
    assert victim in outcome.stragglers
    # soft: the unit still completed and the round is correct
    assert plan.materialization(outcome.values).as_dict() == (
        expected_new["retail_rollup"]
    )


def test_watchdog_validation(compiled_workloads):
    plan = build_execution_plan(compiled_workloads["retail_rollup"])
    with pytest.raises(ValueError, match="unit_timeout_s"):
        RoundExecutor(plan, REGISTRY["hybrid"](), unit_timeout_s=0.0)


# ----------------------------------------------------------------------
# chaos at the executor level
# ----------------------------------------------------------------------
def test_injected_unit_failures_retry_to_identical_result(
    compiled_workloads, expected_new,
):
    cu = compiled_workloads["retail_analytics"]
    plan = build_execution_plan(cu)
    injector = ChaosInjector(ChaosPlan(seed=5, unit_fail_prob=0.3))
    outcome = RoundExecutor(
        plan, REGISTRY["hybrid"](), workers=4,
        retry=FAST_RETRY, chaos=injector,
    ).run()
    assert outcome.injected_faults > 0
    assert outcome.unit_retries >= len(injector.log.select("unit-fail"))
    assert plan.materialization(outcome.values).as_dict() == (
        expected_new["retail_analytics"]
    )


def test_worker_kills_are_supervised(compiled_workloads, expected_new):
    cu = compiled_workloads["retail_rollup"]
    plan = build_execution_plan(cu)
    injector = ChaosInjector(
        ChaosPlan(seed=1, worker_kill_prob=1.0, max_kills_per_unit=1)
    )
    outcome = RoundExecutor(
        plan, REGISTRY["hybrid"](), workers=2, chaos=injector
    ).run()
    # every executed unit's first dispatch killed its lane exactly once;
    # supervision replaced the lane and re-ran the unit
    assert outcome.lane_deaths == len(outcome.records)
    assert outcome.unit_retries == 0  # kills are not charged as retries
    # ... but the lane time they cost is dead time like a retry's
    assert len(outcome.retry_intervals) == outcome.lane_deaths
    assert all(began <= handed for began, handed in outcome.retry_intervals)
    assert plan.materialization(outcome.values).as_dict() == (
        expected_new["retail_rollup"]
    )
    assert not _runtime_threads()


def test_targeted_fail_units_fire_once(compiled_workloads, expected_new):
    cu = compiled_workloads["retail_rollup"]
    plan = build_execution_plan(cu)
    victim = int(plan.compiled.trace.initial_tasks[0])
    injector = ChaosInjector(ChaosPlan(seed=0, fail_units=(victim,)))
    with pytest.raises(UnitExecutionError) as exc_info:
        RoundExecutor(plan, REGISTRY["hybrid"](), workers=2,
                      chaos=injector).run()
    assert exc_info.value.node == victim
    assert isinstance(exc_info.value.cause, InjectedUnitFault)
    # one-shot: a rerun against the same injector succeeds
    plan2 = build_execution_plan(cu)
    outcome = RoundExecutor(
        plan2, REGISTRY["hybrid"](), workers=2, chaos=injector
    ).run()
    assert plan2.materialization(outcome.values).as_dict() == (
        expected_new["retail_rollup"]
    )


def test_chaos_decisions_are_deterministic():
    plan = ChaosPlan(
        seed=42, unit_fail_prob=0.4, unit_latency_prob=0.3,
        worker_kill_prob=0.2,
    )
    a, b = ChaosInjector(plan), ChaosInjector(plan)
    for node in range(20):
        for attempt in range(3):
            assert a.unit_outcome(node, attempt) == b.unit_outcome(
                node, attempt
            )
    # a different round epoch draws a different pattern
    c = ChaosInjector(plan)
    c.begin_round(1)
    decisions0 = [a.unit_outcome(n, 0) for n in range(50)]
    decisions1 = [c.unit_outcome(n, 0) for n in range(50)]
    assert decisions0 != decisions1


def test_chaos_plan_json_round_trip():
    plan = ChaosPlan(
        seed=3, unit_fail_prob=0.1, unit_latency_prob=0.2,
        unit_latency_s=(0.001, 0.004), worker_kill_prob=0.05,
        compile_fail_prob=0.01, verify_fail_prob=0.02,
        fail_units=(4, 7), fail_round=2,
    )
    assert ChaosPlan.from_json_dict(plan.to_json_dict()) == plan
    with pytest.raises(ValueError, match="unknown ChaosPlan"):
        ChaosPlan.from_json_dict({"seed": 1, "bogus": 2})
    with pytest.raises(ValueError):
        ChaosPlan(unit_fail_prob=1.5)
    assert ChaosPlan().is_empty()
    assert not ChaosPlan.from_seed(9).is_empty()


@pytest.mark.parametrize("plan", [FaultPlan, ChaosPlan])
def test_a_spec_with_a_negative_seed_is_refused(plan):
    """A spec holding ``"seed": -3`` is refused where it is read — the
    seed roots ``default_rng``, which raises on a negative entropy only
    once the first fault is drawn, a traceback mid-run."""
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        plan.from_json_dict({"seed": -3})


def test_chaos_from_fault_plan_adapter():
    fp = FaultPlan(seed=7, task_fail_prob=0.25, straggler_prob=0.1)
    cp = ChaosPlan.from_fault_plan(fp)
    assert cp.seed == 7
    assert cp.unit_fail_prob == 0.25
    assert cp.unit_latency_prob == 0.1


def test_quarantine_cancels_remaining_dispatch(compiled_workloads):
    """An aborted round must not drain the rest of the plan."""
    cu = compiled_workloads["retail_analytics"]
    plan = build_execution_plan(cu)
    victim = int(plan.compiled.trace.initial_tasks[0])

    def boom(_values):
        raise RuntimeError("poison")

    plan.units[victim].run = boom
    executed = 0
    for node, unit in enumerate(plan.units):
        if node == victim:
            continue
        original = unit.run

        def counting(values, _orig=original):
            nonlocal executed
            executed += 1
            time.sleep(0.01)
            return _orig(values)

        unit.run = counting
    total = len(plan.units)  # a miss round runs every node of G
    with pytest.raises(UnitExecutionError):
        # level order puts the poisoned initial task up front
        RoundExecutor(plan, REGISTRY["levelbased"](), workers=1).run()
    assert executed < total - 1
    assert not _runtime_threads()


# ----------------------------------------------------------------------
# processor 0: the calling thread runs units, lanes exist on demand
# ----------------------------------------------------------------------
@pytest.fixture
def thread_starts(monkeypatch) -> list[str]:
    """Names of the threads started while the test runs."""
    started: list[str] = []
    real_start = threading.Thread.start

    def start(self):
        started.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


@pytest.mark.parametrize(
    "wl_name", ("transitive_closure", "retail_rollup", "points_to")
)
def test_one_worker_starts_no_thread(
    compiled_workloads, expected_new, thread_starts, wl_name
):
    cu = compiled_workloads[wl_name]
    plan = build_execution_plan(cu)
    outcome = RoundExecutor(plan, REGISTRY["hybrid"](), workers=1).run()
    assert thread_starts == []
    assert plan.materialization(outcome.values).as_dict() == (
        expected_new[wl_name]
    )


def test_served_chain_rounds_start_no_thread(thread_starts):
    """``tc``'s G is a 3-node chain: whatever ``workers`` allows, no
    dispatch stage selects two units, so nothing is ever handed off."""
    wl = live_workload("tc", seed=5)
    svc = UpdateStreamService(
        wl.program, wl.edb, REGISTRY["hybrid"](), workers=4
    )
    executed = 0
    for batches in make_stream(wl, "mixed", rounds=5, batch_size=2):
        for delta in batches:
            svc.submit(delta)
        report = svc.run_round()
        assert report.materialization_ok
        executed += report.metrics.tasks_executed
    assert executed > 0
    assert thread_starts == []


@pytest.mark.parametrize("workers", (2, 4))
def test_width_spawns_at_most_workers_minus_one_lanes(
    thread_starts, workers
):
    """A lane is started by the hand-off that needs it, and the service
    keeps it: over the whole stream at most P − 1 lanes start, they
    park between rounds, and ``close`` joins them."""
    wl = live_workload("retail", seed=5)
    svc = UpdateStreamService(
        wl.program, wl.edb, REGISTRY["hybrid"](), workers=workers
    )
    per_round = []
    for batches in make_stream(wl, "steady", rounds=5, batch_size=2):
        for delta in batches:
            svc.submit(delta)
        before = len(thread_starts)
        assert svc.run_round().materialization_ok
        per_round.append(len(thread_starts) - before)
        assert len(_runtime_threads()) == sum(per_round)
    assert all(n.startswith("repro-runtime") for n in thread_starts)
    # the first round runs all of G, whose sources are independent: its
    # first stage selects several units and keeps one
    assert 1 <= per_round[0]
    assert sum(per_round) <= workers - 1
    svc.close()
    assert not _runtime_threads()


def test_kill_on_processor_zero_replaces_no_thread(
    compiled_workloads, expected_new, thread_starts
):
    """A kill drawn for the caller's own unit is the same capacity-loss
    event as a lane's — re-dispatch, a dead-time window, no retry
    charged — with no thread to lose or replace."""
    cu = compiled_workloads["retail_rollup"]
    plan = build_execution_plan(cu)
    injector = ChaosInjector(
        ChaosPlan(seed=1, worker_kill_prob=1.0, max_kills_per_unit=1)
    )
    outcome = RoundExecutor(
        plan, REGISTRY["hybrid"](), workers=1, chaos=injector
    ).run()
    assert outcome.lane_deaths == len(outcome.records)
    assert outcome.unit_retries == 0
    assert len(outcome.retry_intervals) == outcome.lane_deaths
    assert thread_starts == []
    assert plan.materialization(outcome.values).as_dict() == (
        expected_new["retail_rollup"]
    )


def test_chaos_log_does_not_depend_on_who_ran_the_unit():
    """Decisions are keyed by (seed, kind, epoch, node, attempt): a
    stream served entirely on processor 0 and one served with a lane
    draw the same faults."""

    def canonical_log(workers):
        wl = live_workload("retail", seed=5)
        svc = UpdateStreamService(
            wl.program,
            wl.edb,
            REGISTRY["hybrid"](),
            workers=workers,
            chaos=ChaosPlan(
                seed=17,
                unit_fail_prob=0.3,
                unit_latency_prob=0.2,
                unit_latency_s=(0.0003, 0.001),
                worker_kill_prob=0.15,
            ),
            unit_retries=8,
            unit_backoff_s=0.0005,
        )
        for batches in make_stream(wl, "steady", rounds=6, batch_size=2):
            for delta in batches:
                svc.submit(delta)
            svc.run_round()
        svc.close()
        assert not _runtime_threads()
        return svc.chaos.canonical()

    log = canonical_log(workers=1)
    assert log and log == canonical_log(workers=2)
