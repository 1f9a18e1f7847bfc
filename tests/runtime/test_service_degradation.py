"""Graceful degradation: health state machine, breaker, load shedding.

The circuit-breaker ladder under sustained chaos: healthy rounds fail
→ the breaker opens and rounds run the same cached plan serially on the
service thread → serial successes earn a fast-path probe → the probe
closes the breaker (or reopens it) → past ``fail_after`` the service
refuses rounds entirely with an intact queue. Plus the S2 backpressure
contract and the three shed policies.
"""

from __future__ import annotations

import time

import pytest

from repro.datalog import Delta, seminaive_evaluate
from repro.datalog.incremental import merge_deltas
from repro.runtime import (
    PROGRAM_ALIASES,
    BackpressureError,
    ChaosPlan,
    HealthMonitor,
    HealthPolicy,
    HealthState,
    InjectedPhaseFault,
    ServiceUnavailableError,
    UnitExecutionError,
    UpdateStreamService,
    live_workload,
    make_stream,
)
from repro.schedulers import scheduler_registry

from .conftest import serve_rounds

REGISTRY = scheduler_registry()


def _oracle(wl, batches):
    """Fault-free reference service fed the same batches, one round."""
    svc = UpdateStreamService(
        wl.program, wl.edb, REGISTRY["hybrid"](), workers=2
    )
    for b in batches:
        svc.submit(b)
    svc.run_round()
    return svc


# ----------------------------------------------------------------------
# HealthPolicy / HealthMonitor unit behavior
# ----------------------------------------------------------------------
def test_health_policy_validation():
    with pytest.raises(ValueError):
        HealthPolicy(degrade_after=0)
    with pytest.raises(ValueError):
        HealthPolicy(degrade_after=3, fail_after=3)
    with pytest.raises(ValueError):
        HealthPolicy(probe_after=0)


def test_monitor_ladder_degrade_probe_recover():
    mon = HealthMonitor(
        policy=HealthPolicy(degrade_after=2, fail_after=5, probe_after=2)
    )
    assert mon.state is HealthState.HEALTHY
    mon.record_failure(0, "Boom")
    assert mon.state is HealthState.HEALTHY
    mon.record_failure(1, "Boom")
    assert mon.state is HealthState.DEGRADED
    # fallback rounds until the probe countdown is met
    assert mon.plan_round() is True
    mon.record_success(2, degraded=True)
    assert mon.plan_round() is True
    mon.record_success(3, degraded=True)
    # two degraded successes -> the next round probes the fast path
    assert mon.plan_round() is False
    assert mon.probing
    mon.record_success(4, degraded=False)
    assert mon.state is HealthState.HEALTHY
    assert [(t[1], t[2]) for t in mon.transitions] == [
        ("healthy", "degraded"),
        ("degraded", "healthy"),
    ]
    assert mon.transitions[-1][3] == "probe-succeeded"


def test_monitor_failed_probe_restarts_countdown():
    mon = HealthMonitor(
        policy=HealthPolicy(degrade_after=1, fail_after=10, probe_after=1)
    )
    mon.record_failure(0, "Boom")
    assert mon.state is HealthState.DEGRADED
    mon.record_success(1, degraded=True)
    assert mon.plan_round() is False  # probe
    mon.record_failure(2, "Boom")
    assert mon.state is HealthState.DEGRADED
    assert mon.degraded_successes == 0  # countdown restarted
    assert mon.plan_round() is True


def test_monitor_trips_to_failed_and_resets():
    mon = HealthMonitor(
        policy=HealthPolicy(degrade_after=1, fail_after=3, probe_after=1)
    )
    for i in range(3):
        mon.record_failure(i, "Boom")
    assert mon.state is HealthState.FAILED
    mon.reset()
    assert mon.state is HealthState.HEALTHY
    assert mon.consecutive_failures == 0
    assert mon.transitions[-1][3] == "manual-reset"


# ----------------------------------------------------------------------
# service integration: the breaker ladder end to end
# ----------------------------------------------------------------------
def test_service_degrades_to_serial_fallback_and_recovers():
    wl = live_workload("retail", seed=21)
    batch = wl.random_batch()
    oracle = _oracle(wl, [batch])
    svc = UpdateStreamService(
        wl.program,
        wl.edb,
        REGISTRY["hybrid"](),
        workers=2,
        chaos=ChaosPlan(seed=1, unit_fail_prob=1.0),
        max_round_retries=10,
        health=HealthPolicy(degrade_after=2, fail_after=8, probe_after=1),
    )
    svc.submit(batch)
    for _ in range(2):
        with pytest.raises(UnitExecutionError):
            svc.run_round()
    assert svc.health.state is HealthState.DEGRADED

    def cache_counts():
        stats = svc.plan_cache.stats()
        return {
            k: stats[k]
            for k in ("hits", "misses", "plan_patches", "plan_binds")
        }

    # the re-queued delta now runs serially on the service thread —
    # the cached plan, every node of it, out of unit chaos's reach
    report = svc.run_round()
    assert report is not None
    m = report.metrics
    assert m.degraded is True
    assert report.artifacts is None  # no concurrent schedule to record
    assert m.workers == 1 and m.makespan_s == m.execute_s
    assert m.n_active == m.tasks_executed == m.n_nodes > 0
    assert m.columnar_probes > 0  # the columnar joins, not a row plan
    assert report.materialization_ok
    assert svc.materialization().as_dict() == (
        oracle.materialization().as_dict()
    )
    assert svc.pending_batches() == 0

    # one degraded success (probe_after=1) -> next round probes the
    # fast path; chaos is still lethal, so the probe fails and the
    # breaker stays open
    svc.submit(wl.random_batch())
    with pytest.raises(UnitExecutionError):
        svc.run_round()
    assert svc.health.state is HealthState.DEGRADED
    assert svc.health.degraded_successes == 0

    # the fault clears: fallback succeeds, then the probe closes the
    # breaker
    svc.chaos = None
    r1 = svc.run_round()  # re-queued delta, degraded
    assert r1.metrics.degraded is True
    before = cache_counts()
    while True:  # a tiny batch can coalesce to a no-op round
        svc.submit(wl.random_batch())
        r2 = svc.run_round()  # probe on the fast path
        if not r2.metrics.noop:
            break
    assert r2.metrics.degraded is False
    assert svc.health.state is HealthState.HEALTHY
    assert any(t[3] == "probe-succeeded" for t in svc.health.transitions)
    # the degraded rounds committed what they verified, so the probe
    # compiles as a hit on the one bound plan
    assert cache_counts() == {
        **before,
        "hits": before["hits"] + 1,
        "plan_patches": before["plan_patches"] + 1,
    }


def test_noop_round_is_no_evidence_for_the_breaker():
    """A batch that cancels against the live EDB runs no unit, so it
    must not clear the failure streak, count as a degraded success or
    pass for the probe (it used to close the breaker with lethal chaos
    still on)."""
    wl = live_workload("retail", seed=23)
    svc = UpdateStreamService(
        wl.program,
        wl.edb,
        REGISTRY["hybrid"](),
        workers=2,
        chaos=ChaosPlan(seed=1, unit_fail_prob=1.0),
        max_round_retries=0,  # a failed delta is dropped, not re-merged
        health=HealthPolicy(degrade_after=2, fail_after=8, probe_after=2),
    )
    health = svc.health
    pred = sorted(wl._mirror)[0]
    present = Delta().insert(pred, sorted(wl._mirror[pred])[0])

    def noop_round():
        before = (health.state, health.degraded_successes,
                  health.consecutive_failures, list(health.transitions))
        svc.submit(present)
        assert svc.run_round().metrics.noop is True
        assert before == (
            health.state, health.degraded_successes,
            health.consecutive_failures, health.transitions,
        )

    def real_round():
        svc.submit(wl.random_batch())
        return svc.run_round()

    lethal, svc.chaos = svc.chaos, None
    real_round()  # leaves the materialization a no-op round rests on
    svc.chaos = lethal
    with pytest.raises(UnitExecutionError):
        real_round()
    noop_round()  # the streak of one survives it ...
    with pytest.raises(UnitExecutionError):
        real_round()
    assert health.state is HealthState.DEGRADED  # ... and opens the breaker
    noop_round()
    assert real_round().metrics.degraded is True
    noop_round()  # one degraded success of two: still no probe
    assert health.plan_round() is True
    assert real_round().metrics.degraded is True
    noop_round()  # the probe is due, and stays due
    noop_round()
    with pytest.raises(UnitExecutionError):  # the probe, chaos still on
        real_round()
    assert health.state is HealthState.DEGRADED
    assert health.degraded_successes == 0


@pytest.mark.parametrize(
    "breaker",
    [lambda i: True, lambda i: i % 2 == 1],
    ids=["open", "alternating"],
)
@pytest.mark.parametrize("kind", ["steady", "deletions", "mixed"])
@pytest.mark.parametrize("name", sorted(set(PROGRAM_ALIASES.values())))
def test_degraded_rounds_track_row_evaluation_and_a_healthy_twin(
    name, kind, breaker
):
    """Who calls the units changes nothing else: with the breaker held
    open, or opened every other round, each round lands on the row
    evaluator's from-scratch answer and on a healthy twin's, and —
    degraded rounds commit to the cache — only the first is a miss."""
    wl = live_workload(name, seed=19)
    ticks = [
        list(batches)
        for batches in make_stream(wl, kind, rounds=6, batch_size=3)
    ]
    twins = zip(
        serve_rounds(wl.program, wl.edb, ticks, degraded=breaker),
        serve_rounds(wl.program, wl.edb, ticks),
    )
    for svc, healthy in twins:
        want, _ = seminaive_evaluate(wl.program, svc.database())
        got = svc.materialization().as_dict()
        assert got == want.as_dict()
        assert got == healthy.materialization().as_dict()
        assert svc.plan_cache.misses == 1
    assert any(m.degraded for m in svc.metrics.rounds)
    assert len(svc.metrics.rounds) == len(healthy.metrics.rounds) == 6


def test_service_trips_to_failed_with_intact_queue():
    wl = live_workload("retail", seed=22)
    batch = wl.random_batch()
    oracle = _oracle(wl, [batch])

    # verify-phase chaos kills the degraded round too: a serial run
    # cannot save a round whose verification itself is injected to fail
    svc = UpdateStreamService(
        wl.program,
        wl.edb,
        REGISTRY["hybrid"](),
        workers=2,
        chaos=ChaosPlan(seed=2, verify_fail_prob=1.0),
        max_round_retries=10,
        health=HealthPolicy(degrade_after=2, fail_after=3, probe_after=1),
    )
    svc.submit(batch)
    for _ in range(3):
        with pytest.raises(InjectedPhaseFault):
            svc.run_round()
    assert svc.health.state is HealthState.FAILED

    # failed state refuses service *before* draining: the re-queued
    # delta is still pending and the EDB never moved
    pending = svc.pending_batches()
    assert pending == 1
    with pytest.raises(ServiceUnavailableError) as exc_info:
        svc.run_round()
    assert exc_info.value.consecutive_failures == 3
    assert svc.pending_batches() == pending
    assert svc.database().as_dict() == wl.edb.as_dict()

    # operator recovery: clear the fault, reset the breaker, resume
    svc.chaos = None
    svc.health.reset()
    report = svc.run_round()
    assert report is not None and report.materialization_ok
    assert svc.materialization().as_dict() == (
        oracle.materialization().as_dict()
    )


# ----------------------------------------------------------------------
# S2: backpressure carries queue state; blocking submit can time out
# ----------------------------------------------------------------------
def test_backpressure_error_carries_queue_state():
    wl = live_workload("retail", seed=4)
    svc = UpdateStreamService(
        wl.program, wl.edb, REGISTRY["hybrid"](), capacity=1
    )
    svc.submit(wl.random_batch())
    with pytest.raises(BackpressureError) as exc_info:
        svc.submit(wl.random_batch(), block=False)
    err = exc_info.value
    assert err.pending_batches == 1
    assert err.capacity == 1


def test_blocking_submit_timeout_raises_backpressure():
    wl = live_workload("retail", seed=4)
    svc = UpdateStreamService(
        wl.program, wl.edb, REGISTRY["hybrid"](), capacity=1
    )
    svc.submit(wl.random_batch())
    t0 = time.perf_counter()
    with pytest.raises(BackpressureError) as exc_info:
        svc.submit(wl.random_batch(), block=True, timeout=0.05)
    assert time.perf_counter() - t0 >= 0.05
    assert exc_info.value.capacity == 1


# ----------------------------------------------------------------------
# load shedding: only while degraded, per policy
# ----------------------------------------------------------------------
def _degraded_service(wl, policy: str, capacity: int = 2):
    svc = UpdateStreamService(
        wl.program,
        wl.edb,
        REGISTRY["hybrid"](),
        capacity=capacity,
        shed_policy=policy,
    )
    svc.health.state = HealthState.DEGRADED
    return svc


def test_shed_policy_validation():
    wl = live_workload("retail", seed=6)
    with pytest.raises(ValueError, match="shed_policy"):
        UpdateStreamService(
            wl.program, wl.edb, REGISTRY["hybrid"](), shed_policy="panic"
        )


def test_shed_reject_fails_fast_even_for_blocking_submits():
    wl = live_workload("retail", seed=6)
    svc = _degraded_service(wl, "reject")
    svc.submit(wl.random_batch())
    svc.submit(wl.random_batch())
    t0 = time.perf_counter()
    with pytest.raises(BackpressureError) as exc_info:
        # blocking submit would wait while healthy; degraded reject
        # must fail immediately instead of piling onto a sick service
        svc.submit(wl.random_batch(), block=True, timeout=5.0)
    assert time.perf_counter() - t0 < 1.0
    assert exc_info.value.pending_batches == 2
    assert svc.shed_batches == 0


def test_shed_drop_oldest_evicts_and_converges():
    wl = live_workload("retail", seed=7)
    d1, d2, d3 = (wl.random_batch() for _ in range(3))
    svc = _degraded_service(wl, "drop-oldest")
    svc.submit(d1)
    svc.submit(d2)
    svc.submit(d3)  # full queue: d1 is evicted
    assert svc.shed_batches == 1
    assert svc.pending_batches() == 2
    # the surviving stream is d2, d3 — byte-identical to an oracle
    # that never saw d1
    svc.health.reset()
    svc.run_round()
    oracle = _oracle(wl, [d2, d3])
    assert svc.materialization().as_dict() == (
        oracle.materialization().as_dict()
    )


def test_shed_coalesce_harder_folds_queue_into_one_slot():
    wl = live_workload("retail", seed=8)
    d1, d2, d3 = (wl.random_batch() for _ in range(3))
    svc = _degraded_service(wl, "coalesce-harder")
    svc.submit(d1)
    svc.submit(d2)
    svc.submit(d3)  # full queue: everything folds into one slot
    assert svc.shed_batches == 2
    assert svc.pending_batches() == 1
    merged, _stamp = svc._queue.get_nowait()
    expect = merge_deltas([d1, d2, d3])
    assert merged.insertions == expect.insertions
    assert merged.deletions == expect.deletions
    svc._queue.task_done()


def test_shedding_never_engages_while_healthy():
    wl = live_workload("retail", seed=9)
    svc = UpdateStreamService(
        wl.program,
        wl.edb,
        REGISTRY["hybrid"](),
        capacity=1,
        shed_policy="drop-oldest",
    )
    svc.submit(wl.random_batch())
    with pytest.raises(BackpressureError):
        svc.submit(wl.random_batch(), block=False)
    assert svc.shed_batches == 0
