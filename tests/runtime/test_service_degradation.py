"""Graceful degradation: health state machine, breaker, load shedding.

The circuit-breaker ladder under sustained chaos: healthy rounds fail
→ the breaker opens and rounds fall back to the serial reference
oracle with the plan cache bypassed → fallback successes earn a
fast-path probe → the probe closes the breaker (or reopens it) → past
``fail_after`` the service refuses rounds entirely with an intact
queue. Plus the S2 backpressure contract and the three shed policies.
"""

from __future__ import annotations

import time

import pytest

from repro.datalog.incremental import merge_deltas
from repro.datalog.units import build_execution_plan
from repro.runtime import service as service_module
from repro.runtime import (
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
)
from repro.schedulers import scheduler_registry

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
def test_service_degrades_to_serial_fallback_and_recovers(monkeypatch):
    wl = live_workload("retail", seed=21)
    batch = wl.random_batch()
    oracle = _oracle(wl, [batch])
    # healthy rounds plan through the cache, so only degraded rounds
    # build a cold plan
    cold_plans = []

    def spy_build(*args, **kwargs):
        cold_plans.append(build_execution_plan(*args, **kwargs))
        return cold_plans[-1]

    monkeypatch.setattr(service_module, "build_execution_plan", spy_build)

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

    # the re-queued delta now runs on the serial fallback — immune to
    # unit chaos — and neither reads nor commits the plan cache
    before = cache_counts()
    report = svc.run_round()
    assert cache_counts() == before
    assert report is not None
    assert report.metrics.degraded is True
    assert report.artifacts is None  # no concurrent schedule to record
    assert report.metrics.workers == 1
    # the breaker falls back to the row oracle, not a columnar plan
    assert len(cold_plans) == 1 and cold_plans[0].ctx.pool is None
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
    svc.submit(wl.random_batch())
    before = cache_counts()
    r2 = svc.run_round()  # probe on the fast path
    assert r2.metrics.degraded is False
    assert svc.health.state is HealthState.HEALTHY
    assert any(t[3] == "probe-succeeded" for t in svc.health.transitions)
    # the degraded rounds moved the EDB past the cache's committed
    # baseline, so the probe compiles as a miss; the round after it
    # reuses what the probe committed
    assert cache_counts()["misses"] == before["misses"] + 1
    assert cache_counts()["hits"] == before["hits"]
    while True:  # a tiny batch can coalesce to a no-op round
        svc.submit(wl.random_batch())
        if not svc.run_round().metrics.noop:
            break
    assert cache_counts()["misses"] == before["misses"] + 1
    assert cache_counts()["hits"] == before["hits"] + 1


def test_service_trips_to_failed_with_intact_queue():
    wl = live_workload("retail", seed=22)
    batch = wl.random_batch()
    oracle = _oracle(wl, [batch])

    # verify-phase chaos kills the fallback too: the serial oracle
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
