"""Pins on the live fault layer.

That under a seeded fault plan and every registered scheduler the
update-stream service either lands on the fault-free run's state or
fails cleanly with a typed error and an intact, recoverable queue is
``test_differential.py``'s contract g. What stays here: replaying the
same seed is bit-identical (canonical fault log, per-round success
pattern, final materialization), the clean-failure arm under
certain-death chaos, and the empty plan's fast path.

Everything here runs real threads: worker-lane kills, injected unit
exceptions and latency, compile/verify phase failures — with the
executor's retry machinery and the service's failed-round policy
absorbing them.
"""

from __future__ import annotations

import pytest

from repro.runtime import (
    ChaosError,
    ChaosPlan,
    HealthPolicy,
    MaterializationDivergenceError,
    RoundVerificationError,
    ServiceUnavailableError,
    UnitExecutionError,
    UpdateStreamService,
    live_workload,
)
from repro.schedulers import scheduler_registry
from repro.sim.faults import DeadlineExceededError

REGISTRY = scheduler_registry()
ROUNDS = 5

#: every typed error a chaos-stressed round may surface; anything else
#: escaping the service is a bug
TYPED_ERRORS = (
    ChaosError,
    UnitExecutionError,
    RoundVerificationError,
    MaterializationDivergenceError,
    DeadlineExceededError,
)

#: moderate blend of every fault source — enough to hit retries, lane
#: replacement, and phase failures in a handful of rounds
CHAOS_MIX = dict(
    unit_fail_prob=0.25,
    unit_latency_prob=0.15,
    unit_latency_s=(0.0003, 0.0015),
    worker_kill_prob=0.10,
    compile_fail_prob=0.05,
    verify_fail_prob=0.05,
)


def _stream(seed: int):
    """One live workload plus a pre-generated batch stream.

    Batches are generated once and shared between the fault-free and
    chaos runs — ``merge_deltas`` never mutates its inputs, so the two
    services see identical updates.
    """
    wl = live_workload("retail", seed=seed)
    return wl, [wl.random_batch() for _ in range(ROUNDS)]


def _serve(sched_name: str, wl, batches, chaos: ChaosPlan | None):
    """Drive every batch through the service; absorb typed failures.

    Returns ``(service, dropped, round_ok_pattern)`` where ``dropped``
    counts deltas that exhausted the round-retry budget (surfaced on
    the exception, per the failed-round policy) and the pattern records
    each maintain attempt's success/failure for replay comparison.
    """
    svc = UpdateStreamService(
        wl.program,
        wl.edb,
        REGISTRY[sched_name](),
        workers=4,
        chaos=chaos,
        unit_retries=5,
        unit_backoff_s=0.0005,
        max_round_retries=8,
        health=HealthPolicy(degrade_after=3, fail_after=12, probe_after=1),
    )
    dropped = 0
    pattern: list[bool] = []
    for delta in batches:
        svc.submit(delta)
        while svc.pending_batches() > 0:
            try:
                svc.run_round()
                pattern.append(True)
            except ServiceUnavailableError:
                return svc, dropped, pattern
            except TYPED_ERRORS as exc:
                pattern.append(False)
                # failed-round policy: the delta is either re-queued
                # (we loop and retry) or surfaced on the exception
                assert exc.failed_delta is not None
                if not exc.delta_requeued:
                    dropped += 1
                    break
    return svc, dropped, pattern


def test_same_seed_replay_is_bit_identical():
    """Replaying a chaos seed reproduces the run exactly."""
    wl, batches = _stream(seed=5)
    chaos = ChaosPlan(seed=5, **CHAOS_MIX)
    svc_a, dropped_a, pattern_a = _serve("hybrid", wl, batches, chaos)
    svc_b, dropped_b, pattern_b = _serve("hybrid", wl, batches, chaos)
    assert pattern_a == pattern_b
    assert dropped_a == dropped_b
    assert svc_a.chaos.canonical() == svc_b.chaos.canonical()
    assert svc_a.chaos.injected_total == svc_b.chaos.injected_total
    mat_a, mat_b = svc_a.materialization(), svc_b.materialization()
    assert (mat_a is None) == (mat_b is None)
    if mat_a is not None:
        assert mat_a.as_dict() == mat_b.as_dict()


def test_unrecoverable_round_fails_typed_with_intact_queue():
    """The clean-failure arm of the keystone contract.

    Under certain-death chaos the round fails with a typed error; the
    merged delta is surfaced on the exception once the retry budget is
    gone, nothing hangs, and after the chaos clears the surfaced delta
    can be resubmitted and the service converges to the oracle.
    """
    wl = live_workload("retail", seed=9)
    batch = wl.random_batch()
    oracle = UpdateStreamService(
        wl.program, wl.edb, REGISTRY["hybrid"](), workers=4
    )
    oracle.submit(batch)
    oracle.run_round()

    svc = UpdateStreamService(
        wl.program,
        wl.edb,
        REGISTRY["hybrid"](),
        workers=4,
        chaos=ChaosPlan(seed=9, unit_fail_prob=1.0),
        unit_retries=1,
        unit_backoff_s=0.0005,
        max_round_retries=1,
        health=HealthPolicy(degrade_after=8, fail_after=9, probe_after=1),
    )
    svc.submit(batch)
    failures = []
    for _ in range(2):
        with pytest.raises(UnitExecutionError) as exc_info:
            svc.run_round()
        failures.append(exc_info.value)
    # first failure re-queued the delta, second exhausted the budget
    assert failures[0].delta_requeued is True
    assert failures[1].delta_requeued is False
    failed_delta = failures[1].failed_delta
    assert failed_delta is not None
    assert svc.pending_batches() == 0
    # EDB never advanced — the failed round left no partial state
    assert svc.database().as_dict() == wl.edb.as_dict()

    # chaos clears; the surfaced delta is resubmitted and converges
    svc.chaos = None
    svc.submit(failed_delta)
    report = svc.run_round()
    assert report is not None and report.materialization_ok
    assert svc.materialization().as_dict() == (
        oracle.materialization().as_dict()
    )


def test_no_chaos_path_unchanged_by_empty_plan():
    """An empty ChaosPlan must not even build an injector."""
    wl = live_workload("retail", seed=2)
    svc = UpdateStreamService(
        wl.program, wl.edb, REGISTRY["hybrid"](), chaos=ChaosPlan()
    )
    assert svc.chaos is None
    svc.submit(wl.random_batch())
    report = svc.run_round()
    assert report.materialization_ok
    assert report.metrics.injected_faults == 0
    assert report.metrics.unit_retries == 0
