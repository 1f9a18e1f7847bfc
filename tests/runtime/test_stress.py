"""Concurrency stress: N producer threads against a live service.

Producers push bursty update batches from their own threads while the
service thread runs verified rounds — per scheduler. Marked with a
timeout so a deadlock in the executor/service fails fast under CI's
tier-1 step (pytest-timeout + faulthandler) instead of hanging it.
"""

from __future__ import annotations

import threading

import pytest

from repro.datalog import seminaive_evaluate
from repro.runtime import BackpressureError, UpdateStreamService, live_workload
from repro.schedulers import scheduler_registry

REGISTRY = scheduler_registry()

N_PRODUCERS = 4
BATCHES_PER_PRODUCER = 6


@pytest.mark.timeout(120)
@pytest.mark.parametrize("sched_name", sorted(REGISTRY))
def test_producers_vs_service(sched_name):
    wl = live_workload("retail", seed=13)
    svc = UpdateStreamService(
        wl.program,
        wl.edb,
        REGISTRY[sched_name](),
        workers=4,
        capacity=8,
    )
    # batches are pre-generated on the main thread (the workload mirror
    # is not thread-safe); producers contend on the bounded queue
    plans = [
        [wl.random_batch(2) for _ in range(BATCHES_PER_PRODUCER)]
        for _ in range(N_PRODUCERS)
    ]
    errors: list[BaseException] = []

    def producer(batches):
        try:
            for delta in batches:
                svc.submit(delta, block=True, timeout=30.0)
        except BaseException as exc:  # surfaced by the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=producer, args=(p,), daemon=True)
        for p in plans
    ]
    for t in threads:
        t.start()

    total = N_PRODUCERS * BATCHES_PER_PRODUCER
    served = 0
    while served < total:
        rep = svc.run_round(block=True, timeout=10.0)
        if rep is None:
            break
        assert rep.materialization_ok
        assert rep.verification is not None and rep.verification.ok
        served += rep.metrics.batches_coalesced
    for t in threads:
        t.join(timeout=30.0)
        assert not t.is_alive()

    assert not errors
    assert served == total
    # every producer's updates are in the accumulated database, and the
    # served materialization equals a from-scratch evaluation of it
    scratch, _ = seminaive_evaluate(wl.program, svc.database())
    assert scratch.as_dict() == svc.materialization().as_dict()


@pytest.mark.timeout(60)
def test_backpressure_under_flood():
    """A non-blocking flood hits BackpressureError, then recovers."""
    wl = live_workload("tc", seed=3)
    svc = UpdateStreamService(
        wl.program, wl.edb, REGISTRY["hybrid"](), workers=2, capacity=4
    )
    hit = 0
    for _ in range(10):
        try:
            svc.submit(wl.random_batch(1), block=False)
        except BackpressureError:
            hit += 1
    assert hit == 6  # exactly capacity batches were accepted
    rep = svc.run_round()
    assert rep is not None and rep.metrics.batches_coalesced == 4
    # queue drained: submits flow again
    svc.submit(wl.random_batch(1), block=False)
    assert svc.run_round() is not None
