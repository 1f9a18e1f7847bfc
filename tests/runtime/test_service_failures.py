"""Failed-round regression: the queue must survive a mid-round crash.

Historically the service called ``task_done()`` only on the success
path, so any failing round (executor deadline, unit crash, strict
verification failure) left the queue's unfinished-task count high
forever — producers blocked in ``Queue.join()`` hung — and silently
dropped every drained batch. These tests pin the fix under every
registered scheduler: the accounting is settled either way, the merged
delta is re-queued at the front (within the retry budget) or surfaced
on the exception, and the round after a failure produces a
materialization byte-identical to the from-scratch serial oracle.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.datalog import Delta, seminaive_evaluate
from repro.runtime import (
    RoundVerificationError,
    UnitExecutionError,
    UpdateStreamService,
    live_workload,
)
from repro.runtime import service as service_mod
from repro.schedulers import scheduler_registry
from repro.verify.invariants import VerificationReport, Violation

from .conftest import edb_is_mirror

REGISTRY = scheduler_registry()


def make_service(scheduler="hybrid", **kwargs):
    wl = live_workload("retail", seed=11)
    svc = UpdateStreamService(
        wl.program, wl.edb, REGISTRY[scheduler](), workers=4, **kwargs
    )
    return wl, svc


class _Boom(RuntimeError):
    pass


def fail_n_rounds(monkeypatch, n):
    """Patch the service's executor to crash on the first ``n`` runs."""
    real = service_mod.RoundExecutor
    calls = {"n": 0}

    class FlakyExecutor:
        def __init__(self, *args, **kwargs):
            self._inner = real(*args, **kwargs)

        def run(self):
            calls["n"] += 1
            if calls["n"] <= n:
                raise UnitExecutionError(0, "probe", _Boom("injected"))
            return self._inner.run()

    monkeypatch.setattr(service_mod, "RoundExecutor", FlakyExecutor)
    return calls


def join_unblocks(svc, timeout=5.0) -> bool:
    """Whether a producer blocked in ``Queue.join()`` wakes up."""
    done = threading.Event()
    th = threading.Thread(target=lambda: (svc._queue.join(), done.set()))
    th.start()
    th.join(timeout)
    return done.is_set()


@pytest.mark.parametrize("name", sorted(REGISTRY))
class TestFailedRoundUnderEveryScheduler:
    def test_failure_requeues_delta_and_settles_queue(
        self, name, monkeypatch
    ):
        wl, svc = make_service(name)
        fail_n_rounds(monkeypatch, 1)
        batch = wl.random_batch(2)
        svc.submit(batch)
        with pytest.raises(UnitExecutionError) as ei:
            svc.run_round()
        # the failed-round policy: surfaced AND re-queued at the front
        assert ei.value.delta_requeued is True
        assert isinstance(ei.value.failed_delta, Delta)
        assert svc.pending_batches() == 1
        # task_done accounting settled despite the failure: a producer
        # blocked in Queue.join() must wake (the historical hang)
        assert join_unblocks(svc)
        # EDB did not advance on the failed round
        assert svc.database().as_dict() == wl.edb.as_dict()

    def test_retry_round_matches_serial_oracle(self, name, monkeypatch):
        wl, svc = make_service(name)
        fail_n_rounds(monkeypatch, 1)
        svc.submit(wl.random_batch(2))
        with pytest.raises(UnitExecutionError):
            svc.run_round()
        rep = svc.run_round()  # retries the re-queued delta, no new input
        assert rep is not None
        assert rep.materialization_ok
        assert svc.pending_batches() == 0
        # no delta was lost: the accumulated EDB re-evaluated from
        # scratch is byte-identical to the round's materialization
        oracle, _ = seminaive_evaluate(wl.program, svc.database())
        assert svc.materialization().as_dict() == oracle.as_dict()

    def test_failure_preserves_interleaved_batches(self, name, monkeypatch):
        """A batch submitted after the crash still lands exactly once."""
        wl, svc = make_service(name)
        fail_n_rounds(monkeypatch, 1)
        first = wl.random_batch(2)
        svc.submit(first)
        with pytest.raises(UnitExecutionError):
            svc.run_round()
        second = wl.random_batch(2)
        svc.submit(second)
        # retried delta comes first, new batch coalesces behind it
        rep = svc.run_round()
        assert rep is not None
        assert rep.metrics.batches_coalesced == 2
        oracle, _ = seminaive_evaluate(wl.program, svc.database())
        assert svc.materialization().as_dict() == oracle.as_dict()


class TestRetryBudget:
    def test_budget_exhaustion_surfaces_and_drops_delta(self, monkeypatch):
        wl, svc = make_service("hybrid", max_round_retries=1)
        fail_n_rounds(monkeypatch, 10)
        svc.submit(wl.random_batch(2))
        with pytest.raises(UnitExecutionError) as e1:
            svc.run_round()
        assert e1.value.delta_requeued is True
        assert svc.pending_batches() == 1
        with pytest.raises(UnitExecutionError) as e2:
            svc.run_round()
        # budget (1 retry) exhausted: dropped from the service, handed
        # to the caller on the exception
        assert e2.value.delta_requeued is False
        assert isinstance(e2.value.failed_delta, Delta)
        assert svc.pending_batches() == 0
        assert join_unblocks(svc)

    def test_service_recovers_after_poison_delta_dropped(self):
        """A structurally-bad delta exhausts its budget, then service
        keeps serving good batches. ``submit`` refuses such a delta, so
        it is put on the queue behind its back: the compile-side check
        is the second line of defence."""
        wl, svc = make_service("hybrid", max_round_retries=1)
        poison = Delta().insert("in_category", ("p0", 1))  # derived pred
        svc._queue.put((poison, time.perf_counter()))
        for _ in range(2):  # initial attempt + 1 retry
            with pytest.raises(ValueError):
                svc.run_round()
        assert svc.pending_batches() == 0
        svc.submit(wl.random_batch(2))
        rep = svc.run_round()
        assert rep is not None and rep.materialization_ok

    def test_success_resets_the_budget(self, monkeypatch):
        wl, svc = make_service("hybrid", max_round_retries=1)
        calls = fail_n_rounds(monkeypatch, 1)
        svc.submit(wl.random_batch(1))
        with pytest.raises(UnitExecutionError):
            svc.run_round()
        assert svc.run_round() is not None  # retry succeeds
        # a later failure gets a fresh budget: it re-queues again
        calls["n"] = 0  # re-arm the flaky executor for one more failure
        svc.submit(wl.random_batch(1))
        with pytest.raises(UnitExecutionError) as ei:
            svc.run_round()
        assert ei.value.delta_requeued is True

    def test_negative_budget_rejected(self):
        wl = live_workload("retail", seed=1)
        with pytest.raises(ValueError):
            UpdateStreamService(
                wl.program, wl.edb, REGISTRY["hybrid"](),
                max_round_retries=-1,
            )


class TestTypedVerificationError:
    def test_invariant_failure_raises_typed_error(self, monkeypatch):
        wl, svc = make_service("hybrid")
        report = VerificationReport(
            trace_name="t",
            scheduler_name="s",
            processors=4,
            violations=[Violation(kind="precedence", detail="injected")],
        )
        monkeypatch.setattr(
            service_mod.RoundArtifacts, "check", lambda self: report
        )
        svc.submit(wl.random_batch(1))
        with pytest.raises(RoundVerificationError) as ei:
            svc.run_round()
        # typed: carries the report; compatible: still an AssertionError
        assert ei.value.report is report
        assert ei.value.round_index == 0
        assert isinstance(ei.value, AssertionError)
        assert "injected" in str(ei.value)
        # the verification failure follows the same failed-round policy
        assert ei.value.delta_requeued is True
        assert svc.pending_batches() == 1
        assert join_unblocks(svc)


class TestPlanCacheRollback:
    """A failed round must not leak its staged compile into the cache.

    The plan cache stages each round's compile and patches the bound
    plan *before* execution; if the round then fails, the retry must
    recompile from the last committed baseline — never from state the
    failed round staged or patched.
    """

    def test_failed_round_rolls_back_staged_compile(self, monkeypatch):
        wl, svc = make_service("hybrid")
        fail_n_rounds(monkeypatch, 1)
        svc.submit(wl.random_batch(2))
        with pytest.raises(UnitExecutionError):
            svc.run_round()
        stats = svc.plan_cache.stats()
        assert stats["rollbacks"] == 1
        # nothing was committed: the failed round's compile was a miss
        # and the baseline is still empty, so the retry misses again
        # instead of reusing state staged by the failure
        rep = svc.run_round()
        assert rep is not None and rep.materialization_ok
        stats = svc.plan_cache.stats()
        assert stats["misses"] == 2 and stats["hits"] == 0
        # ...and only the *successful* round was committed: the next
        # round reuses its verified baseline. A tiny random batch can
        # coalesce to a no-op round (which never touches the cache),
        # so feed until a round actually compiles.
        while True:
            svc.submit(wl.random_batch(1))
            rep = svc.run_round()
            assert rep.materialization_ok
            if not rep.metrics.noop:
                break
        assert svc.plan_cache.stats()["hits"] == 1

    def test_failure_after_warm_cache_retries_from_committed_state(
        self, monkeypatch
    ):
        """Fail a round *after* the cache is warm: the retry must hit
        the committed baseline (not recompile cold, not reuse the
        failed round's staging) and still match the serial oracle."""
        wl, svc = make_service("hybrid")
        for _ in range(2):
            svc.submit(wl.random_batch(2))
            assert svc.run_round().materialization_ok
        committed_edb = svc.database().as_dict()
        fail_n_rounds(monkeypatch, 1)
        svc.submit(wl.random_batch(2))
        with pytest.raises(UnitExecutionError):
            svc.run_round()
        assert svc.plan_cache.stats()["rollbacks"] == 1
        assert svc.database().as_dict() == committed_edb
        rep = svc.run_round()
        assert rep is not None and rep.materialization_ok
        oracle, _ = seminaive_evaluate(wl.program, svc.database())
        assert svc.materialization().as_dict() == oracle.as_dict()

    def test_verification_failure_rolls_back_too(self, monkeypatch):
        wl, svc = make_service("hybrid")
        report = VerificationReport(
            trace_name="t",
            scheduler_name="s",
            processors=4,
            violations=[Violation(kind="precedence", detail="injected")],
        )
        monkeypatch.setattr(
            service_mod.RoundArtifacts, "check", lambda self: report
        )
        svc.submit(wl.random_batch(1))
        with pytest.raises(RoundVerificationError):
            svc.run_round()
        assert svc.plan_cache.stats()["rollbacks"] == 1
        assert svc.pending_batches() == 1

    def test_cached_stream_with_midstream_failure_matches_uncached(
        self, monkeypatch
    ):
        """Round-by-round differential across a failure: a service whose
        cached round crashes and retries mid-stream stays byte-identical
        to the uncached answer — from-scratch evaluation of its EDB —
        and its EDB to the stream's mirror (the retried batch landed
        once)."""
        wl, svc = make_service("hybrid")
        calls = fail_n_rounds(monkeypatch, 0)  # armed below
        for i in range(5):
            svc.submit(wl.random_batch(2))
            if i == 2:
                calls["n"] = -1  # next executor run crashes
                with pytest.raises(UnitExecutionError):
                    svc.run_round()
            rep = svc.run_round()
            assert rep.materialization_ok
            scratch, _ = seminaive_evaluate(wl.program, svc.database())
            assert svc.materialization().as_dict() == scratch.as_dict(), (
                f"round {i}: cached (with failure) diverges from scratch"
            )
        assert svc.plan_cache.stats()["rollbacks"] == 1
        assert edb_is_mirror(wl, svc.database())

    def test_commit_requires_matching_staged_compile(self):
        from repro.datalog import compile_update

        wl, svc = make_service("hybrid")
        cache = svc.plan_cache
        foreign = compile_update(wl.program, wl.edb, wl.random_batch(1))
        with pytest.raises(ValueError, match="staged"):
            cache.commit(foreign)
        # rollback with nothing staged is a no-op, not an error
        cache.rollback()
        assert cache.stats()["rollbacks"] == 0


class TestRollbackAtEveryUnitIndex:
    """S3: chaos-targeted unit failure at every index of a cached round.

    The plan cache restamps the one bound plan in place before
    execution, so the rollback contract must hold no matter *which* unit
    the round dies on — an EDB source, a rule task, a predicate node or
    the fixpoint node of a recursive SCC. For every registered scheduler: warm the cache with one
    round, then for each unit the cached round actually executes,
    inject a one-shot failure at exactly that unit
    (``ChaosPlan(fail_units=(node,), fail_round=1)`` — epoch 1 is the
    first cached round), assert the rollback, and check the retry
    converges byte-identically to from-scratch evaluation of the same
    batches.
    """

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_rollback_matrix(self, name):
        from repro.runtime import ChaosPlan

        wl = live_workload("retail", seed=13)
        batches = [wl.random_batch(2) for _ in range(2)]

        # probe run discovers which units the cached round executes
        probe = UpdateStreamService(
            wl.program, wl.edb, REGISTRY[name](), workers=4
        )
        probe.submit(batches[0])
        probe.run_round()
        probe.submit(batches[1])
        rep = probe.run_round()
        # the compiled trace only knows the initial tasks; what ran is
        # on the recorded schedule
        executed = sorted(r.node for r in rep.artifacts.result.schedule)
        keys = rep.compiled.node_keys
        assert {keys[n][0] for n in executed} >= {"edb", "fix", "pred"}, (
            "cached round missed a node kind — bad workload"
        )
        want = seminaive_evaluate(wl.program, probe.database())[0].as_dict()
        assert probe.materialization().as_dict() == want

        for node in executed:
            svc = UpdateStreamService(
                wl.program,
                wl.edb,
                REGISTRY[name](),
                workers=4,
                chaos=ChaosPlan(fail_units=(node,), fail_round=1),
                max_round_retries=2,
            )
            svc.submit(batches[0])
            assert svc.run_round().materialization_ok  # warm, epoch 0
            svc.submit(batches[1])
            with pytest.raises(UnitExecutionError) as ei:
                svc.run_round()  # cached round, epoch 1: dies at `node`
            assert ei.value.node == node
            assert ei.value.delta_requeued is True
            assert svc.plan_cache.stats()["rollbacks"] == 1
            # retry (epoch 2) draws nothing — the latch is one-shot —
            # and must recompile from the committed baseline
            retry = svc.run_round()
            assert retry is not None and retry.materialization_ok
            assert svc.materialization().as_dict() == want, (
                f"{name}: rollback after failing unit {node} diverged"
            )


class TestQueueWait:
    def test_queue_wait_measured_from_oldest_batch(self):
        wl, svc = make_service("hybrid")
        svc.submit(wl.random_batch(1))
        time.sleep(0.05)
        svc.submit(wl.random_batch(1))
        rep = svc.run_round()
        assert rep is not None
        # latency starts after the drain; the 50ms the oldest batch sat
        # queued shows up in queue_wait_s, not latency_s
        assert rep.metrics.queue_wait_s >= 0.045

    def test_queue_wait_near_zero_for_immediate_round(self):
        wl, svc = make_service("hybrid")
        svc.submit(wl.random_batch(1))
        rep = svc.run_round()
        assert rep is not None
        assert rep.metrics.queue_wait_s < 0.05
        assert rep.metrics.queue_wait_s >= 0.0
