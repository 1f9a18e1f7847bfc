"""Lanes belong to whoever made them: a service's outlive its rounds.

An :class:`~repro.runtime.UpdateStreamService` keeps its lane threads
for its lifetime: each starts on the first hand-off that needs it,
parks between rounds, and stops at ``close()``. Per-round state travels
with each job, so a round still ends with every lane idle and every
late completion of an aborted round dropped, and a round run on its own
still starts and joins its lanes.
"""

from __future__ import annotations

import gc
import sys
import time
import weakref

import pytest

from repro.datalog.units import build_execution_plan
from repro.runtime import UpdateStreamService, live_workload, make_stream
from repro.runtime.chaos import ChaosInjector, ChaosPlan
from repro.runtime.executor import Lanes, RoundExecutor
from repro.schedulers import scheduler_registry
from repro.sim.faults import DeadlineExceededError

REGISTRY = scheduler_registry()


def _serve(program: str, rounds: int, workers: int = 2, **kw):
    wl = live_workload(program, seed=5)
    svc = UpdateStreamService(
        wl.program, wl.edb, REGISTRY["hybrid"](), workers=workers, **kw
    )
    for batches in make_stream(wl, "steady", rounds=rounds, batch_size=2):
        for delta in batches:
            svc.submit(delta)
        assert svc.run_round().materialization_ok
    return svc


def test_a_served_stream_starts_one_lane_at_two_workers(started):
    """``pt`` has width: its rounds hand units off, and every hand-off
    after the first finds the one lane parked."""
    svc = _serve("pt", rounds=50)
    assert [t.name for t in started] == ["repro-runtime-0"]
    assert started[0].is_alive() and started[0].daemon
    svc.close()


def test_close_joins_every_lane_and_is_idempotent(started):
    svc = _serve("retail", rounds=6, workers=4)
    assert started and all(t.is_alive() for t in started)
    svc.close()
    assert all(t.name.startswith("repro-runtime") for t in started)
    assert not any(t.is_alive() for t in started)
    svc.close()
    assert not any(t.is_alive() for t in started)


def test_a_round_after_close_starts_lanes_again(started):
    svc = _serve("retail", rounds=3, workers=3)
    n = len(started)
    svc.close()
    wl = live_workload("retail", seed=6)
    for batches in make_stream(wl, "steady", rounds=3, batch_size=2):
        for delta in batches:
            svc.submit(delta)
        assert svc.run_round().materialization_ok
    assert len(started) > n
    svc.close()
    assert not any(t.is_alive() for t in started)


def _slowed(plan, seconds):
    for unit in plan.units:
        original = unit.run

        def slow(values, _orig=original):
            time.sleep(seconds)
            return _orig(values)

        unit.run = slow
    return plan


def test_a_healthy_round_sees_nothing_of_an_aborted_one(
    compiled_workloads, expected_new, started
):
    """One set of lanes: a round whose lanes chaos kills, then a round
    the deadline aborts while its lanes are inside slow units, then a
    healthy round. The aborted round's units finish after it returned;
    their completions are dropped, the killed lanes are replaced on
    demand, and the healthy round — under a deadline, so a lane the
    count lost would fail it instead of hanging it — runs exactly its
    own units to the right answer."""
    cu = compiled_workloads["retail_rollup"]
    expected = expected_new["retail_rollup"]
    lanes = Lanes()

    def run(plan, **kw):
        return RoundExecutor(
            plan, REGISTRY["hybrid"](), workers=3, lanes=lanes, **kw
        ).run()

    plan = build_execution_plan(cu)
    killed = run(plan, chaos=ChaosInjector(
        ChaosPlan(seed=1, worker_kill_prob=1.0, max_kills_per_unit=1)
    ))
    assert killed.lane_deaths > 0
    assert plan.materialization(killed.values).as_dict() == expected

    with pytest.raises(DeadlineExceededError):
        run(_slowed(build_execution_plan(cu), 0.05), deadline=0.01)
    # the lanes let go of the aborted round before it returned
    assert lanes.parked.empty() and lanes.tasks.empty()

    plan = build_execution_plan(cu)
    healthy = run(plan, deadline=30.0)
    assert healthy.lane_deaths == 0 and healthy.unit_retries == 0
    assert sorted(healthy.records) == list(range(len(plan.units)))
    assert plan.materialization(healthy.values).as_dict() == expected
    assert lanes.live <= 2
    lanes.close()
    assert not any(t.is_alive() for t in started)


def test_a_round_on_its_own_joins_its_lanes(compiled_workloads, started):
    plan = build_execution_plan(compiled_workloads["retail_rollup"])
    RoundExecutor(plan, REGISTRY["hybrid"](), workers=4).run()
    assert started and not any(t.is_alive() for t in started)


def test_lanes_hold_under_a_short_switch_interval(monkeypatch, started):
    """More workers than cores, a 10 µs switch interval, lane kills and
    latency: every round ends with its lanes idle — its store freed
    without the collector — and never more than P − 1 lanes live, and
    each round runs under a deadline, so a lane the count lost fails it
    instead of hanging it."""
    stores = []
    real_run = RoundExecutor.run

    def run(self):
        outcome = real_run(self)
        stores.append(weakref.ref(outcome.values))
        return outcome

    monkeypatch.setattr(RoundExecutor, "run", run)
    wl = live_workload("retail", seed=7)
    svc = UpdateStreamService(
        wl.program, wl.edb, REGISTRY["hybrid"](), workers=4,
        chaos=ChaosPlan(
            seed=3, worker_kill_prob=0.2, unit_latency_prob=0.3,
            unit_latency_s=(0.0001, 0.0005),
        ),
        deadline_s=20.0,
    )
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    gc.disable()
    try:
        for batches in make_stream(wl, "steady", rounds=25, batch_size=2):
            for delta in batches:
                svc.submit(delta)
            report = svc.run_round()
            assert report.materialization_ok
            del report
            assert stores[-1]() is None
            assert 0 <= svc._lanes.live <= 3
    finally:
        gc.enable()
        sys.setswitchinterval(old)
        svc.close()
    assert svc.chaos.injected_total > 0
    assert not any(t.is_alive() for t in started)
