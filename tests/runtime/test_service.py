"""The update-stream service: coalescing, backpressure, correctness.

Includes the PR's acceptance criterion: multi-round serving under every
registered scheduler keeps the materialization byte-identical to a
from-scratch semi-naive evaluation of the accumulated database.
"""

from __future__ import annotations

import weakref

import pytest

from repro.datalog import CompiledProgramCache, Delta, seminaive_evaluate
from repro.runtime import (
    BackpressureError,
    HealthState,
    MaterializationDivergenceError,
    UpdateStreamService,
    live_workload,
    make_stream,
    metrics,
)
from repro.schedulers import scheduler_registry
from repro.workloads.datalog_workloads import DATALOG_WORKLOADS
from repro.workloads.generated import UpdateStream, stratified_program

REGISTRY = scheduler_registry()


def make_service(program_name="retail", scheduler="hybrid", **kwargs):
    wl = live_workload(program_name, seed=11)
    svc = UpdateStreamService(
        wl.program, wl.edb, REGISTRY[scheduler](), workers=4, **kwargs
    )
    return wl, svc


class TestQueueing:
    def test_empty_queue_returns_none(self):
        _, svc = make_service()
        assert svc.run_round() is None

    def test_batches_coalesce_into_one_round(self):
        wl, svc = make_service()
        for _ in range(5):
            svc.submit(wl.random_batch(1))
        rep = svc.run_round()
        assert rep is not None
        assert rep.metrics.batches_coalesced == 5
        assert svc.pending_batches() == 0
        assert svc.run_round() is None

    def test_coalesced_round_equals_sequential_rounds(self):
        """One 3-batch round lands on the same EDB as 3 one-batch rounds."""
        wl_a = live_workload("retail", seed=3)
        wl_b = live_workload("retail", seed=3)
        svc_a = UpdateStreamService(
            wl_a.program, wl_a.edb, REGISTRY["hybrid"](), workers=2
        )
        svc_b = UpdateStreamService(
            wl_b.program, wl_b.edb, REGISTRY["hybrid"](), workers=2
        )
        batches_a = [wl_a.random_batch(2) for _ in range(3)]
        batches_b = [wl_b.random_batch(2) for _ in range(3)]
        for b in batches_a:
            svc_a.submit(b)
        svc_a.run_round()
        for b in batches_b:
            svc_b.submit(b)
            svc_b.run_round()
        assert svc_a.database().as_dict() == svc_b.database().as_dict()
        assert (
            svc_a.materialization().as_dict()
            == svc_b.materialization().as_dict()
        )

    def test_backpressure_raises_when_full(self):
        wl, svc = make_service(capacity=2)
        svc.submit(wl.random_batch(1))
        svc.submit(wl.random_batch(1))
        with pytest.raises(BackpressureError):
            svc.submit(wl.random_batch(1), block=False)
        with pytest.raises(BackpressureError):
            svc.submit(wl.random_batch(1), timeout=0.01)

    def test_capacity_must_be_positive(self):
        wl = live_workload("retail", seed=0)
        with pytest.raises(ValueError, match="capacity"):
            UpdateStreamService(
                wl.program, wl.edb, REGISTRY["hybrid"](), capacity=0
            )

    @pytest.mark.parametrize(
        "arg, value, named",
        [
            ("workers", 0, "workers"),
            ("workers", -2, "workers"),
            ("unit_timeout_s", 0.0, "unit_timeout_s"),
            ("unit_timeout_s", -1.0, "unit_timeout_s"),
            ("deadline_s", -1.0, "deadline"),
        ],
    )
    def test_unrunnable_round_limits_are_refused(self, arg, value, named):
        """A service no healthy round can run used to construct: every
        round then raised ``ValueError`` (or, for the deadline,
        ``DeadlineExceededError``), was re-queued, tripped the breaker
        and was served degraded forever. Construction refuses it."""
        wl = live_workload("tc", seed=0)
        with pytest.raises(ValueError, match=named):
            UpdateStreamService(
                wl.program, wl.edb, REGISTRY["hybrid"](), **{arg: value}
            )

    def test_removed_backend_and_layout_are_refused(self):
        """``executor``/``storage`` accept only the one surviving cell."""
        wl = live_workload("retail", seed=1)
        args = (wl.program, wl.edb, REGISTRY["hybrid"]())
        with pytest.raises(ValueError, match="process executor.*removed"):
            UpdateStreamService(*args, executor="process")
        with pytest.raises(ValueError, match="row storage.*removed"):
            UpdateStreamService(*args, storage="row")
        UpdateStreamService(*args, executor="thread", storage="columnar")

    def test_lenient_mode_is_not_a_choice(self):
        """``strict`` accepts only ``True``: a round whose check fails
        raises, rolls back and is retried; nothing adopts the
        reference."""
        wl = live_workload("retail", seed=1)
        args = (wl.program, wl.edb, REGISTRY["hybrid"]())
        with pytest.raises(ValueError, match="lenient mode was removed"):
            UpdateStreamService(*args, strict=False)
        UpdateStreamService(*args, strict=True)

    def test_cold_compile_and_maintenance_are_not_choices(self):
        """``plan_cache`` accepts only ``True`` — the cache is there
        from construction — and ``maintenance`` went with its engine."""
        wl = live_workload("retail", seed=1)
        args = (wl.program, wl.edb, REGISTRY["hybrid"]())
        with pytest.raises(ValueError, match="cold compilation.*removed"):
            UpdateStreamService(*args, plan_cache=False)
        with pytest.raises(TypeError, match="maintenance"):
            UpdateStreamService(*args, maintenance="bf")
        svc = UpdateStreamService(*args, plan_cache=True)
        assert isinstance(svc.plan_cache, CompiledProgramCache)

    def test_rejects_update_to_derived_predicate(self):
        _, svc = make_service()
        with pytest.raises(ValueError, match="derived predicate"):
            svc.submit(Delta().insert("in_category", ("p0", 1)))
        assert svc.pending_batches() == 0

    @pytest.mark.parametrize(
        "bad",
        [
            Delta().insert("in_category", ("p0", 1)),  # derived
            Delta().insert("subcat", ("only-one",)),  # vs the program
            Delta().delete("subcat", ("a", "b", "c")),
            Delta().insert("other", ("x", 1, 2)),  # vs a served batch
            Delta().insert("tag", ("t",)),  # vs a batch still queued
            Delta().insert("fresh", ("x",)).delete("fresh", ("x", "y")),
        ],
        ids=["derived", "short", "long-delete", "served", "queued",
             "within-batch"],
    )
    def test_malformed_batch_is_refused_at_the_door(self, bad):
        """One producer's malformed batch used to be merged with the
        other producers' valid ones: the merged round raised
        ``ValueError`` on every retry, the breaker opened, and the valid
        batch was dropped with the poison one. ``submit`` refuses it
        instead — the offender gets the error, nothing is enqueued, and
        the good batch beside it is served by a healthy service."""
        _, svc = make_service()
        svc.submit(Delta().insert("other", ("seed", 0)))
        svc.run_round()
        good = Delta().insert("subcat", ("zzz-new", "zzz-parent"))
        svc.submit(good.insert("tag", ("t", 1)))
        with pytest.raises(ValueError):
            svc.submit(bad)
        assert svc.pending_batches() == 1
        rep = svc.run_round()
        assert rep is not None and rep.materialization_ok
        assert ("zzz-new", "zzz-parent") in svc.database().relations["subcat"]
        assert svc.health.transitions == []
        assert svc.health.state is HealthState.HEALTHY

    @pytest.mark.parametrize(
        "degraded", [False, True], ids=["healthy", "degraded"]
    )
    def test_delta_on_an_unmentioned_predicate_is_served(self, degraded):
        """A predicate no rule mentions has no EDB node: the fact is
        carried through to the EDB and the materialization, and no node
        activates (this used to raise ``KeyError: ('edb', 'other')`` on
        every retry until the delta was dropped) — on the executor's
        lanes, where nothing runs, and serially, where every node does
        and none changes."""
        wl, svc = make_service()
        if degraded:
            svc.health.state = HealthState.DEGRADED
        svc.submit(wl.random_batch(2))
        svc.run_round()
        svc.submit(Delta().insert("other", ("x", 1)))
        rep = svc.run_round()
        assert rep is not None and rep.materialization_ok
        m = rep.metrics
        assert m.degraded is degraded
        # a serial round walks every node
        assert m.n_active == m.tasks_executed == (
            m.n_nodes if degraded else 0
        )
        assert m.changed_facts == 1
        assert ("x", 1) in svc.database().relations["other"]
        assert ("x", 1) in svc.materialization().relations["other"]
        scratch, _ = seminaive_evaluate(wl.program, svc.database())
        assert svc.materialization().as_dict() == scratch.as_dict()
        # and the service keeps serving, the relation carried along
        svc.submit(wl.random_batch(2))
        rep = svc.run_round()
        assert rep is not None and rep.materialization_ok
        assert ("x", 1) in svc.materialization().relations["other"]


class TestSchedulerReuse:
    def test_one_scheduler_instance_across_rounds(self):
        """Satellite regression: ``reset_counters`` makes an instance
        reusable — including clearing the oracle's pending ready-event
        buffer a finished round may leave behind."""
        wl, svc = make_service(scheduler="logicblox")
        for _ in range(2):
            svc.submit(wl.random_batch(3))
            rep = svc.run_round()
            assert rep is not None
            assert rep.materialization_ok
            assert rep.verification is not None and rep.verification.ok
        # same instance served both rounds
        assert svc.metrics.rounds[0].scheduler == (
            svc.metrics.rounds[1].scheduler
        )
        assert len(svc.metrics.rounds) == 2

    def test_counters_are_per_round(self):
        wl, svc = make_service(scheduler="levelbased")
        svc.submit(wl.random_batch(2))
        first = svc.run_round().metrics.scheduler_ops
        svc.submit(wl.random_batch(2))
        second = svc.run_round().metrics.scheduler_ops
        # ops reflect one round each, not a running total
        assert first > 0 and second > 0
        assert second < first * 10


@pytest.mark.parametrize("sched_name", sorted(REGISTRY))
def test_acceptance_multi_round_consistency(sched_name):
    """Acceptance: N verified rounds, then the final materialization is
    byte-identical to from-scratch evaluation of the accumulated EDB."""
    wl = live_workload("retail", seed=5)
    svc = UpdateStreamService(
        wl.program, wl.edb, REGISTRY[sched_name](), workers=4
    )
    for batches in make_stream(wl, "bursty", rounds=6):
        for delta in batches:
            svc.submit(delta)
        rep = svc.run_round()
        assert rep is not None
        assert rep.materialization_ok
        assert rep.verification is not None and rep.verification.ok
    scratch, _ = seminaive_evaluate(wl.program, svc.database())
    assert scratch.as_dict() == svc.materialization().as_dict()


def test_run_drains_rounds_with_callback():
    wl, svc = make_service()
    for batches in make_stream(wl, "steady", rounds=4):
        for delta in batches:
            svc.submit(delta)
    seen = []
    reports = svc.run(rounds=10, timeout=0.01, on_round=seen.append)
    # 4 submitted ticks were coalesced into one queued backlog: the
    # first round drains everything, further rounds find nothing
    assert len(reports) == 1
    assert seen == reports
    assert reports[0].metrics.batches_coalesced == 4


def test_the_metrics_log_keeps_a_window_and_counts_every_round(monkeypatch):
    """A long-lived service's log is bounded: it keeps the last rounds,
    trimmed in chunks, while every whole-run total comes from the
    registry."""
    monkeypatch.setattr(metrics, "ROUND_WINDOW", 8)
    wl = live_workload("tc", seed=11)
    svc = UpdateStreamService(
        wl.program, wl.edb, REGISTRY["hybrid"](), workers=2, verify=False
    )
    indexes = []
    for batches in make_stream(wl, "mixed", rounds=40, batch_size=2):
        for delta in batches:
            svc.submit(delta)
        indexes.append(svc.run_round().metrics.index)
        assert len(svc.metrics.rounds) <= 16
    log = svc.metrics
    assert [m.index for m in log.rounds] == indexes[-len(log.rounds):]
    assert len(log.rounds) >= 8
    assert log.n_rounds == 40
    assert log.summary().startswith("40 rounds, ")
    payload = log.to_json_dict()
    assert payload["n_rounds"] == 40
    assert len(payload["rounds"]) == len(log.rounds)


def test_metrics_json_shape():
    wl, svc = make_service()
    svc.submit(wl.random_batch(2))
    svc.run_round()
    payload = svc.metrics.to_json_dict()
    assert payload["n_rounds"] == 1
    assert payload["rounds_per_sec"] > 0
    assert set(payload["latency"]) == {"p50", "p90", "p99"}
    round0 = payload["rounds"][0]
    assert round0["scheduler"] == "Hybrid"
    assert round0["latency_s"] > 0
    assert round0["tasks_executed"] >= 0


def _changed_facts_source(name):
    """``(program, edb, ticks)``: a shipped program on its ``mixed``
    stream, or a generated one (``gen-<seed>``) under its seeded
    update stream — six ticks of batches either way."""
    if name.startswith("gen-"):
        seed = int(name[len("gen-"):])
        gen = stratified_program(seed)
        stream = UpdateStream(gen, seed)
        ticks = [[stream.batch(), stream.batch()] for _ in range(6)]
        return gen.program, gen.edb, ticks
    wl = live_workload(name, seed=11)
    return wl.program, wl.edb, list(make_stream(wl, "mixed", rounds=6))


@pytest.mark.parametrize(
    "name", [*sorted(DATALOG_WORKLOADS), "gen-5", "gen-23"]
)
def test_changed_facts_is_the_old_to_new_materialization_diff(name):
    """``changed_facts`` — the sum of the final nodes' Z-sets — is
    |db_old Δ db_new| of the two from-scratch materializations, on
    rounds that change facts and on rounds that leave whole relations
    alone, on rounds whose fixpoint nodes continue and on every third
    one, forced degraded and run serially; the first round, with no
    materialization before it, changes every fact it holds."""
    program, edb, ticks = _changed_facts_source(name)
    svc = UpdateStreamService(program, edb, REGISTRY["hybrid"](), workers=4)
    seen = 0
    old = {}
    for i, batches in enumerate(ticks):
        forced = i % 3 == 1
        svc.health.plan_round = lambda: forced
        for delta in batches:
            svc.submit(delta)
        rep = svc.run_round()
        if rep is None or rep.compiled is None:
            continue
        assert rep.metrics.degraded is forced
        new = seminaive_evaluate(program, rep.compiled.edb_new)[0].as_dict()
        expected = sum(
            len(old.get(p, set()) ^ new.get(p, set()))
            for p in old.keys() | new.keys()
        )
        assert rep.metrics.changed_facts == expected
        seen += expected
        old = new
    assert seen > 0


def test_a_committed_round_frees_the_previous_edb_generation():
    """The report a round returns holds its new EDB, not the one it
    replaced: the replaced generation is freed when the round commits,
    inside its ``latency_s``, not whenever the caller drops the
    report."""
    wl, svc = make_service()
    svc.submit(wl.random_batch(2))
    first = svc.run_round()
    assert first is not None and first.compiled is not None
    replaced = weakref.ref(first.compiled.edb_new)
    del first
    assert replaced() is not None
    svc.submit(wl.random_batch(2, delete_frac=0.0))
    rep = svc.run_round()
    assert rep is not None and rep.compiled is not None
    assert rep.compiled.edb_old is None
    assert replaced() is None


def test_diverging_unit_output_is_caught_relation_by_relation():
    """A unit that drops a fact makes the round's final values differ
    from from-scratch evaluation: the round raises with the fact
    count."""
    wl, svc = make_service("tc", scheduler="levelbased")
    real_plan = svc.plan_cache.plan

    def lossy_plan(cu):
        plan = real_plan(cu)
        node = plan.final_nodes["path"]
        unit = plan.units[node]
        run = unit.run

        def lossy(values):
            rel, zset = run(values)
            rel = rel.copy()
            rel.discard(min(rel))
            return rel, zset

        unit.run = lossy
        return plan

    svc.plan_cache.plan = lossy_plan
    svc.submit(wl.random_batch(2))
    with pytest.raises(MaterializationDivergenceError, match="1 facts differ"):
        svc.run_round()
