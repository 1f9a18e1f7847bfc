"""Deletion-heavy and mixed streams through the full service stack.

The weighted-delta core's safety net: retraction-skewed and
churn-heavy streams must land on the from-scratch materialization with
the plan cache warm or never warm, with chaos on or off, under every
registered scheduler — while the coalescing machinery (cancelled ops,
no-op rounds, weighted index application) demonstrably engages. The
library engine of :mod:`repro.datalog` — the served round's procedure
run serially, no scheduler — is replayed over the same streams, and
held to decide what a served round decides.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import (
    Delta,
    IncrementalEngine,
    apply_zdelta,
    effective_zdelta,
    merge_deltas,
    seminaive_evaluate,
)
from repro.runtime import (
    ChaosPlan,
    HealthPolicy,
    UpdateStreamService,
    live_workload,
    make_stream,
)
from repro.schedulers import scheduler_registry

from .conftest import edb_is_mirror, serve_ticks

REGISTRY = scheduler_registry()
ROUNDS = 6


def _materialized_stream(program: str, kind: str, seed: int, **kw):
    """Workload plus a pre-generated stream (list of batch lists).

    ``make_stream`` mutates the workload's mirror as it generates, so
    the stream is materialized once and the same batches are fed to
    every service under comparison.
    """
    wl = live_workload(program, seed=seed)
    rounds = [
        list(batches)
        for batches in make_stream(wl, kind, rounds=ROUNDS, **kw)
    ]
    return wl, rounds


def _serve(wl, rounds, scheduler, cold=False):
    return serve_ticks(
        wl.program, wl.edb, rounds, scheduler=scheduler, cold=cold
    )


def _assert_served(wl, svc):
    """The service's answer is the from-scratch one, and its EDB the
    stream's mirror."""
    mat = svc.materialization()
    assert mat is not None
    oracle, _ = seminaive_evaluate(wl.program, svc.database())
    assert mat.as_dict() == oracle.as_dict()
    assert edb_is_mirror(wl, svc.database())


class TestCacheDifferential:
    """Plan cache warm vs never warm: the hit path (touched relations
    derived from the committed baseline, the bound plan restamped and
    diffed against committed node values) and the miss path (EDB
    copied, plan bound, all of the static DAG run) serve retraction
    streams to the same from-scratch answer. The differential against
    ``compile_update`` itself is
    ``tests/datalog/test_plan_cache_differential.py``."""

    @pytest.mark.parametrize("sched_name", sorted(REGISTRY))
    @pytest.mark.parametrize("kind", ("deletions", "mixed"))
    def test_cache_on_off_identical(self, sched_name, kind):
        wl, rounds = _materialized_stream("flat", kind, seed=11,
                                          batch_size=3)
        warm = _serve(wl, rounds, scheduler=sched_name)
        cold = _serve(wl, rounds, scheduler=sched_name, cold=True)
        _assert_served(wl, warm)
        _assert_served(wl, cold)
        assert warm.plan_cache.stats()["hits"] > 0
        assert cold.plan_cache.stats()["hits"] == 0

    def test_recursive_program_deletion_stream(self):
        # deletion-heavy streams over the recursive TC workload too
        wl, rounds = _materialized_stream("tc", "deletions", seed=7,
                                          batch_size=2)
        svc = _serve(wl, rounds, scheduler="hybrid")
        _assert_served(wl, svc)


class TestChaosDifferential:
    """Chaos on vs off: deletion streams still converge byte-identical
    (the retried rounds replay the same weighted deltas)."""

    @pytest.mark.parametrize("kind", ("deletions", "mixed"))
    def test_chaos_on_off_identical(self, kind):
        wl, rounds = _materialized_stream("flat", kind, seed=13,
                                          batch_size=3)
        base = _serve(wl, rounds, scheduler="hybrid")
        chaos = ChaosPlan(
            seed=5,
            unit_fail_prob=0.2,
            unit_latency_prob=0.1,
            unit_latency_s=(0.0003, 0.001),
        )
        svc = UpdateStreamService(
            wl.program,
            wl.edb,
            REGISTRY["hybrid"](),
            workers=2,
            chaos=chaos,
            unit_retries=5,
            unit_backoff_s=0.0005,
            max_round_retries=8,
            health=HealthPolicy(degrade_after=4, fail_after=16,
                                probe_after=1),
        )
        for batches in rounds:
            for delta in batches:
                svc.submit(delta)
            while svc.pending_batches() > 0:
                try:
                    svc.run_round()
                except Exception as exc:  # typed, re-queued, retried
                    assert getattr(exc, "delta_requeued", False), exc
        assert svc.materialization() is not None
        assert (
            svc.materialization().as_dict()
            == base.materialization().as_dict()
        )
        assert svc.database().as_dict() == base.database().as_dict()


class TestCoalescing:
    """Cancelled pairs measurably skip compilation and index work."""

    def test_pure_churn_round_is_noop(self):
        wl = live_workload("flat", seed=3)
        svc = UpdateStreamService(
            wl.program, wl.edb, REGISTRY["hybrid"](), workers=2
        )
        # a first real round, so a materialization exists
        svc.submit(wl.random_batch(2))
        first = svc.run_round()
        assert first is not None and not first.metrics.noop
        mat_before = svc.materialization().as_dict()
        # then a round of pure insert/retract churn
        for delta in wl.churn_batches(3):
            svc.submit(delta)
        rep = svc.run_round()
        m = rep.metrics
        assert m.noop is True
        assert m.tasks_executed == 0 and m.n_nodes == 0
        assert m.cancelled_ops > 0
        assert m.compile_s == 0.0 and m.execute_s == 0.0
        assert rep.compiled is None and rep.artifacts is None
        assert rep.materialization_ok
        assert svc.materialization().as_dict() == mat_before
        assert svc.pending_batches() == 0
        # no-op rounds still count and land in the metrics log
        assert svc.metrics.rounds[-1].noop is True
        reg = svc.metrics.registry
        assert reg.counter("noop_rounds").value == 1

    def test_insert_then_delete_across_batches_cancels(self):
        wl = live_workload("flat", seed=3)
        svc = UpdateStreamService(
            wl.program, wl.edb, REGISTRY["hybrid"](), workers=2
        )
        svc.submit(wl.random_batch(2))
        assert svc.run_round() is not None
        # delete a present fact and immediately re-insert it: the two
        # queued batches coalesce to nothing
        pred = sorted(wl._mirror)[0]
        fact = sorted(wl._mirror[pred])[0]
        svc.submit(Delta().delete(pred, fact))
        svc.submit(Delta().insert(pred, fact))
        rep = svc.run_round()
        assert rep.metrics.noop is True
        # merge_deltas nets the pair to one op, which then cancels
        # against the live EDB
        assert rep.metrics.cancelled_ops == 1
        assert rep.metrics.batches_coalesced == 2

    def test_mixed_stream_reports_cancellations(self):
        wl, rounds = _materialized_stream("flat", "mixed", seed=17,
                                          batch_size=3)
        svc = _serve(wl, rounds, scheduler="hybrid")
        reg = svc.metrics.registry
        assert reg.counter("cancelled_ops").value > 0
        assert reg.counter("noop_rounds").value > 0
        stats = svc.plan_cache.stats()
        # the service clamps once and hands the cache the weighted
        # delta; the cache counts into the service's one registry
        for name in ("hits", "misses", "plan_patches"):
            assert stats[name] > 0
            assert reg.counter(f"plancache.{name}").value == stats[name]

    def test_first_round_with_empty_effective_delta_still_compiles(self):
        # before any materialization exists there is nothing to fall
        # back on: an all-cancelled first round must compile
        wl = live_workload("flat", seed=3)
        svc = UpdateStreamService(
            wl.program, wl.edb, REGISTRY["hybrid"](), workers=2
        )
        for delta in wl.churn_batches(2):
            svc.submit(delta)
        rep = svc.run_round()
        assert rep is not None and not rep.metrics.noop
        assert rep.compiled is not None
        assert svc.materialization() is not None


class TestEngineOracle:
    """:class:`~repro.datalog.IncrementalEngine` — the static DAG run
    serially over committed node values — is replayed here over the
    streams the service is tested on — the 18 cells DESIGN §15 measures
    (``scripts/size_engine.py`` times them) — and must equal
    from-scratch evaluation after every round: non-recursive, negation,
    aggregates, recursion. It is Z-set in, Z-set out: the round's
    ``net`` is the whole change, EDB and derived."""

    @pytest.mark.parametrize(
        "program", ("flat", "retail", "analytics", "tc", "pt", "sg")
    )
    @pytest.mark.parametrize("kind", ("deletions", "mixed", "steady"))
    def test_tracks_from_scratch(self, program, kind):
        wl, rounds = _materialized_stream(program, kind, seed=19,
                                          batch_size=3)
        engine = IncrementalEngine(wl.program, wl.edb)
        edb = wl.edb
        before = engine.db.copy()
        for batches in rounds:
            zdelta = effective_zdelta(edb, merge_deltas(batches))
            trace = engine.apply(zdelta)
            edb = apply_zdelta(edb, zdelta)
            oracle, _ = seminaive_evaluate(wl.program, edb)
            assert engine.snapshot() == oracle.as_dict()
            for pred, fact, w in zdelta.items():
                assert trace.net.weight(pred, fact) == w
            # what a fixpoint node needs of its body: the previous
            # materialization plus ``net`` is the new one, over every
            # predicate, and ``net`` is set-normal
            assert {w for _p, _f, w in trace.net.items()} <= {-1, 1}
            before = apply_zdelta(before, trace.net)
            assert before.as_dict() == engine.snapshot()
        assert edb_is_mirror(wl, edb)


class TestOneDecisionRule:
    """The library engine and a healthy served round run one procedure:
    over the same stream, the ``(node, mode)`` pairs each
    ``IncrementalEngine.apply`` reports are the ones the served round's
    units recorded in ``ValueStore.notes`` — the same nodes activated,
    and each decided to continue, maintain or recompute alike."""

    @pytest.mark.parametrize("program", ("tc", "pt", "analytics"))
    def test_engine_reports_what_the_served_round_ran(self, program):
        wl, rounds = _materialized_stream(program, "mixed", seed=19,
                                          batch_size=3)
        svc = UpdateStreamService(
            wl.program, wl.edb, REGISTRY["hybrid"](), workers=2
        )
        served: list[list] = []
        commit = svc.plan_cache.commit

        def recording(cu, values=None):
            assert values is not None  # the round verified
            names = cu.trace.dag.node_names
            served.append(sorted(
                (names[node], said["mode"])
                for node, said in values.notes.items()
            ))
            commit(cu, values)

        svc.plan_cache.commit = recording
        # the first served round is a miss over all of G: the engine
        # starts from its outcome, as its own construction is that miss
        for delta in rounds[0]:
            svc.submit(delta)
        svc.run_round()
        edb = svc.database()
        engine = IncrementalEngine(wl.program, edb)
        modes = set()
        for batches in rounds[1:]:
            served.clear()
            for delta in batches:
                svc.submit(delta)
            rep = svc.run_round()
            assert not rep.metrics.degraded
            zdelta = effective_zdelta(edb, merge_deltas(batches))
            edb = apply_zdelta(edb, zdelta)
            trace = engine.apply(zdelta)
            assert sorted(
                (label, mode) for label, mode, _rows in trace.events
            ) == (served[0] if served else [])
            modes.update(mode for _label, mode, _rows in trace.events)
        assert engine.snapshot() == svc.materialization().as_dict()
        assert modes  # stateful nodes ran: the comparison compared


class TestRandomizedStreams:
    @given(
        seed=st.integers(0, 2**16),
        kind=st.sampled_from(("deletions", "mixed")),
    )
    @settings(max_examples=10, deadline=None)
    def test_stream_matches_from_scratch(self, seed, kind):
        wl, rounds = _materialized_stream("flat", kind, seed=seed,
                                          batch_size=3)
        svc = _serve(wl, rounds, scheduler="levelbased")
        if svc.materialization() is not None:
            _assert_served(wl, svc)
