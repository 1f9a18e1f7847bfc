"""Deletion-heavy and mixed streams through the full service stack.

That such streams land on the from-scratch materialization — warm or
cold cache, chaos on or off, every scheduler, the library engine
replayed beside them — is ``test_differential.py``'s contract table.
What stays here: the coalescing machinery (cancelled ops, no-op
rounds) demonstrably engages, and the library engine of
:mod:`repro.datalog` — the served round's procedure run serially, no
scheduler — decides what a served round decides.
"""

from __future__ import annotations

import pytest

from repro.datalog import (
    Delta,
    IncrementalEngine,
    apply_zdelta,
    effective_zdelta,
    merge_deltas,
)
from repro.runtime import UpdateStreamService, live_workload, make_stream
from repro.schedulers import scheduler_registry

from .conftest import serve_ticks

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


def _serve(wl, rounds, scheduler):
    return serve_ticks(wl.program, wl.edb, rounds, scheduler=scheduler)


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
