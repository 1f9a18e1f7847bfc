"""Served EDB generations: a successor takes its predecessor's rows.

A round's EDB relation is the :meth:`~repro.datalog.database.Relation
.successor` of the committed one: it holds the committed generation's
row sets, and the committed generation reads on as the successor minus
the round's Δ. These tests serve streams through the paths that lean on
that: a failed round, rolled back and retried from the predecessor it
already derived a (discarded) successor of; reports kept from earlier
rounds, whose EDB generations are read after later rounds took their
rows; and a program that states facts for an EDB predicate, whose
entry relation is a true copy of a relation the EDB still holds live.
"""

from __future__ import annotations

import random

import pytest

from repro.datalog import Database, Delta, parse_program, seminaive_evaluate
from repro.runtime import (
    ChaosPlan,
    InjectedPhaseFault,
    MaterializationDivergenceError,
    UpdateStreamService,
    live_workload,
    make_stream,
)
from repro.schedulers import scheduler_registry


def _facts(db: Database) -> dict[str, set]:
    return {p: set(rel) for p, rel in db.relations.items()}


def test_a_failed_round_retries_from_its_predecessor(monkeypatch):
    """Rounds 3 and 8 diverge on their first attempt and chaos fails
    some verify phases: each failed round is rolled back after its
    successors took the committed rows, and its retry derives again from
    that committed generation (a hit, not a miss). The final EDB is the
    stream's mirror, the final materialization the row oracle's over
    it, and every report kept from an earlier round still reads the EDB
    generation it published."""
    wl = live_workload("retail", seed=5)
    svc = UpdateStreamService(
        wl.program, wl.edb, scheduler_registry()["hybrid"](), workers=2,
        verify=True, strict=True, max_round_retries=4,
        chaos=ChaosPlan(seed=2, verify_fail_prob=0.25),
    )
    diverge = {3, 8}
    real = UpdateStreamService._verify_phase

    def verify(self, *args, **kwargs):
        if self._rounds_run in diverge:
            diverge.discard(self._rounds_run)
            raise MaterializationDivergenceError(1, "forced")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(UpdateStreamService, "_verify_phase", verify)
    kept = []
    failed = {"MaterializationDivergenceError": 0, "InjectedPhaseFault": 0}
    try:
        for batches in make_stream(wl, "steady", rounds=16):
            for delta in batches:
                svc.submit(delta)
            while True:
                try:
                    report = svc.run_round()
                    break
                except (
                    MaterializationDivergenceError, InjectedPhaseFault
                ) as exc:
                    assert exc.delta_requeued
                    failed[type(exc).__name__] += 1
            if not report.metrics.noop:
                edb = report.compiled.edb_new
                kept.append((edb, _facts(edb)))
    finally:
        svc.close()
    assert not diverge and all(failed.values()), failed
    cache = svc.plan_cache
    assert cache.rollbacks == sum(failed.values())
    assert cache.misses == 1  # every retry was derived from the committed
    want = wl.database()
    assert _facts(svc.database()) == _facts(want)
    oracle, _ = seminaive_evaluate(wl.program, want)
    assert svc.materialization() == oracle
    assert len(kept) >= 10
    for edb, then in kept:
        assert _facts(edb) == then
        assert {p: len(rel) for p, rel in edb.relations.items()} == {
            p: len(facts) for p, facts in then.items()
        }


STATED = """
edge(1, 2).
edge(2, 3).
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
"""


@pytest.mark.parametrize("seed", [0, 1])
def test_an_entry_relation_copies_the_live_edb_relation(seed):
    """``edge`` is an EDB predicate the program states two facts for, so
    every round's entry relation for it is the EDB's relation plus
    those facts: a copy, while the EDB reads on from its own relation
    and derives the next round's from it. Over 12 rounds that insert
    and delete edges — the stated ones too — every round equals the row
    oracle over the stream's facts, and the service's ``edge`` holds
    exactly the stream's facts, never a stated one it was not given."""
    program = parse_program(STATED)
    edb = Database()
    for i in range(4, 12):
        edb.add_fact("edge", (i, i + 1))
    stream = set(edb.relations["edge"])
    rng = random.Random(seed)

    def flip(delta: Delta, fact: tuple) -> None:
        if fact in stream:
            delta.delete("edge", fact)
            stream.discard(fact)
        else:
            delta.insert("edge", fact)
            stream.add(fact)

    svc = UpdateStreamService(
        program, edb, scheduler_registry()["hybrid"](), workers=2,
        verify=True, strict=True,
    )
    try:
        for _ in range(12):
            delta = Delta()
            for _ in range(3):
                flip(delta, (rng.randrange(12), rng.randrange(12)))
            if rng.random() < 0.5:  # a stated fact, given or taken
                flip(delta, rng.choice([(1, 2), (2, 3)]))
            svc.submit(delta)
            svc.run_round()  # a round that diverges raises
            assert set(svc.database().relations["edge"]) == stream
            given = Database()
            given.relation("edge", 2).extend(stream)
            oracle, _ = seminaive_evaluate(program, given)
            assert svc.materialization() == oracle
    finally:
        svc.close()
