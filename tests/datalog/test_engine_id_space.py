"""One evaluator under the one engine: `IncrementalEngine` stays in id space.

The engine joins through the compiled columnar rule plans and recomputes
with the evaluator's own stratum loop; the per-tuple row evaluator is
the oracle it is compared with, never its worker. These tests pin that
with call counters over replayed streams of a recursive program (`tc`),
one with negation (`retail`) and one with aggregates (`analytics`): no
row join during construction or `apply`, `evaluate_stratum` once per
recomputed stratum and never for a positive one, only the changed rows
externed, untouched relations carried over by identity, and a mirror
mutated under its relation (`discard_row` / `extend` + `adopt`) leaving
indexes and value face right.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.datalog.incremental as incremental
import repro.datalog.seminaive as seminaive
import repro.datalog.unify as unify
from repro.datalog import (
    Database,
    Delta,
    IncrementalEngine,
    apply_zdelta,
    effective_zdelta,
    merge_deltas,
    parse_program,
    seminaive_evaluate,
)
from repro.datalog.columnar import ColumnarRelation
from repro.datalog.database import Relation
from repro.runtime import live_workload, make_stream

PROGRAMS = ("tc", "retail", "analytics")
ROUNDS = 10


def _stream(name: str):
    """A workload and its steady stream as one exact ``ZSetDelta`` a round."""
    wl = live_workload(name, seed=19)
    edb, zdeltas = wl.edb, []
    for batches in make_stream(wl, "steady", rounds=ROUNDS, batch_size=3):
        zdeltas.append(effective_zdelta(edb, merge_deltas(list(batches))))
        edb = apply_zdelta(edb, zdeltas[-1])
    return wl, zdeltas, edb


def _sensitive_strata(engine: IncrementalEngine) -> list[tuple[set, set]]:
    """``(heads, inputs read under negation or by an aggregate rule)`` of
    every stratum that has rules — read off the program, not the engine's
    own bookkeeping."""
    out = []
    for stratum in engine.strata:
        rules = [
            r for r in engine.program.proper_rules
            if r.head.predicate in stratum
        ]
        if rules:
            out.append((
                {r.head.predicate for r in rules},
                {
                    lit.atom.predicate
                    for r in rules
                    for lit in r.body
                    if lit.atom is not None
                    and (lit.negated or r.has_aggregate)
                },
            ))
    return out


@pytest.mark.parametrize("name", PROGRAMS)
def test_engine_never_calls_the_row_evaluator(monkeypatch, name):
    calls: Counter = Counter()
    # every name the two functions are bound to
    for module, fn in (
        (unify, "join_body"), (unify, "eval_rule"), (seminaive, "eval_rule"),
    ):
        real = getattr(module, fn)

        def counting(*args, _real=real, _fn=fn, **kwargs):
            calls[_fn] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, fn, counting)
    assert not {"join_body", "instantiate_head", "eval_rule"} & set(
        vars(incremental)
    )

    wl, zdeltas, edb = _stream(name)
    engine = IncrementalEngine(wl.program, wl.edb)
    changed = sum(engine.apply(z).net.op_count() for z in zdeltas)
    assert changed > 0
    assert calls == Counter()
    # the counters do count: the oracle is the row evaluator
    oracle, _ = seminaive_evaluate(wl.program, edb)
    assert calls["eval_rule"] > 0 and calls["join_body"] > 0
    assert engine.snapshot() == oracle.as_dict()


@pytest.mark.parametrize("name", PROGRAMS)
def test_evaluate_stratum_runs_once_per_recomputed_stratum(
    monkeypatch, name
):
    recomputed: list[set] = []
    real = incremental.evaluate_stratum

    def counting(rules, *args, **kwargs):
        recomputed.append({rule.head.predicate for _ri, rule in rules})
        return real(rules, *args, **kwargs)

    monkeypatch.setattr(incremental, "evaluate_stratum", counting)
    wl, zdeltas, _edb = _stream(name)
    engine = IncrementalEngine(wl.program, wl.edb)
    assert recomputed == []  # materializing is seminaive's business
    strata = _sensitive_strata(engine)
    total = 0
    for zdelta in zdeltas:
        recomputed.clear()
        trace = engine.apply(zdelta)
        # sensitive inputs live in lower strata, final in ``net`` by the
        # time their reader is reached: a stratum is recomputed iff one
        # of them changed, once — a positive stratum never is
        assert recomputed == [
            heads for heads, sensitive in strata
            if any(map(trace.net.touches, sensitive))
        ]
        total += len(recomputed)
    assert (total > 0) == (name != "tc")


@pytest.mark.parametrize("name", PROGRAMS)
def test_only_changed_rows_leave_id_space(name):
    wl, zdeltas, _edb = _stream(name)
    engine = IncrementalEngine(wl.program, wl.edb)
    assert engine.pool.externs == 0  # materialized, nobody has read it
    strata = _sensitive_strata(engine)
    for zdelta in zdeltas:
        relations = dict(engine.db.relations)
        externs = engine.pool.externs
        trace = engine.apply(zdelta)
        assert engine.pool.externs - externs <= trace.net.op_count()
        # a relation the round did not touch — unchanged, and not a
        # head of a recomputed stratum — is the same object
        recomputed = set().union(*(
            heads for heads, sensitive in strata
            if any(map(trace.net.touches, sensitive))
        ))
        for pred, rel in relations.items():
            if not trace.net.touches(pred) and pred not in recomputed:
                assert engine.db.relations[pred] is rel
    # ... until someone reads the facts: once, then they are kept
    externs = engine.pool.externs
    snap = engine.snapshot()
    n_derived = sum(len(snap[p]) for p in wl.program.idb_predicates())
    assert engine.pool.externs - externs == n_derived
    assert engine.snapshot() == snap
    assert engine.pool.externs - externs == n_derived


def test_mirror_indexes_and_value_face_survive_delete_and_insert():
    prog = parse_program(
        """
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- path(X, Y), edge(Y, Z).
        """
    )
    edb = Database()
    for i in range(6):
        edb.add_fact("edge", (i, i + 1))
    edb.add_fact("edge", (0, 3))
    engine = IncrementalEngine(prog, edb)
    rel = engine.db.relations["path"]
    mirror = rel.columnar(engine.pool)
    # probe an index into existence on the mirror and read the value
    # face (and a value-space index) before the engine mutates the
    # mirror behind the relation's back
    mirror.index((1,))
    assert len(list(rel.match({0: 0}))) == 6
    for delta in (
        Delta().delete("edge", (3, 4)),
        Delta().insert("edge", (2, 5)).delete("edge", (0, 1)),
    ):
        trace = engine.apply(delta)
        assert trace.net.touches("path")
        assert engine.db.relations["path"] is rel
        assert rel.columnar(engine.pool) is mirror
        facts = engine.snapshot()["path"]
        edb = apply_zdelta(edb, effective_zdelta(edb, delta))
        assert facts == seminaive_evaluate(prog, edb)[0].as_dict()["path"]
        # every index the mirror carries equals one built from scratch
        rebuilt = ColumnarRelation.from_facts(engine.pool, "path", 2, facts)
        assert (1,) in mirror.index_patterns()
        for positions in mirror.index_patterns():
            assert mirror.index(positions) == rebuilt.index(positions)
        # and the value face was rebuilt, not left stale
        fresh = Relation("path", 2)
        fresh.extend(facts)
        for x in range(7):
            assert set(rel.match({0: x})) == set(fresh.match({0: x}))
