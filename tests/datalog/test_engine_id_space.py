"""One evaluator under the one engine: `IncrementalEngine` stays in id space.

The engine runs the static DAG's unit bodies — compiled columnar rule
plans, the evaluator's own stratum loop for a fixpoint node, seeded
with a Δ when it continues; the per-tuple row evaluator is the oracle
it is compared with, never its worker. These tests pin that with call
counters over replayed streams of a recursive program (`tc`), one with
negation (`retail`) and one with aggregates (`analytics`): no row join
during construction or `apply`, an unseeded `evaluate_stratum` once
per fixpoint node the trace reports as recomputed and never for a
task, only the changed rows
externed, a relation whose inputs did not change carried over by
identity, and committed relations never written — a node that changes
publishes a new relation with its indexes and value face right.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.datalog.incremental as incremental
import repro.datalog.seminaive as seminaive
import repro.datalog.unify as unify
import repro.datalog.units as units
from repro.datalog import (
    Database,
    Delta,
    DependencyGraph,
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


def _strata(program) -> list[tuple[set, set]]:
    """``(heads, what their rules read from below)`` of every stratum
    that has rules — read off the program, not the engine."""
    out = []
    for stratum in DependencyGraph(program).stratify():
        rules = [
            r for r in program.proper_rules if r.head.predicate in stratum
        ]
        if rules:
            out.append((
                {r.head.predicate for r in rules},
                {
                    q for r in rules for q, _neg in r.body_predicates()
                } - set(stratum),
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
    real = units.evaluate_stratum

    def counting(rules, *args, **kwargs):
        # a call seeded with a Δ continues: not a recompute
        if kwargs.get("delta") is None:
            recomputed.append({rule.head.predicate for _ri, rule in rules})
        return real(rules, *args, **kwargs)

    monkeypatch.setattr(units, "evaluate_stratum", counting)
    wl, zdeltas, _edb = _stream(name)
    depgraph = DependencyGraph(wl.program)
    strata = depgraph.stratify()
    engine = IncrementalEngine(wl.program, wl.edb)
    # the first materialization is a miss: every recursive SCC's
    # fixpoint node recomputes once
    assert sorted(map(sorted, recomputed)) == sorted(
        sorted(stratum) for stratum in strata
        if set(stratum) & depgraph.recursive_predicates()
    )
    modes = set()
    for zdelta in zdeltas:
        recomputed.clear()
        trace = engine.apply(zdelta)
        modes.update(mode for _label, mode, _rows in trace.events)
        # once per fixpoint node that says it recomputed, never for a
        # task, whatever it reads under negation or aggregates
        assert recomputed == [
            set(strata[int(label[len("fix@"):])])
            for label, mode, _rows in trace.events
            if label.startswith("fix@") and mode == "recompute"
        ]
    assert ("maintain" in modes) == (name != "tc")


@pytest.mark.parametrize("name", PROGRAMS)
def test_only_changed_rows_leave_id_space(name):
    wl, zdeltas, _edb = _stream(name)
    engine = IncrementalEngine(wl.program, wl.edb)
    assert engine.pool.externs == 0  # materialized, nobody has read it
    strata = _strata(wl.program)
    for zdelta in zdeltas:
        relations = dict(engine.db.relations)
        externs = engine.pool.externs
        trace = engine.apply(zdelta)
        assert engine.pool.externs - externs <= trace.net.op_count()
        # the activation rule: a stratum none of whose inputs changed
        # did not run, and its relations are the same objects — as is
        # every EDB relation the update did not touch
        untouched = set(relations) - set(wl.program.idb_predicates())
        for heads, reads in strata:
            if not any(map(trace.net.touches, reads)):
                untouched |= heads
        for pred in untouched - trace.net.touched_predicates():
            assert engine.db.relations[pred] is relations[pred]
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
    # probe an index into existence on the mirror and read the value
    # face (and a value-space index) of the committed relation
    rel.columnar(engine.pool).index((1,))
    assert len(list(rel.match({0: 0}))) == 6
    # an insert-only update continues the fixpoint on a clone of the
    # committed mirror (indexes included), a retraction recomputes it
    for delta, mode in (
        (Delta().insert("edge", (2, 7)), "continue"),
        (Delta().delete("edge", (3, 4)), "recompute"),
        (Delta().insert("edge", (2, 5)).delete("edge", (0, 1)), "recompute"),
    ):
        committed, facts_before = rel, set(rel)
        mirror_before = rel.columnar(engine.pool)
        rows_before = set(mirror_before.rows)
        trace = engine.apply(delta)
        rows = 1 if mode == "continue" else 0
        assert trace.events == [("fix@1", mode, rows)]
        assert trace.net.touches("path")
        rel = engine.db.relations["path"]
        mirror = rel.columnar(engine.pool)
        # the committed relation and its mirror were read, never written
        assert rel is not committed and mirror is not mirror_before
        assert set(committed) == facts_before
        assert mirror_before.rows == rows_before
        facts = engine.snapshot()["path"]
        edb = apply_zdelta(edb, effective_zdelta(edb, delta))
        assert facts == seminaive_evaluate(prog, edb)[0].as_dict()["path"]
        # every index either mirror carries equals one built from scratch
        for m, want in ((mirror, facts), (mirror_before, facts_before)):
            rebuilt = ColumnarRelation.from_facts(engine.pool, "path", 2, want)
            for positions in m.index_patterns():
                assert m.index(positions) == rebuilt.index(positions)
        if mode == "continue":
            assert (1,) in mirror.index_patterns()
        # and the value face is the new facts'
        fresh = Relation("path", 2)
        fresh.extend(facts)
        for x in range(8):
            assert set(rel.match({0: x})) == set(fresh.match({0: x}))
