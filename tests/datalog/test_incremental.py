"""Tests for incremental maintenance — the static DAG run over committed
node values: a fixpoint node continues on growth and recomputes on a
retraction, a task node maintains by counting — checked against
from-scratch evaluation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import (
    Database,
    Delta,
    IncrementalEngine,
    ZSetDelta,
    apply_zdelta,
    compile_update,
    merge_deltas,
    parse_program,
    seminaive_evaluate,
)


def tc_program():
    return parse_program(
        """
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- path(X, Y), edge(Y, Z).
        """
    )


def chain_edb(n):
    db = Database()
    for i in range(n - 1):
        db.add_fact("edge", (i, i + 1))
    return db


def assert_maintained(eng, before, trace, edb):
    """``eng`` equals from-scratch evaluation of ``edb``, and
    ``trace.net`` is set-normal and moves ``before`` — the
    materialization the update found — onto it."""
    assert eng.snapshot() == seminaive_evaluate(eng.program, edb)[0].as_dict()
    assert {w for _p, _f, w in trace.net.items()} <= {-1, 1}
    assert apply_zdelta(before, trace.net).as_dict() == eng.snapshot()


def oracle(prog, facts):
    db = Database()
    for pred, ts in facts.items():
        for t in ts:
            db.add_fact(pred, t)
    return seminaive_evaluate(prog, db)[0].as_dict()


class TestDelta:
    def test_builder_api(self):
        d = Delta().insert("e", (1, 2)).delete("e", (3, 4))
        assert d.insertions == {"e": {(1, 2)}}
        assert d.deletions == {"e": {(3, 4)}}
        assert not d.is_empty
        assert Delta().is_empty
        assert d.touched_predicates() == {"e"}


class TestDeltaNormalization:
    """The builder keeps insert/delete of the same fact netted —
    later operation wins (regression: the sets used to accumulate
    both, leaving same-batch churn to surprise apply_delta's
    deletions-first ordering)."""

    def test_insert_then_delete_is_pure_deletion(self):
        d = Delta().insert("e", (1, 2)).delete("e", (1, 2))
        assert (1, 2) not in d.insertions.get("e", set())
        assert d.deletions == {"e": {(1, 2)}}

    def test_delete_then_insert_is_pure_insertion(self):
        d = Delta().delete("e", (1, 2)).insert("e", (1, 2))
        assert (1, 2) not in d.deletions.get("e", set())
        assert d.insertions == {"e": {(1, 2)}}

    def test_insert_delete_insert_chain(self):
        d = (
            Delta()
            .insert("e", (1, 2))
            .delete("e", (1, 2))
            .insert("e", (1, 2))
        )
        assert d.insertions == {"e": {(1, 2)}}
        assert (1, 2) not in d.deletions.get("e", set())

    def test_delete_insert_delete_chain(self):
        d = (
            Delta()
            .delete("e", (1, 2))
            .insert("e", (1, 2))
            .delete("e", (1, 2))
        )
        assert d.deletions == {"e": {(1, 2)}}
        assert (1, 2) not in d.insertions.get("e", set())
        assert d.touched_predicates() == {"e"}

    def test_netted_churn_is_empty(self):
        d = Delta().insert("e", (1, 2)).delete("e", (1, 2))
        d.insert("e", (1, 2))
        d.delete("e", (1, 2))
        assert d.deletions == {"e": {(1, 2)}}
        assert not any(d.insertions.values())

    def test_merge_deltas_nets_across_batches(self):
        merged = merge_deltas(
            [
                Delta().insert("e", (1, 2)),
                Delta().delete("e", (1, 2)),
                Delta().insert("e", (3, 4)),
            ]
        )
        assert merged.insertions == {"e": {(3, 4)}}
        assert merged.deletions.get("e", set()) == {(1, 2)}

    def test_engine_handles_normalized_empty_sets(self):
        # normalization can leave an empty per-predicate set behind;
        # the engine must treat it as untouched, not zero-arity
        eng = IncrementalEngine(tc_program(), chain_edb(4))
        before = eng.snapshot()
        eng.apply(Delta().insert("edge", (9, 9)).delete("edge", (9, 9)))
        assert eng.snapshot() == before

    def test_engine_skips_empty_zset_entries(self):
        # regression: a ZSetDelta holding an empty per-predicate dict
        # counted as touching it — the old engine wrote x(5), then
        # raised StopIteration on `edge`'s empty entry, half an update
        prog = parse_program(
            """
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).
            big(X) :- x(X).
            """
        )
        edb = chain_edb(4)
        edb.add_fact("x", (1,))
        eng = IncrementalEngine(prog, edb)
        staged = []
        compile = eng.cache.compile

        def spy(*args, **kwargs):
            staged.append(compile(*args, **kwargs))
            return staged[-1]

        eng.cache.compile = spy
        z = ZSetDelta()
        z.weights["x"] = {(5,): 1}
        z.weights["edge"] = {}
        assert z.touched_predicates() == {"x"} and not z.is_empty
        trace = eng.apply(z)
        edb.add_fact("x", (5,))
        assert eng.snapshot() == seminaive_evaluate(prog, edb)[0].as_dict()
        assert trace.net.weights == {"x": {(5,): 1}, "big": {(5,): 1}}
        (cu,) = staged
        names = cu.trace.dag.node_names
        assert [names[v] for v in cu.trace.initial_tasks] == ["edb:x"]
        # an update of empty entries only is empty: nothing is compiled
        hollow = ZSetDelta()
        hollow.weights["edge"] = {}
        assert hollow.is_empty
        assert eng.apply(hollow) == type(trace)()
        assert len(staged) == 1


class TestSelfCancellingCompile:
    """Satellite: a delete+reinsert delta must round-trip to a no-op —
    same materialization and the same activation set as compiling the
    empty delta (regression: `touched` used to be read
    off the raw delta, so cancelled predicates still invalidated
    caches and woke their dependency cones)."""

    def prog_edb(self):
        prog = tc_program()
        edb = chain_edb(5)
        return prog, edb

    def test_delete_reinsert_compiles_like_empty(self):
        prog, edb = self.prog_edb()
        churn = Delta().delete("edge", (1, 2)).insert("edge", (1, 2))
        # builder normalization nets this to a pure insertion of a
        # present fact; raw dicts preserve the both-sets shape
        raw = Delta(
            insertions={"edge": {(1, 2)}}, deletions={"edge": {(1, 2)}}
        )
        empty_cu = compile_update(prog, edb, Delta())
        for delta in (churn, raw):
            cu = compile_update(prog, edb, delta)
            assert cu.db_new.as_dict() == empty_cu.db_new.as_dict()
            assert cu.edb_new.as_dict() == edb.as_dict()
            assert cu.trace.n_active == empty_cu.trace.n_active == 0

    def test_cancelled_ops_do_not_activate(self):
        prog, edb = self.prog_edb()
        # one real op + one cancelled pair: only the real op's cone
        # may activate
        churny = (
            Delta()
            .insert("edge", (9, 10))
            .delete("edge", (2, 3))
            .insert("edge", (2, 3))
        )
        clean = Delta().insert("edge", (9, 10))
        cu_churny = compile_update(prog, edb, churny)
        cu_clean = compile_update(prog, edb, clean)
        assert cu_churny.db_new.as_dict() == cu_clean.db_new.as_dict()
        assert cu_churny.trace.n_active == cu_clean.trace.n_active


class TestInsertions:
    def test_extend_chain(self):
        eng = IncrementalEngine(tc_program(), chain_edb(5))
        assert eng.db.count("path") == 10
        eng.apply(Delta().insert("edge", (4, 5)))
        assert eng.db.count("path") == 15

    def test_duplicate_insert_noop(self):
        eng = IncrementalEngine(tc_program(), chain_edb(5))
        before = eng.snapshot()
        trace = eng.apply(Delta().insert("edge", (0, 1)))
        assert eng.snapshot() == before
        assert trace.events == [] and trace.net.is_empty

    def test_trace_events_recorded(self):
        eng = IncrementalEngine(tc_program(), chain_edb(5))
        trace = eng.apply(Delta().insert("edge", (4, 5)))
        # the fixpoint node's inputs only grew: it continues from the
        # one new edge, the vocabulary of a served round's unit span
        assert trace.events == [("fix@1", "continue", 1)]
        assert trace.net.positive()["path"] >= {(4, 5), (0, 5)}
        trace = eng.apply(Delta().delete("edge", (4, 5)))
        assert trace.events == [("fix@1", "recompute", 0)]
        assert trace.net.negative()["path"] >= {(4, 5), (0, 5)}


class TestDeletions:
    def test_split_chain(self):
        eng = IncrementalEngine(tc_program(), chain_edb(6))
        eng.apply(Delta().delete("edge", (2, 3)))
        expected = oracle(
            tc_program(),
            {"edge": {(0, 1), (1, 2), (3, 4), (4, 5)}},
        )
        assert eng.snapshot()["path"] == expected["path"]

    def test_rederivation_via_alternative_path(self):
        # two routes 0→1: deleting one keeps path(0,1) derivable
        edb = Database()
        for t in [(0, 1), (0, 2), (2, 1)]:
            edb.add_fact("edge", t)
        eng = IncrementalEngine(tc_program(), edb)
        eng.apply(Delta().delete("edge", (0, 1)))
        assert (0, 1) in eng.db.relations["path"]
        expected = oracle(tc_program(), {"edge": {(0, 2), (2, 1)}})
        assert eng.snapshot()["path"] == expected["path"]

    def test_delete_missing_fact_noop(self):
        eng = IncrementalEngine(tc_program(), chain_edb(4))
        before = eng.snapshot()
        eng.apply(Delta().delete("edge", (9, 9)))
        assert eng.snapshot() == before


class TestMixedAndGuards:
    def test_insert_and_delete_together(self):
        eng = IncrementalEngine(tc_program(), chain_edb(5))
        eng.apply(Delta().insert("edge", (4, 5)).delete("edge", (1, 2)))
        expected = oracle(
            tc_program(),
            {"edge": {(0, 1), (2, 3), (3, 4), (4, 5)}},
        )
        assert eng.snapshot()["path"] == expected["path"]

    def test_updating_idb_rejected(self):
        eng = IncrementalEngine(tc_program(), chain_edb(3))
        with pytest.raises(ValueError, match="derived"):
            eng.apply(Delta().insert("path", (0, 9)))

    def test_unmentioned_edb_predicate_is_patched(self):
        # regression: `color` is a relation the database holds and no
        # rule mentions — EDB, not derived — yet the update was refused
        # with "cannot update derived predicate 'color'"
        edb = chain_edb(3)
        edb.add_fact("color", (1, "red"))
        eng = IncrementalEngine(tc_program(), edb)
        before = eng.snapshot()
        trace = eng.apply(Delta().insert("color", (2, "blue")))
        assert trace.events == []  # no node reads it
        assert trace.net.weights == {"color": {(2, "blue"): 1}}
        assert eng.snapshot() == {
            **before, "color": {(1, "red"), (2, "blue")}
        }
        # its arity is the held relation's ...
        with pytest.raises(ValueError, match="arity"):
            eng.apply(Delta().delete("color", (1,)))
        # ... and a predicate nobody knows takes it from the update's
        # first fact, which every other fact of the update must agree
        # with; a refused update leaves no relation behind
        with pytest.raises(ValueError, match="arity"):
            eng.apply(Delta(insertions={"shade": {(1,), (2, 3)}}))
        assert "shade" not in eng.snapshot()
        trace = eng.apply(Delta().insert("shade", (1,)).delete("shade", (9,)))
        assert trace.net.weights == {"shade": {(1,): 1}}
        assert eng.snapshot()["shade"] == {(1,)}
        assert eng.snapshot()["path"] == before["path"]
        # the round after one that created a relation still diffs
        # against what the engine last published
        edb.add_fact("color", (2, "blue"))
        edb.add_fact("shade", (1,))
        before = eng.db
        trace = eng.apply(Delta().insert("edge", (2, 3)))
        edb.add_fact("edge", (2, 3))
        assert_maintained(eng, before, trace, edb)
        assert trace.net.positive() == {
            "edge": {(2, 3)}, "path": {(2, 3), (1, 3), (0, 3)}
        }

    def test_engine_built_without_edb(self):
        # every update creates or grows ``edge``: each round's net is
        # its change against the previous round's materialization
        prog, edb = tc_program(), Database()
        eng = IncrementalEngine(prog)
        for fact in ((1, 2), (2, 3), (0, 1)):
            before = eng.db
            trace = eng.apply(Delta().insert("edge", fact))
            edb.add_fact("edge", fact)
            assert_maintained(eng, before, trace, edb)
        assert eng.snapshot()["path"] == {
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        }

    def test_round_without_committed_values(self):
        # a miss runs all of G with nothing to diff against: net is
        # still the change against the previous materialization
        prog, edb = tc_program(), chain_edb(4)
        eng = IncrementalEngine(prog, edb)
        eng.cache._invalidate()
        before = eng.db
        trace = eng.apply(
            Delta().insert("edge", (3, 0)).delete("edge", (0, 1))
        )
        edb.relations["edge"].discard((0, 1))
        edb.add_fact("edge", (3, 0))
        assert eng.cache.misses == 2
        assert_maintained(eng, before, trace, edb)
        assert trace.net.negative() == {
            "edge": {(0, 1)}, "path": {(0, 1), (0, 2), (0, 3)}
        }

    def test_empty_delta_noop(self):
        eng = IncrementalEngine(tc_program(), chain_edb(3))
        before = eng.snapshot()
        trace = eng.apply(Delta())
        assert trace.events == []
        assert trace.net.is_empty
        assert eng.snapshot() == before

    def test_refused_update_writes_nothing(self):
        # regression: edge(3,4) used to be written before node's
        # wrong-length fact was noticed, so the refused apply left the
        # EDB ahead of the derived facts for good
        prog = parse_program(
            """
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).
            big(X) :- node(X).
            """
        )
        edb = chain_edb(4)
        edb.add_fact("node", (1,))
        eng = IncrementalEngine(prog, edb)
        before = eng.snapshot()
        bad = Delta(
            insertions={"edge": {(3, 4)}, "node": {(5,), (6, 7)}}
        )
        with pytest.raises(ValueError, match="arity"):
            eng.apply(bad)
        assert eng.snapshot() == before
        assert before == seminaive_evaluate(prog, edb)[0].as_dict()
        eng.apply(Delta().insert("edge", (3, 4)).insert("node", (5,)))
        edb.add_fact("edge", (3, 4))
        edb.add_fact("node", (5,))
        assert eng.snapshot() == seminaive_evaluate(prog, edb)[0].as_dict()


class TestWithNegation:
    def prog(self):
        return parse_program(
            """
            reach(X) :- source(X).
            reach(Y) :- reach(X), edge(X, Y).
            dead(X) :- node(X), !reach(X).
            """
        )

    def base(self):
        db = Database()
        for t in [(1, 2), (2, 3)]:
            db.add_fact("edge", t)
        for x in (1, 2, 3, 4):
            db.add_fact("node", (x,))
        db.add_fact("source", (1,))
        return db

    def test_negation_maintained_on_insert(self):
        eng = IncrementalEngine(self.prog(), self.base())
        assert eng.snapshot()["dead"] == {(4,)}
        eng.apply(Delta().insert("edge", (3, 4)))
        # full-recompute oracle
        exp = oracle(
            self.prog(),
            {
                "edge": {(1, 2), (2, 3), (3, 4)},
                "node": {(1,), (2,), (3,), (4,)},
                "source": {(1,)},
            },
        )
        assert eng.snapshot()["dead"] == exp["dead"]
        assert eng.snapshot()["reach"] == exp["reach"]


def db_from(**preds):
    db = Database()
    for pred, facts in preds.items():
        for f in facts:
            db.add_fact(pred, f)
    return db


class TestEquivalence:
    def test_diamond_deletion(self):
        # two routes 0→3: deleting one edge keeps everything reachable
        edb = db_from(edge=[(0, 1), (1, 3), (0, 2), (2, 3)])
        eng = IncrementalEngine(tc_program(), edb)
        eng.apply(Delta().delete("edge", (0, 1)))
        exp = oracle(tc_program(), {"edge": {(1, 3), (0, 2), (2, 3)}})
        assert eng.snapshot()["path"] == exp["path"]

    def test_chain_split(self):
        eng = IncrementalEngine(
            tc_program(), db_from(edge=[(i, i + 1) for i in range(5)])
        )
        eng.apply(Delta().delete("edge", (2, 3)))
        exp = oracle(
            tc_program(), {"edge": {(0, 1), (1, 2), (3, 4), (4, 5)}}
        )
        assert eng.snapshot()["path"] == exp["path"]

    def test_mixed_round_net_change(self):
        before = {"edge": {(0, 1), (1, 2), (2, 3), (0, 3)}}
        after = {"edge": {(0, 1), (2, 3), (0, 3), (3, 4)}}
        eng = IncrementalEngine(tc_program(), db_from(**before))
        trace = eng.apply(
            Delta().delete("edge", (1, 2)).insert("edge", (3, 4))
        )
        old, new = oracle(tc_program(), before), oracle(tc_program(), after)
        assert eng.snapshot() == new
        # the trace's net change is exactly new − old, EDB and derived
        for pred in ("edge", "path"):
            assert trace.net.positive().get(pred, set()) == (
                new[pred] - old[pred]
            )
            assert trace.net.negative().get(pred, set()) == (
                old[pred] - new[pred]
            )

    def test_deletion_under_negation(self):
        prog = TestWithNegation().prog()
        eng = IncrementalEngine(prog, TestWithNegation().base())
        eng.apply(Delta().delete("edge", (2, 3)))
        exp = oracle(
            prog,
            {
                "edge": {(1, 2)},
                "node": {(1,), (2,), (3,), (4,)},
                "source": {(1,)},
            },
        )
        assert eng.snapshot()["dead"] == exp["dead"]
        assert eng.snapshot()["reach"] == exp["reach"]


class TestChurn:
    def test_supported_fact_is_never_deleted(self):
        """Every fact derived through the diamond's deleted shortcut
        keeps its other derivation: the fixpoint node recomputes to its
        committed value, so nothing below it runs and the committed
        ``path`` relation — never written, not even transiently — is
        still the one the database holds."""
        edges = [(0, 1), (1, 3), (0, 2), (2, 3), (0, 3), (3, 4)]
        eng = IncrementalEngine(tc_program(), db_from(edge=edges))
        path = eng.db.relations["path"]
        before = set(path)
        trace = eng.apply(Delta().delete("edge", (0, 3)))
        assert trace.events == [("fix@1", "recompute", 0)]
        assert trace.net.touched_predicates() == {"edge"}
        assert eng.db.relations["path"] is path
        assert set(path) == before >= {(0, 3), (0, 4)}


class TestRandomizedDifferential:
    edge = st.tuples(st.integers(0, 6), st.integers(0, 6))

    @given(
        base=st.sets(edge, min_size=2, max_size=12),
        steps=st.lists(
            st.tuples(st.booleans(), edge), min_size=1, max_size=5
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_engine_tracks_oracle(self, base, steps):
        prog = tc_program()
        eng = IncrementalEngine(prog, db_from(edge=list(base)))
        live = set(base)
        for is_insert, fact in steps:
            if is_insert:
                d = Delta().insert("edge", fact)
                live.add(fact)
            else:
                d = Delta().delete("edge", fact)
                live.discard(fact)
            eng.apply(d)
            assert eng.snapshot() == oracle(prog, {"edge": live})
