"""Index maintenance edge cases for the join-backing hash indexes.

:class:`~repro.datalog.database.Relation` builds per-bound-pattern hash
indexes lazily and maintains them incrementally on insert/discard; the
plan cache additionally *derives* a changed relation's successor
(:func:`~repro.datalog.zset.derive_zdelta`) by cloning the
predecessor's indexes and replaying the delta. These tests pin the
corners where incremental maintenance classically goes wrong:
retraction down to an empty relation and (property-tested) exact
equivalence between indexed probes and brute-force scans through
arbitrary add/discard histories.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import (
    Database,
    Delta,
    IncrementalEngine,
    ZSetDelta,
    parse_program,
    seminaive_evaluate,
)
from repro.datalog.database import Relation
from repro.datalog.zset import derive_zdelta


def _scan(tuples, bound):
    return {
        t for t in tuples if all(t[p] == v for p, v in bound.items())
    }


# ----------------------------------------------------------------------
# retraction to empty
# ----------------------------------------------------------------------
def test_retraction_to_empty_relation_clears_index_buckets():
    rel = Relation("edge", 2)
    facts = [(1, 2), (1, 3), (2, 3)]
    for t in facts:
        rel.add(t)
    # build two indexes, then retract everything through them
    assert set(rel.match({0: 1})) == {(1, 2), (1, 3)}
    assert set(rel.match({1: 3})) == {(1, 3), (2, 3)}
    for t in facts:
        assert rel.discard(t)
    assert len(rel) == 0
    assert set(rel.match({0: 1})) == set()
    assert set(rel.match({1: 3})) == set()
    assert set(rel.match()) == set()
    # empty buckets must be dropped, not left as empty sets
    for positions in rel.index_patterns():
        assert rel._indexes[positions] == {}
    # the indexes still maintain correctly after re-insertion
    rel.add((5, 3))
    assert set(rel.match({0: 5})) == {(5, 3)}
    assert set(rel.match({1: 3})) == {(5, 3)}


def test_discard_absent_and_double_discard_are_noops():
    rel = Relation("r", 2)
    rel.add((1, 1))
    assert set(rel.match({0: 1})) == {(1, 1)}
    assert not rel.discard((9, 9))
    assert rel.discard((1, 1))
    assert not rel.discard((1, 1))
    assert set(rel.match({0: 1})) == set()


def test_derive_zdelta_to_and_from_empty():
    full = [(0, 1), (1, 2)]
    edb = Database()
    for t in full:
        edb.add_fact("edge", t)
    edb.add_fact("other", (7,))
    rel = edb.relations["edge"]
    rel.match({0: 0})  # build an index worth inheriting
    drain = ZSetDelta()
    for t in full:
        drain.delete("edge", t)
    emptied = derive_zdelta(edb, drain)
    empty = emptied.relations["edge"]
    assert len(empty) == 0
    assert empty.index_patterns() == rel.index_patterns()
    assert set(empty.match({0: 0})) == set()
    # untouched relations are carried by identity, touched ones are new
    assert emptied.relations["other"] is edb.relations["other"]
    assert empty is not rel
    # and back up from empty: indexes inherited from the empty relation
    refilled = derive_zdelta(emptied, -drain).relations["edge"]
    assert set(refilled.match({0: 1})) == {(1, 2)}
    # a relation the EDB never held is created with the fact's arity
    fresh = derive_zdelta(edb, ZSetDelta().insert("new", (1, 2, 3)))
    assert fresh.relations["new"].arity == 3
    # the original was never mutated by any derivation
    assert set(rel) == set(full)
    assert set(rel.match({0: 0})) == {(0, 1)}


DIAMOND = """
mid(X, Z) :- left(X, Z).
mid(X, Z) :- right(X, Z).
out(X) :- mid(X, Z).
"""


def test_engine_matches_seminaive_with_shared_indexed_relations():
    """Incremental maintenance lands on the same database as a fresh
    semi-naive evaluation whose EDB inputs are shared, indexed
    relations (which the evaluation then does not copy)."""
    program = parse_program(DIAMOND)
    edb = Database()
    for t in [(1, 2), (2, 3)]:
        edb.add_fact("left", t)
    edb.add_fact("right", (1, 2))
    eng = IncrementalEngine(program, edb)
    eng.apply(Delta().insert("right", (2, 3)).delete("left", (1, 2)))

    final = Database()
    final.add_fact("left", (2, 3))
    for t in [(1, 2), (2, 3)]:
        final.add_fact("right", t)
    shared = {p: rel.copy_indexed() for p, rel in final.relations.items()}
    db, _ = seminaive_evaluate(
        program, final, shared_relations=shared
    )
    assert all(db.relations[p] is rel for p, rel in shared.items())
    got = eng.snapshot()
    for pred in ("mid", "out"):
        assert got.get(pred, set()) == set(db.relations[pred])


def test_shared_relations_reject_writable_predicates():
    program = parse_program(DIAMOND)
    db = Database()
    db.add_fact("left", (1, 2))
    with pytest.raises(ValueError, match="writes it"):
        seminaive_evaluate(
            program, db, shared_relations={"mid": Relation("mid", 2)}
        )


# ----------------------------------------------------------------------
# index/scan equivalence property
# ----------------------------------------------------------------------
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["add", "discard"]),
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    ),
    max_size=40,
)
probe_strategy = st.lists(
    st.dictionaries(st.integers(0, 2), st.integers(0, 3), max_size=3),
    min_size=1,
    max_size=8,
)


@given(ops=ops_strategy, probes=probe_strategy)
@settings(max_examples=60, deadline=None)
def test_index_probe_equals_scan_through_arbitrary_history(ops, probes):
    """After any add/discard history — with indexes built at arbitrary
    points along the way — every probe equals the brute-force scan."""
    rel = Relation("r", 3)
    model: set = set()
    for i, (op, t) in enumerate(ops):
        if op == "add":
            assert rel.add(t) == (t not in model)
            model.add(t)
        else:
            assert rel.discard(t) == (t in model)
            model.discard(t)
        # interleave probes so indexes are created mid-history and
        # then maintained incrementally by later ops
        probe = probes[i % len(probes)]
        assert set(rel.match(probe)) == _scan(model, probe)
    assert set(rel) == model
    for probe in probes:
        assert set(rel.match(probe)) == _scan(model, probe)
    full = {0: 9, 1: 9, 2: 9}
    assert set(rel.match(full)) == _scan(model, full)


@given(ops=ops_strategy)
@settings(max_examples=40, deadline=None)
def test_copy_indexed_clone_is_independent_and_equivalent(ops):
    """A derived copy answers probes like a fresh relation, and
    mutating it never leaks back into the original."""
    rel = Relation("r", 3)
    for _op, t in ops:
        rel.add(t)
    before = set(rel)
    rel.match({0: 1})
    rel.match({1: 2, 2: 3})
    clone = rel.copy_indexed()
    assert clone.index_patterns() == rel.index_patterns()
    for _op, t in ops:
        clone.discard(t)
    clone.add((3, 3, 3))
    assert set(rel) == before, "mutating the clone leaked into the base"
    assert set(rel.match({0: 1})) == _scan(before, {0: 1})
    assert set(clone.match({0: 3})) == {(3, 3, 3)}
