"""Tests for relation storage and indexing."""

import sys
import threading

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.datalog import Database, Relation, parse_program, seminaive_evaluate
from repro.datalog.columnar import ColumnarRelation, InternPool


class TestRelation:
    def test_add_and_contains(self):
        r = Relation("edge", 2)
        assert r.add((1, 2))
        assert not r.add((1, 2))  # dedup
        assert (1, 2) in r
        assert len(r) == 1

    def test_arity_enforced(self):
        r = Relation("edge", 2)
        with pytest.raises(ValueError, match="arity"):
            r.add((1, 2, 3))

    def test_discard(self):
        r = Relation("edge", 2)
        r.add((1, 2))
        assert r.discard((1, 2))
        assert not r.discard((1, 2))
        assert len(r) == 0

    def test_match_full_scan(self):
        r = Relation("e", 2)
        r.add((1, 2))
        r.add((3, 4))
        assert set(r.match()) == {(1, 2), (3, 4)}
        assert set(r.match(None)) == {(1, 2), (3, 4)}

    def test_match_with_index(self):
        r = Relation("e", 2)
        for t in [(1, 2), (1, 3), (2, 3)]:
            r.add(t)
        assert set(r.match({0: 1})) == {(1, 2), (1, 3)}
        assert set(r.match({1: 3})) == {(1, 3), (2, 3)}
        assert set(r.match({0: 1, 1: 3})) == {(1, 3)}
        assert set(r.match({0: 99})) == set()

    def test_index_maintained_after_build(self):
        r = Relation("e", 2)
        r.add((1, 2))
        assert set(r.match({0: 1})) == {(1, 2)}  # builds the index
        r.add((1, 5))
        r.discard((1, 2))
        assert set(r.match({0: 1})) == {(1, 5)}

    def test_copy_is_independent(self):
        r = Relation("e", 1)
        r.add((1,))
        c = r.copy()
        c.add((2,))
        assert len(r) == 1 and len(c) == 2


class TestDatabase:
    def test_relation_get_or_create(self):
        db = Database()
        r = db.relation("p", 2)
        assert db.relation("p") is r
        with pytest.raises(ValueError, match="arity"):
            db.relation("p", 3)
        with pytest.raises(KeyError):
            db.relation("unknown")

    def test_facts_and_counts(self):
        db = Database()
        db.add_fact("p", (1,))
        db.add_fact("p", (2,))
        assert db.count("p") == 2
        assert db.count("missing") == 0
        assert db.total_facts() == 2
        assert db.has_fact("p", (1,))
        assert not db.has_fact("p", (9,))
        assert not db.has_fact("missing", (1,))

    def test_copy_and_as_dict(self):
        db = Database()
        db.add_fact("p", (1,))
        c = db.copy()
        c.add_fact("p", (2,))
        assert db.as_dict() == {"p": {(1,)}}
        assert c.as_dict() == {"p": {(1,), (2,)}}


# ----------------------------------------------------------------------
# the two faces are one relation
# ----------------------------------------------------------------------
FACTS = st.tuples(st.integers(0, 4), st.integers(0, 4))


def born_lazy(pool, facts, name="p", arity=2):
    """A relation the way a stratum publishes one: its mirror grown in
    id space, then adopted — no value tuples until someone reads."""
    rel = Relation(name, arity)
    mirror = rel.columnar(pool)
    mirror.extend({pool.intern_fact(name, f) for f in facts})
    rel.adopt(mirror)
    return rel


def two_pools():
    """Two pools that give the same values opposite ids, so a comparison
    of id-rows across them answers wrongly."""
    pool, other = InternPool(), InternPool()
    for v in range(5):
        pool.intern(v)
        other.intern(4 - v)
    return pool, other


class TwoFaces(RuleBasedStateMachine):
    """A lazily-born relation and a twin that only ever took value
    tuples, driven through the same calls: every observation agrees with
    a plain ``set``. Only ``len`` is checked after every step — it reads
    whichever face exists — so the lazy one stays lazy between the rules
    that read facts."""

    def __init__(self):
        super().__init__()
        self.pool, self.other = two_pools()
        self.model: set = set()
        self.lazy = born_lazy(self.pool, ())
        self.eager = Relation("p", 2)

    @rule(t=FACTS)
    def add(self, t):
        new = t not in self.model
        assert self.lazy.add(t) == self.eager.add(t) == new
        self.model.add(t)

    @rule(t=FACTS)
    def discard(self, t):
        present = t in self.model
        assert self.lazy.discard(t) == self.eager.discard(t) == present
        self.model.discard(t)

    @rule(ts=st.lists(FACTS, max_size=4))
    def extend(self, ts):
        self.lazy.extend(ts)
        self.eager.extend(ts)
        self.model.update(ts)

    @rule(ts=st.sets(FACTS, max_size=4), probe=st.booleans())
    def grow_and_adopt(self, ts, probe):
        """What a fixpoint does: grow the mirror, publish it."""
        mirror = self.lazy.columnar(self.pool)
        mirror.extend({self.pool.intern_fact("p", t) for t in ts})
        self.lazy.adopt(mirror)
        self.eager.extend(ts)
        self.model |= ts
        if probe:  # an index built on the earlier facts would miss ts
            for t in ts:
                assert t in self.lazy.match({0: t[0]})
                assert t in self.lazy.match({1: t[1]})

    @rule(bound=st.dictionaries(st.integers(0, 1), st.integers(0, 4)))
    def match(self, bound):
        # also builds the value-space index a later adopt must not
        # leave stale
        want = {
            t for t in self.model
            if all(t[p] == v for p, v in bound.items())
        }
        assert set(self.lazy.match(bound)) == want
        assert set(self.eager.match(bound)) == want

    @rule(t=FACTS)
    def contains(self, t):
        assert (t in self.lazy) == (t in self.eager) == (t in self.model)

    @rule(indexed=st.booleans())
    def carry_on_with_copies(self, indexed):
        for side in ("lazy", "eager"):
            rel = getattr(self, side)
            dup = rel.copy_indexed() if indexed else rel.copy()
            assert dup is not rel and dup == rel
            assert dup.index_patterns() == (
                rel.index_patterns() if indexed else ()
            )
            setattr(self, side, dup)

    @rule(
        side=st.sampled_from(["lazy", "eager"]),
        which=st.sampled_from(["pool", "other"]),
    )
    def mirror(self, side, which):
        mirror = getattr(self, side).columnar(getattr(self, which))
        assert set(mirror.facts()) == self.model

    @rule()
    def twins_agree(self):
        assert self.lazy == self.eager and self.eager == self.lazy
        assert self.lazy.diff_count(self.eager) == 0
        assert set(self.lazy) == set(self.eager.rows) == self.model

    @rule(
        ts=st.sets(FACTS, max_size=6),
        kind=st.sampled_from(["values", "mirrored", "lazy", "lazy-other"]),
    )
    def compare(self, ts, kind):
        if kind.startswith("lazy"):
            probe = born_lazy(
                self.other if kind == "lazy-other" else self.pool, ts
            )
        else:
            probe = Relation("p", 2)
            probe.extend(ts)
            if kind == "mirrored":
                probe.columnar(self.pool)
        for rel in (self.lazy, self.eager):
            assert (rel == probe) == (probe == rel) == (self.model == ts)
            assert rel.diff_count(probe) == len(self.model ^ ts)
            assert probe.diff_count(rel) == len(self.model ^ ts)
        assert probe != born_lazy(self.pool, ts, name="q")

    @invariant()
    def sizes_agree(self):
        assert len(self.lazy) == len(self.eager) == len(self.model)


TwoFaces.TestCase.settings = settings(
    max_examples=80, stateful_step_count=30, deadline=None
)
TestTwoFaces = TwoFaces.TestCase


class TestLazyFace:
    def test_len_and_eq_extern_nothing_and_a_read_externs_once(self):
        pool = InternPool()
        facts = {(i, i + 1) for i in range(50)}
        a, b = born_lazy(pool, facts), born_lazy(pool, facts)
        assert len(a) == 50 and a == b and a.diff_count(b) == 0
        assert pool.externs == 0
        assert set(a) == facts and pool.externs == 50
        assert set(a) == facts and (0, 1) in a and pool.externs == 50
        assert a == b and pool.externs == 50  # b still has no tuples

    def test_different_pools_compare_by_value_never_by_id(self):
        pool, other = two_pools()
        # the same id-rows in both pools, hence different facts …
        a = born_lazy(pool, {(0, 1)})
        rows = set(a.columnar(pool).rows)
        b = Relation("p", 2)
        b.adopt(ColumnarRelation("p", 2, other).wrap(rows))
        assert a.columnar(pool).rows == b.columnar(other).rows
        assert a != b and a.diff_count(b) == 2 and set(b) == {(4, 3)}
        # … and the same facts under different id-rows
        c = born_lazy(other, {(0, 1)})
        assert c.columnar(other).rows != rows
        assert a == c and a.diff_count(c) == 0

    def test_indexes_built_before_adopt_are_not_served_stale(self):
        pool = InternPool()
        rel = Relation("p", 2)
        rel.add((1, 2))
        assert set(rel.match({0: 1})) == {(1, 2)}  # builds the index
        mirror = rel.columnar(pool)
        mirror.extend({pool.intern_fact("p", (1, 3))})
        rel.adopt(mirror)
        assert rel.index_patterns() == ()
        assert set(rel.match({0: 1})) == {(1, 2), (1, 3)}
        assert set(rel.match({0: 1, 1: 3})) == {(1, 3)}

    def test_nullary_and_constant_only_heads_round_trip(self):
        pool = InternPool()
        flag = born_lazy(pool, [()], name="flag", arity=0)
        assert len(flag) == 1 and () in flag and set(flag) == {()}
        assert flag.copy() == flag and set(flag.match()) == {()}
        assert len(born_lazy(pool, [], name="flag", arity=0)) == 0

        program = parse_program(
            'flag :- e(X, Y).  c(1, "a") :- e(X, Y).  d(X) :- c(X, Y), flag.'
        )
        edb = Database()
        edb.add_fact("e", (7, 8))
        got, _ = seminaive_evaluate(program, edb, pool=pool)
        want, _ = seminaive_evaluate(program, edb)
        assert {p: len(r) for p, r in got.relations.items()} == {
            p: len(r) for p, r in want.relations.items()
        }
        assert got.as_dict() == want.as_dict()
        assert got.as_dict()["c"] == {(1, "a")}

    def test_first_read_from_four_threads_gives_everyone_the_full_set(self):
        """Readers of a served materialization race to build the value
        face: it is assigned whole, so nobody iterates half a set."""
        facts = {(i, i % 7) for i in range(3000)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _trial in range(8):
                rel = born_lazy(InternPool(), facts)
                barrier = threading.Barrier(4)
                seen: list = []

                def reader(k: int) -> None:
                    barrier.wait()
                    if k % 2:
                        seen.append((set(rel), (2999, 2999 % 7) in rel))
                    else:
                        seen.append((set(rel.match()), len(rel) == 3000))

                threads = [
                    threading.Thread(target=reader, args=(k,))
                    for k in range(4)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert len(seen) == 4
                assert all(got == facts and ok for got, ok in seen)
        finally:
            sys.setswitchinterval(interval)
