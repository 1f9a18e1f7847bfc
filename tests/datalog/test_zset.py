"""Tests for the weighted Z-set delta representation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import (
    Database,
    Delta,
    ZSetDelta,
    apply_delta,
    apply_zdelta,
    effective_zdelta,
)
from repro.datalog.zset import derive_zdelta

FACTS = st.tuples(st.integers(0, 5), st.integers(0, 5))


def db_from(**preds):
    db = Database()
    for pred, facts in preds.items():
        for f in facts:
            db.add_fact(pred, f)
    return db


class TestAlgebra:
    def test_zero_weights_vanish(self):
        z = ZSetDelta()
        z.add("e", (1, 2), 1)
        z.add("e", (1, 2), -1)
        assert z.is_empty
        assert z.weights == {}
        assert z.weight("e", (1, 2)) == 0

    def test_empty_entries_touch_nothing(self):
        # a weights dict may be filled directly: an empty per-predicate
        # entry has no non-zero weight, so every view skips it alike
        z = ZSetDelta()
        z.weights["x"] = {(5,): 1}
        z.weights["edge"] = {}
        assert z.touched_predicates() == {"x"}
        assert not z.touches("edge") and not z.is_empty
        db = db_from(edge=[(1, 2)])
        derived = derive_zdelta(db, z)
        assert derived.relations["edge"] is db.relations["edge"]
        assert derived.as_dict() == apply_zdelta(db, z).as_dict()
        del z.weights["x"]
        assert z.is_empty and z.touched_predicates() == set()
        # no relation of an unknown arity is made up for an empty entry
        z.weights["shade"] = {}
        assert "shade" not in derive_zdelta(db, z).relations

    def test_insert_delete_cancel(self):
        z = ZSetDelta()
        z.insert("e", (1, 2))
        z.delete("e", (1, 2))
        assert z.is_empty

    def test_addition_is_pointwise(self):
        a = ZSetDelta()
        a.insert("e", (1, 2))
        a.insert("e", (3, 4))
        b = ZSetDelta()
        b.delete("e", (1, 2))
        c = a + b
        assert c.weight("e", (1, 2)) == 0
        assert c.weight("e", (3, 4)) == 1
        # operands untouched
        assert a.weight("e", (1, 2)) == 1

    def test_negation_inverts(self):
        z = ZSetDelta()
        z.insert("e", (1, 2))
        z.delete("f", (0,))
        n = -z
        assert n.weight("e", (1, 2)) == -1
        assert n.weight("f", (0,)) == 1
        assert (z + n).is_empty

    def test_op_count_sums_magnitudes(self):
        z = ZSetDelta()
        z.insert("e", (1, 2))
        z.delete("e", (3, 4))
        z.delete("f", (0,))
        assert z.op_count() == 3
        assert z.touched_predicates() == {"e", "f"}
        assert z.touches("e") and not z.touches("g")

    def test_signed_views(self):
        z = ZSetDelta()
        z.insert("e", (1, 2))
        z.delete("e", (3, 4))
        assert z.positive() == {"e": {(1, 2)}}
        assert z.negative() == {"e": {(3, 4)}}


class TestEffective:
    def test_clamps_against_live_edb(self):
        edb = db_from(e=[(1, 2)])
        d = (
            Delta()
            .insert("e", (1, 2))   # already present → cancels
            .delete("e", (9, 9))   # absent → cancels
            .insert("e", (3, 4))   # genuinely new
        )
        z = effective_zdelta(edb, d)
        assert z.weight("e", (1, 2)) == 0
        assert z.weight("e", (9, 9)) == 0
        assert z.weight("e", (3, 4)) == 1
        assert z.op_count() == 1

    def test_apply_zdelta_matches_apply_delta(self):
        edb = db_from(e=[(1, 2), (3, 4)])
        d = Delta().delete("e", (1, 2)).insert("e", (5, 5))
        z = effective_zdelta(edb, d)
        assert (
            apply_zdelta(edb, z).as_dict() == apply_delta(edb, d).as_dict()
        )

    @given(
        base=st.sets(FACTS, max_size=8),
        ins=st.sets(FACTS, max_size=5),
        dels=st.sets(FACTS, max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_equivalence_property(self, base, ins, dels):
        """apply_zdelta ∘ effective_zdelta ≡ apply_delta, always."""
        edb = db_from(e=list(base))
        d = Delta()
        for f in ins:
            d.insert("e", f)
        for f in dels:
            d.delete("e", f)
        z = effective_zdelta(edb, d)
        assert (
            apply_zdelta(edb, z).as_dict() == apply_delta(edb, d).as_dict()
        )
        # effective weights never exceed ±1 and never no-op against
        # the base: +1 only for absent facts, −1 only for present ones
        for pred, fact, w in z.items():
            assert w in (-1, 1)
            assert (fact in base) == (w == -1)

    @given(base=st.sets(FACTS, max_size=8), churn=st.sets(FACTS, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_pure_churn_is_effectively_empty(self, base, churn):
        """insert+delete of the same facts clamps to the empty Z-set
        whenever the insert targets absent facts (and to pure deletion
        of the present ones otherwise) — never to spurious work."""
        edb = db_from(e=list(base))
        d = Delta()
        for f in churn:
            d.insert("e", f)
        for f in churn:
            d.delete("e", f)  # later op wins: net deletion request
        z = effective_zdelta(edb, d)
        assert set(z.positive().get("e", set())) == set()
        assert set(z.negative().get("e", set())) == churn & base
