"""Property-based tests for the columnar storage layer.

Two equivalences must hold for *arbitrary* inputs, not just the
workload suites:

* interning is lossless — ``extern ∘ intern`` is the identity, and ids
  are stable across repeated interning;
* :func:`eval_rule_columnar` derives exactly the fact set the
  per-tuple :func:`~repro.datalog.unify.eval_rule` join derives, for
  random rules, databases, and Δ-override positions.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import (
    Database,
    InternPool,
    eval_rule_columnar,
    parse_rule,
)
import repro.datalog.columnar as columnar
from repro.datalog.database import Relation
from repro.datalog.unify import eval_rule

# ---------------------------------------------------------------------------
# interning
# ---------------------------------------------------------------------------

values = st.one_of(
    st.integers(-(10**6), 10**6),
    st.text(max_size=8),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.tuples(st.integers(0, 9), st.text(max_size=3)),
)


@given(vs=st.lists(values, max_size=60))
@settings(max_examples=60, deadline=None)
def test_intern_extern_round_trip(vs):
    pool = InternPool()
    ids = [pool.intern(v) for v in vs]
    assert [pool.extern(i) for i in ids] == vs
    # interning again must hand back the same ids, and grow nothing
    n = len(pool)
    assert [pool.intern(v) for v in vs] == ids
    assert len(pool) == n


@given(
    facts=st.lists(
        st.tuples(st.integers(0, 9), st.text(max_size=4)), max_size=30
    )
)
@settings(max_examples=40, deadline=None)
def test_intern_fact_extern_row_round_trip(facts):
    pool = InternPool()
    for fact in facts:
        row = pool.intern_fact("p", fact)
        assert pool.extern_row(row) == fact
        # the per-predicate memo must agree with itself
        assert pool.intern_fact("p", fact) == row


# ---------------------------------------------------------------------------
# eval_rule_columnar ≡ eval_rule
# ---------------------------------------------------------------------------

RULES = [
    "h(X, Y) :- e(X, Y).",
    "h(X, Z) :- e(X, Y), e(Y, Z).",
    "h(X, Z) :- e(X, Y), f(Y, Z).",
    "h(X) :- e(X, X).",
    "h(X, Y) :- e(X, Y), X != Y.",
    "h(X, Y) :- e(X, Y), X < Y.",
    "h(Y, X) :- e(X, Y), f(Y, X).",
    "h(X, Z) :- e(X, Y), f(Y, Z), !e(Z, X).",
    "h(X, Y) :- e(X, Y), !f(X, Y).",
    "h(X, S) :- e(X, Y), S = Y + 1.",
    "h(X, Z) :- e(X, Y), e(Y, Z), f(Z, X).",
]

edges = st.sets(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12
)


def relation_from(name, facts):
    rel = Relation(name, 2)
    for t in facts:
        rel.add(t)
    return rel


@given(
    rule_src=st.sampled_from(RULES),
    e_facts=edges,
    f_facts=edges,
    delta_facts=edges,
    delta_seed=st.integers(0, 7),
)
@settings(max_examples=120, deadline=None)
def test_eval_rule_columnar_matches_per_tuple(
    rule_src, e_facts, f_facts, delta_facts, delta_seed
):
    """Random rule × database × Δ-position: identical derived sets."""
    rule = parse_rule(rule_src)
    db = Database()
    db.relations["e"] = relation_from("e", e_facts)
    db.relations["f"] = relation_from("f", f_facts)
    pool = InternPool()

    # plain (non-incremental) evaluation
    assert eval_rule_columnar(rule, db, pool) == eval_rule(rule, db)

    # Δ-restricted evaluation at every positive body position
    positive = [
        i
        for i, lit in enumerate(rule.body)
        if getattr(lit, "atom", None) is not None and not lit.negated
    ]
    if not positive:
        return
    delta_at = positive[delta_seed % len(positive)]
    pred = rule.body[delta_at].atom.predicate
    overrides = {pred: relation_from(pred, delta_facts)}
    assert eval_rule_columnar(
        rule, db, pool, delta_overrides=overrides, delta_at=delta_at
    ) == eval_rule(
        rule, db, delta_overrides=overrides, delta_at=delta_at
    )


def test_rule_plan_in_use_survives_the_memo_cap(monkeypatch):
    """Past its cap the compiled-plan memo drops the least recently
    used entry, not everything: a plan looked up between the others is
    still the same object after many more rules than the cap passed."""
    monkeypatch.setattr(columnar, "_RULE_PLAN_CAP", 4)
    monkeypatch.setattr(columnar, "_RULE_PLANS", type(columnar._RULE_PLANS)())
    hot = parse_rule("p(X, Z) :- p(X, Y), e(Y, Z).")
    plan = columnar.compile_rule_plan(hot, None, 0)
    assert plan.reads == {"e"}
    for i in range(12):
        other = parse_rule(f"q{i}(X) :- e(X, Y), f(Y, {i}).")
        assert columnar.compile_rule_plan(other, None, None).reads == {
            "e", "f",
        }
        assert columnar.compile_rule_plan(hot, None, 0) is plan
        assert len(columnar._RULE_PLANS) <= 4
