"""Property-based tests for the columnar storage layer.

Two equivalences must hold for *arbitrary* inputs, not just the
workload suites:

* interning is lossless — ``extern ∘ intern`` is the identity, and ids
  are stable across repeated interning;
* :func:`eval_rule_columnar` derives exactly the fact set the
  per-tuple :func:`~repro.datalog.unify.eval_rule` join derives, for
  random rules, databases, and Δ-override positions;
* the id-space fixpoint — ``seminaive_evaluate(pool=InternPool())``,
  which interns at the EDB mirrors and externs where a stratum is
  published — equals the row fixpoint and naive evaluation, on the head
  shapes an ``itemgetter`` projection gets wrong if unguarded and on
  random programs with several heads in one recursive SCC.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import (
    Database,
    InternPool,
    eval_rule_columnar,
    naive_evaluate,
    parse_program,
    parse_rule,
    seminaive_evaluate,
)
import repro.datalog.columnar as columnar
from repro.datalog.database import Relation
from repro.datalog.unify import eval_rule
from repro.workloads.generated import SCC_ABOVE, SCC_BASE, SCC_RECURSIVE

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
    # shapes a fused nested-loop kernel gets wrong if a guard lands a
    # level off: a repeated variable that an earlier atom bound / that
    # nothing bound yet, inside a cross join in second position
    "h(X) :- e(X, Y), f(X, X).",
    "h(X, Z) :- e(X, Y), f(Z, Z).",
    "h(X, Z, W) :- e(X, Y), f(Z, W).",
    # a fully bound atom first; filters and assignments before any scan
    "h(X) :- e(1, 2), f(X, Y).",
    "h(X, Y) :- 1 < 2, e(X, Y).",
    "h(X, Y) :- 2 < 1, e(X, Y).",
    "h(X, S) :- S = 2 + 1, e(X, S).",
    "h(X, S) :- e(X, Y), S = 1 + 2, f(S, Y), S = Y + 1.",
    # no head columns, no group columns
    "h :- e(X, Y), f(Y, X).",
    "total(sum(Y)) :- e(X, Y), f(X, Z).",
    'total(count(Y), "k") :- e(X, Y).',
    "h(X, max(Z)) :- e(X, Y), f(Y, Z), Z != X.",
    # negation with a constant, over a relation that is there but empty
    "h(X) :- e(X, Y), !g(X, 3).",
    "h(X) :- !g(1, 3), e(X, Y), !f(Y, 3).",
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
@settings(max_examples=300, deadline=None)
def test_eval_rule_columnar_matches_per_tuple(
    rule_src, e_facts, f_facts, delta_facts, delta_seed
):
    """Random rule × database × Δ-position: identical derived sets."""
    rule = parse_rule(rule_src)
    db = Database()
    db.relations["e"] = relation_from("e", e_facts)
    db.relations["f"] = relation_from("f", f_facts)
    db.relations["g"] = relation_from("g", ())
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


# ---------------------------------------------------------------------------
# the id-space fixpoint ≡ the row fixpoint ≡ naive evaluation
# ---------------------------------------------------------------------------


def three_ways(src: str, facts: dict[str, set]) -> dict[str, set]:
    """Evaluate ``src`` over ``facts`` columnar, per-tuple and naive;
    the (asserted identical) materialization."""
    program = parse_program(src)
    db = Database()
    for pred, tuples in facts.items():
        for t in tuples:
            db.add_fact(pred, t)
    got = seminaive_evaluate(program, db, pool=InternPool())[0].as_dict()
    assert got == seminaive_evaluate(program, db)[0].as_dict()
    assert got == naive_evaluate(program, db).as_dict()
    return got


E = {(1, 2), (2, 3), (3, 500)}

#: head shapes the id-space emit must guard: ``itemgetter`` of one slot
#: is a scalar and of none an error, constants and aggregate results
#: are interned when the plan runs, negation probes a mirror
EDGE_CASES = {
    "0-ary head": (
        "flag :- e(X, Y).  both(X) :- e(X, Y), flag.",
        {"flag": {()}, "both": {(1,), (2,), (3,)}},
    ),
    "1-ary head": ("n(X) :- e(X, Y).", {"n": {(1,), (2,), (3,)}}),
    "head constant": (
        'tag("k", X, 7) :- e(X, Y).',
        {"tag": {("k", 1, 7), ("k", 2, 7), ("k", 3, 7)}},
    ),
    "constant-only head": ('any("yes") :- e(X, Y).', {"any": {("yes",)}}),
    "repeated head variable": (
        "d(X, X) :- e(X, Y).", {"d": {(1, 1), (2, 2), (3, 3)}},
    ),
    "aggregate result never interned before": (
        "total(sum(Y)) :- e(X, Y).  deg(X, count(Y)) :- e(X, Y).",
        {"total": {(505,)}, "deg": {(1, 1), (2, 1), (3, 1)}},
    ),
    "aggregate-only and constant-and-aggregate heads": (
        'lo(min(Y)) :- e(X, Y).  hi("max", max(Y)) :- e(X, Y).',
        {"lo": {(2,)}, "hi": {("max", 500)}},
    ),
    "count over an empty body": (
        "none(count(X)) :- e(X, Y), X > 100.", {"none": set()},
    ),
    "negation against relations with no mirror yet": (
        # ``g`` (EDB) and ``m`` (derived, lower stratum) are read by
        # nothing but the negations
        "n(X) :- e(X, Y).  m(X) :- f(X, Y)."
        "  lone(X) :- n(X), !g(X).  only(X) :- n(X), !m(X).",
        {"lone": {(1,), (3,)}, "only": {(2,), (3,)}},
    ),
    "negation with a constant, against an absent relation": (
        'free(X) :- e(X, Y), !taken(X, "k").', {"free": {(1,), (2,), (3,)}},
    ),
    "recursive head with a constant": (
        'r(X, "s") :- e(X, Y).  r(Y, "s") :- r(X, "s"), e(X, Y).',
        {"r": {(1, "s"), (2, "s"), (3, "s"), (500, "s")}},
    ),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_id_space_emit_edge_cases(case):
    src, want = EDGE_CASES[case]
    got = three_ways(src, {"e": E, "f": {(1, 9)}, "g": {(2,)}})
    assert {p: got[p] for p in want} == want


class _Key:
    """A constant whose hash and equality run Python code, so a thread
    switch can land in the middle of a dict probe or store."""

    def __init__(self, k: int) -> None:
        self.k = k

    def __hash__(self) -> int:
        return hash(self.k)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Key) and other.k == self.k


def test_interning_from_many_threads_allots_each_id_once():
    """Work units intern aggregate results and head constants on worker
    threads: racing threads must agree on one id per value."""
    keys = [_Key(i) for i in range(2000)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads mid-intern
    try:
        for _trial in range(8):
            pool = InternPool()
            barrier = threading.Barrier(4)
            seen: list[dict] = []

            def worker(offset: int) -> None:
                barrier.wait()
                # near-identical orders: the threads meet on new values
                seen.append({
                    id(v): pool.intern(v)
                    for i in range(2000)
                    for v in (keys[(i + offset) % 2000],)
                })

            threads = [
                threading.Thread(target=worker, args=(k * 7,))
                for k in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert len(seen) == 4 and all(ids == seen[0] for ids in seen)
            assert len(pool) == 2000
            assert sorted(seen[0].values()) == list(range(2000))
            assert all(pool.extern(pool.intern(v)) is v for v in keys)
    finally:
        sys.setswitchinterval(interval)


@given(
    recursive=st.sets(st.sampled_from(SCC_RECURSIVE), min_size=1),
    above=st.sets(st.sampled_from(SCC_ABOVE)),
    e_facts=edges,
    f_facts=edges,
)
@settings(max_examples=80, deadline=None)
def test_id_space_fixpoint_matches_row_and_naive(
    recursive, above, e_facts, f_facts
):
    """Random programs whose recursive stratum has up to two heads in
    one SCC (the rule pools of :mod:`repro.workloads.generated`), under
    random EDBs: three evaluators, one materialization."""
    src = "\n".join(SCC_BASE + sorted(recursive) + sorted(above))
    three_ways(src, {"e": e_facts, "f": f_facts})
