"""Aggregate heads of every group width fold alike in id space.

A plain-mode aggregate kernel groups the bindings on the head's plain
columns: none and several on a tuple of ids, one on the bare id (no
1-tuple per binding). Whatever the width, the fold and the aggregate's
place in the head, the columnar fixpoint must derive what the row
evaluator derives — also when aggregate rules over one body, equal up to
a renaming of their variables, fold the groups of one shared join.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import (
    Database,
    InternPool,
    parse_program,
    parse_rule,
    seminaive_evaluate,
)
import repro.datalog.seminaive as seminaive
from repro.datalog.columnar import compile_rule_plan, run_rule_plan, share_key
from repro.datalog.database import Relation
from repro.datalog.seminaive import _share_keys
from repro.datalog.unify import eval_rule
from repro.workloads.datalog_workloads import retail_analytics

FACTS = st.sets(
    st.tuples(
        st.integers(0, 3),
        st.sampled_from(["a", "b", "c"]),
        st.integers(-5, 5),
    ),
    max_size=16,
)


OPS = ("count", "sum", "min", "max")
#: (group width, fold, the aggregate's head position): every one
CASES = [(w, op, at) for w in range(3) for op in OPS for at in range(w + 1)]


def program_text(width: int, op: str, at: int, flip: bool) -> str:
    """``h`` folds ``Z`` of ``e(X, Y, Z), f(X)`` grouped on ``width`` of
    ``X``, ``Y`` (``flip`` swaps them), its aggregate at head position
    ``at``; ``k`` reads the aggregate back out of ``h``."""
    group = (["Y", "X"] if flip else ["X", "Y"])[:width]
    head = [*group[:at], f"{op}(Z)", *group[at:]]
    read = [f"G{i}" for i in range(width + 1)]
    read[at] = "A"
    return (
        f"h({', '.join(head)}) :- e(X, Y, Z), f(X).\n"
        f"k(A) :- h({', '.join(read)}).\n"
    )


@pytest.mark.parametrize("width, op, at", CASES)
@given(flip=st.booleans(), e=FACTS, f=st.sets(st.integers(0, 3)))
@settings(max_examples=25, deadline=None)
def test_columnar_aggregates_equal_the_row_evaluator(width, op, at, flip, e, f):
    program = parse_program(program_text(width, op, at, flip))
    edb = Database()
    edb.relation("e", 3)
    edb.relation("f", 1)
    for t in e:
        edb.add_fact("e", t)
    for x in f:
        edb.add_fact("f", (x,))
    want, _ = seminaive_evaluate(program, edb)
    got, _ = seminaive_evaluate(program, edb, pool=InternPool())
    assert got.as_dict() == want.as_dict()


#: the body of a one-relation GROUP BY: distinct variables fold from
#: index buckets; a constant or a repeated variable falls back to the
#: per-binding kernel
BODIES = {
    "distinct": ("e(X, Y, Z, W)", True),
    "constant": ("e(X, Y, Z, 1)", False),
    "repeated": ("e(X, Y, Z, X)", False),
}
#: group key → that group's (Z, W) rows: buckets of 1–30 rows
GROUPS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1)),
    st.lists(
        st.tuples(st.integers(-9, 9), st.integers(0, 2)),
        min_size=1, max_size=30,
    ),
    max_size=6,
)


def _folded(rule, relations, pool) -> set:
    """The rule's counted plan, each group's multiset folded as a task
    unit folds it."""
    from repro.datalog.units import _Task

    task = _Task(rule, {"e": 0})
    got = compile_rule_plan(rule, None, None, counted=True).kernel(
        relations, None, pool
    )
    groups: dict = {}
    for (group, v), m in got.items():
        groups.setdefault(group, {})[v] = m
    return {task.fold(g, ms, pool) for g, ms in groups.items()}


@pytest.mark.parametrize("body", sorted(BODIES))
@pytest.mark.parametrize("op", OPS)
@given(
    group=st.lists(st.sampled_from(["X", "Y"]), max_size=2, unique=True),
    last=st.booleans(),
    groups=GROUPS,
    drop=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_a_one_relation_group_by_folds_its_index_buckets(
    body, op, group, last, groups, drop
):
    """``h(…) :- e(X, Y, Z, W)`` with 0, 1 or 2 group columns in any
    head order and the aggregate first or last: the plain kernel — a
    fold per index bucket when the atom's variables are distinct — must
    equal the row evaluator and the folded counted plan, before and
    after deletes (some emptying a group) taken out of a successor that
    borrows the index's buckets, the donor left as it was."""
    atom, folds = BODIES[body]
    head = [*group, f"{op}(Z)"] if last else [f"{op}(Z)", *group]
    rule = parse_rule(f"h({', '.join(head)}) :- {atom}.")
    plan = compile_rule_plan(rule, None, None)
    assert ("groups" not in plan.source) == folds
    rel = Relation("e", 4)
    for (x, y), rows in groups.items():
        rel.extend({(x, y, z, w) for z, w in rows})
    pool = InternPool()

    def check(rel: Relation) -> set:
        db = Database({"e": rel})
        got = set(pool.extern_rows(run_rule_plan(plan, db, pool)))
        assert got == eval_rule(rule, db)
        assert got == set(pool.extern_rows(_folded(rule, db.relations, pool)))
        return got

    before = check(rel)
    # the index the fold reads is built on the mirror and lent onward
    successor = rel.copy_indexed()
    # whole groups emptied, and single rows
    gone = drop.draw(st.sets(st.sampled_from(sorted(groups or [(0, 0)]))))
    facts = sorted(rel)
    taken = drop.draw(st.sets(st.sampled_from(facts or [()])))
    for fact in facts:
        if fact[:2] in gone or fact in taken:
            successor.discard(fact)
    check(successor)
    assert check(rel) == before


# ---------------------------------------------------------------------------
# aggregate rules that share a body share one grouped join
# ---------------------------------------------------------------------------

#: the shared body over ``X, Y, Z, W``: two atoms (no one-relation fold),
#: a comparison with a constant
BODY = ["e(X, Y, Z)", "f(X, W)", "W != 2"]
#: near misses of a rule over ``BODY`` grouped on ``group`` folding
#: ``Z``, each a ``(body, group, aggregated variable)`` that must not
#: share its join
NEAR = {
    "constant": lambda group: (
        ["e(X, Y, Z)", "f(X, W)", "W != 3"], group, "Z"
    ),
    "comparison": lambda group: ([*BODY, "Z > 0"], group, "Z"),
    "negation": lambda group: ([*BODY, "!g(Y)"], group, "Z"),
    "group key": lambda group: (BODY, ["W", "X"][: len(group)], "Z"),
    "aggregated": lambda group: (BODY, group, "Y"),
}


def _renamed(text: str, names: list[str]) -> str:
    """``text`` with ``X, Y, Z, W`` renamed to ``names``."""
    return text.translate(str.maketrans(dict(zip("XYZW", names))))


def _agg_rule(head: str, body, group, agg, op, at, names) -> str:
    terms = [*group]
    terms.insert(at % (len(terms) + 1), f"{op}({agg})")
    return _renamed(f"{head}({', '.join(terms)}) :- {', '.join(body)}.", names)


@given(
    ops=st.lists(st.sampled_from(OPS), min_size=2, max_size=3),
    width=st.integers(1, 2),
    renames=st.lists(
        st.permutations(["A", "B", "C", "D", "E"]), min_size=4, max_size=4
    ),
    ats=st.lists(st.integers(0, 2), min_size=4, max_size=4),
    near=st.sampled_from(sorted(NEAR)),
    near_op=st.sampled_from(OPS),
    e=st.sets(
        st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(-5, 5)),
        max_size=16,
    ),
    f=st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=8),
    g=st.sets(st.integers(0, 2)),
)
@settings(max_examples=150, deadline=None)
def test_rules_over_one_body_share_one_grouped_join(
    ops, width, renames, ats, near, near_op, e, f, g
):
    """2–3 aggregate heads over one body, each with its own variable
    names, aggregate and aggregate place, share one join; a near miss —
    another constant, an extra comparison or negation, another group key
    or aggregated variable — does not. Either way id-space evaluation
    derives the row evaluator's answer, with ``k`` reading a shared
    aggregate back out."""
    group = ["X", "W"][:width]
    text = [
        _agg_rule(f"h{i}", BODY, group, "Z", op, at, names[:4])
        for i, (op, at, names) in enumerate(zip(ops, ats, renames))
    ]
    body, near_group, agg = NEAR[near](group)
    text.append(
        _agg_rule("n", body, near_group, agg, near_op, ats[-1], renames[-1])
    )
    text.append(f"k(A) :- h0(A{''.join(f', B{i}' for i in range(width))}).")
    program = parse_program("\n".join(text))
    rules = program.proper_rules
    keys = _share_keys(program)
    assert sorted(keys) == list(range(len(ops)))
    assert len(set(keys.values())) == 1
    assert share_key(rules[len(ops)]) not in keys.values()
    edb = Database()
    for pred, facts, arity in (("e", e, 3), ("f", f, 2), ("g", g, 1)):
        edb.relation(pred, arity)
        for t in facts:
            edb.add_fact(pred, t if arity > 1 else (t,))
    want, _ = seminaive_evaluate(program, edb)
    got, _ = seminaive_evaluate(program, edb, pool=InternPool())
    assert got.as_dict() == want.as_dict()


def test_one_check_joins_a_shared_body_once(monkeypatch):
    """On the end-to-end benchmark's retail EDB, ``total_qty`` and
    ``best_sale`` group ``sale(S, P, Q), product_cat(P, C)`` by ``C``:
    a warm check joins it once, 201 probes fewer (1 scan of
    ``product_cat`` plus its 200 rows probing ``sale``) than two joins,
    for the same answer."""
    program, db, _delta = retail_analytics(
        n_products=200, n_stores=24, n_sales=1500
    )
    want = seminaive_evaluate(program, db)[0].as_dict()

    def probes_of_one_check() -> int:
        pool = InternPool()
        shared = dict(db.relations)
        seminaive_evaluate(program, db, shared_relations=shared, pool=pool)
        before = pool.probes
        got = seminaive_evaluate(
            program, db, shared_relations=shared, pool=pool
        )[0]
        assert got.as_dict() == want
        return pool.probes - before

    shared = probes_of_one_check()
    monkeypatch.setattr(seminaive, "_share_keys", lambda program: {})
    assert probes_of_one_check() - shared == 1 + 200
