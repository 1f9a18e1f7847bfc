"""Aggregate heads of every group width fold alike in id space.

A plain-mode aggregate kernel groups the bindings on the head's plain
columns: none and several on a tuple of ids, one on the bare id (no
1-tuple per binding). Whatever the width, the fold and the aggregate's
place in the head, the columnar fixpoint must derive what the row
evaluator derives.
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
from repro.datalog.columnar import compile_rule_plan, run_rule_plan
from repro.datalog.database import Relation
from repro.datalog.unify import eval_rule

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
