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

from repro.datalog import Database, InternPool, parse_program, seminaive_evaluate

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
