"""Property-based tests: incremental maintenance ≡ from-scratch evaluation.

For random edge sets and random update sequences, applying deltas
incrementally must land on exactly the database a full recomputation
from the final EDB produces — for positive programs, recursive
programs, and stratified-negation programs alike.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import (
    Database,
    Delta,
    IncrementalEngine,
    apply_zdelta,
    naive_evaluate,
    parse_program,
    seminaive_evaluate,
)

TC = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
"""

REACH_NEG = """
reach(X) :- source(X).
reach(Y) :- reach(X), edge(X, Y).
dead(X) :- node(X), !reach(X).
"""

NONLINEAR = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), path(Y, Z).
"""

edge_strategy = st.sets(
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
    max_size=14,
)


def edb_from(edges, extra=None):
    db = Database()
    db.relation("edge", 2)
    for t in edges:
        db.add_fact("edge", t)
    for pred, facts in (extra or {}).items():
        for f in facts:
            db.add_fact(pred, f)
    return db


@given(edges=edge_strategy)
@settings(max_examples=40, deadline=None)
def test_seminaive_matches_naive_tc(edges):
    prog = parse_program(TC)
    edb = edb_from(edges)
    assert (
        seminaive_evaluate(prog, edb)[0].as_dict()
        == naive_evaluate(prog, edb).as_dict()
    )


@given(edges=edge_strategy)
@settings(max_examples=40, deadline=None)
def test_seminaive_matches_naive_nonlinear(edges):
    prog = parse_program(NONLINEAR)
    edb = edb_from(edges)
    assert (
        seminaive_evaluate(prog, edb)[0].as_dict()
        == naive_evaluate(prog, edb).as_dict()
    )


@given(
    initial=edge_strategy,
    inserts=edge_strategy,
    delete_idx=st.lists(st.integers(0, 30), max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_incremental_tc_matches_recompute(initial, inserts, delete_idx):
    prog = parse_program(TC)
    eng = IncrementalEngine(prog, edb_from(initial))

    delta = Delta()
    deletes = set()
    pool = sorted(initial)
    for i in delete_idx:
        if pool:
            deletes.add(pool[i % len(pool)])
    for t in deletes:
        delta.delete("edge", t)
    for t in inserts:
        delta.insert("edge", t)
    # deletions apply before insertions (Delta contract)
    current = (set(initial) - deletes) | set(inserts)
    if delta.is_empty:
        return
    eng.apply(delta)

    oracle, _ = seminaive_evaluate(prog, edb_from(current))
    assert eng.snapshot().get("path", set()) == oracle.as_dict().get(
        "path", set()
    )


@given(
    initial=edge_strategy,
    updates=st.lists(
        st.tuples(
            st.booleans(), st.integers(0, 7), st.integers(0, 7)
        ),
        max_size=8,
    ),
)
@settings(max_examples=30, deadline=None)
def test_incremental_sequence_of_updates(initial, updates):
    """Many small updates applied one at a time stay consistent."""
    prog = parse_program(TC)
    eng = IncrementalEngine(prog, edb_from(initial))
    current = set(initial)
    before = eng.db.copy()
    for is_insert, a, b in updates:
        d = Delta()
        if is_insert:
            d.insert("edge", (a, b))
            current.add((a, b))
        else:
            d.delete("edge", (a, b))
            current.discard((a, b))
        trace = eng.apply(d)
        oracle, _ = seminaive_evaluate(prog, edb_from(current))
        assert eng.snapshot().get("path", set()) == oracle.as_dict().get(
            "path", set()
        )
        # Z-set in, Z-set out: the net change patches the previous
        # materialization into the new one, every weight ±1
        assert {w for _p, _f, w in trace.net.items()} <= {-1, 1}
        before = apply_zdelta(before, trace.net)
        assert before.as_dict() == eng.snapshot()


@given(
    edges=edge_strategy,
    sources=st.sets(st.integers(0, 7), max_size=3),
    update=st.tuples(st.booleans(), st.integers(0, 7), st.integers(0, 7)),
)
@settings(max_examples=40, deadline=None)
def test_incremental_with_negation_matches_recompute(edges, sources, update):
    prog = parse_program(REACH_NEG)
    nodes = {(i,) for i in range(8)}
    extra = {"node": nodes, "source": {(s,) for s in sources}}
    eng = IncrementalEngine(prog, edb_from(edges, extra))
    current = set(edges)
    is_insert, a, b = update
    d = Delta()
    if is_insert:
        d.insert("edge", (a, b))
        current.add((a, b))
    else:
        d.delete("edge", (a, b))
        current.discard((a, b))
    eng.apply(d)
    oracle, _ = seminaive_evaluate(prog, edb_from(current, extra))
    got, want = eng.snapshot(), oracle.as_dict()
    assert got.get("reach", set()) == want.get("reach", set())
    assert got.get("dead", set()) == want.get("dead", set())
