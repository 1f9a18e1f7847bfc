"""One kernel per rule plan: what the differential suites cannot see.

``compile_rule_plan`` turns a (rule, order, Δ-position) into one
generated function. That it derives what the per-tuple evaluator derives
is the property suite's job (``test_columnar_properties.py``); these
tests pin the rest of the contract — no program constant reaches the
generated source, relations and indexes are resolved only when a binding
reaches their scan, ``pool.probes`` counts those bindings and nothing
else, a body of any length compiles, a failing kernel's traceback shows
the generated line, and a kernel run from several threads changes only
its own locals and the one counter.
"""

from __future__ import annotations

import linecache
import sys
import threading
import traceback

import pytest

import repro.datalog.columnar as columnar
from repro.datalog import Database, InternPool, parse_rule
from repro.datalog.ast import (
    Assignment,
    Atom,
    Comparison,
    Constant,
    Literal,
    Rule,
    Variable,
)
from repro.datalog.columnar import (
    compile_rule_plan,
    eval_rule_columnar,
    run_rule_plan,
)
from repro.datalog.unify import eval_rule


def database(**facts: set) -> Database:
    db = Database()
    for pred, tuples in facts.items():
        arity = len(next(iter(tuples))) if tuples else 2
        db.relation(pred, arity)
        for t in tuples:
            db.add_fact(pred, t)
    return db


X, Y, S = Variable("X"), Variable("Y"), Variable("S")


# ---------------------------------------------------------------------------
# (a) hygiene
# ---------------------------------------------------------------------------

NASTY = ["'); import os #", "line\nbreak\\slash", 10**30, -7]


@pytest.mark.parametrize("c", NASTY, ids=["quote", "newline", "big", "neg"])
def test_no_program_constant_reaches_the_source(c):
    k = Constant(c)
    # the constant as a scan key, in a comparison, in a negation, in an
    # assignment and in the head
    body = [
        Literal(atom=Atom("e", (X, k))),
        Literal(comparison=Comparison("!=", X, k)),
        Literal(atom=Atom("f", (k, X)), negated=True),
        Literal(assignment=Assignment(S, k)),
    ]
    if isinstance(c, int):
        body.append(Literal(assignment=Assignment(Y, X, "+", k)))
    rule = Rule(Atom("h", (X, k, S)), tuple(body))
    plan = compile_rule_plan(rule, None, None)
    for text in (str(c), repr(c), "import", "\\"):
        assert text not in plan.source
    assert c in plan.kernel.__globals__.values()

    others = [1, 2, 3] if isinstance(c, int) else ["a", "b", ""]
    db = database(
        e={(o, c) for o in others} | {(c, c), (others[0], others[1])},
        f={(c, others[1]), (others[2], c)},
    )
    got = eval_rule_columnar(rule, db, InternPool())
    assert got == eval_rule(rule, db) and got


def test_an_operator_outside_the_closed_tables_is_refused():
    injected = "< 0 or __import__('os').system('true') or 0 <"
    cmp = Comparison("<", X, Y)
    object.__setattr__(cmp, "op", injected)
    assign = Assignment(S, X, "+", Y)
    object.__setattr__(assign, "op", "and exit() or")
    for lit in (Literal(comparison=cmp), Literal(assignment=assign)):
        rule = Rule(Atom("h", (X,)), (Literal(atom=Atom("e", (X, Y))), lit))
        with pytest.raises(ValueError, match="cannot compile operator"):
            compile_rule_plan(rule, None, None)


# ---------------------------------------------------------------------------
# (b) laziness and counters, by hand
# ---------------------------------------------------------------------------

A = {(1, 10), (2, 20), (3, 30)}
B = {(10, 100), (20, 200), (30, 300)}  # every a-row finds one b-row


def test_an_empty_relation_ends_the_kernel_where_a_binding_reaches_it():
    rule = parse_rule("h(X, W) :- a(X, Y), b(Y, Z), c(Z, W).")
    db = database(a=A, b=B, c=set())
    pool = InternPool()
    plan = compile_rule_plan(rule, None, None)
    assert run_rule_plan(plan, db, pool) == set()
    # a's scan (1 binding: the empty one), b's scan (the first a-row),
    # then that row's b-match reaches c, which is empty
    assert pool.probes == 1 + 1
    # mirrors of a and b, b's index on its first column — nothing of c
    assert pool.builds == 3
    assert db.relations["c"]._columnar is None
    assert db.relations["a"].columnar(pool).index_patterns() == ()
    assert db.relations["b"].columnar(pool).index_patterns() == ((0,),)
    assert pool.builds == 3


def test_a_scan_no_binding_reaches_builds_nothing():
    rule = parse_rule("h(X, W) :- a(X, Y), b(Y, Z), Z < 0, c(Z, W).")
    db = database(a=A, b=B, c={(100, 1), (200, 2)})
    pool = InternPool()
    plan = compile_rule_plan(rule, None, None)
    assert run_rule_plan(plan, db, pool) == set()
    # every a-row reaches b's scan and dies at the filter behind it
    assert pool.probes == 1 + len(A)
    assert pool.builds == 3
    assert db.relations["c"]._columnar is None

    # … and once one gets through, c is mirrored and indexed, and counted
    db.add_fact("b", (30, -1))
    db.add_fact("c", (-1, 7))
    three = pool.intern(3)
    assert run_rule_plan(plan, db, pool) == {(three, pool.intern(7))}
    assert pool.probes == (1 + len(A)) + (1 + len(A) + 1)
    assert pool.builds == 5
    assert db.relations["c"].columnar(pool).index_patterns() == ((0,),)


def test_a_missing_delta_relation_is_an_empty_one():
    rule = parse_rule("h(X, Z) :- a(X, Y), b(Y, Z).")
    pool = InternPool()
    plan = compile_rule_plan(rule, None, 1)
    assert plan.reads == {"a"}
    assert run_rule_plan(plan, database(a=A, b=B), pool, {}) == set()
    assert (pool.probes, pool.builds) == (1, 1)


# ---------------------------------------------------------------------------
# (c) totality
# ---------------------------------------------------------------------------

def chain(n: int, preds=None) -> Rule:
    """``p(X0, Xn) :- e(X0, X1), …, e(Xn-1, Xn).``"""
    preds = preds or {}
    vs = [Variable(f"X{i}") for i in range(n + 1)]
    return Rule(
        Atom("p", (vs[0], vs[n])),
        tuple(
            Literal(atom=Atom(preds.get(i, "e"), (vs[i], vs[i + 1])))
            for i in range(n)
        ),
    )


E = {(0, 1), (1, 2), (2, 0), (1, 0)}


@pytest.mark.parametrize("n", [17, 25, 60])
def test_a_body_of_any_length_compiles(n):
    """CPython refuses more than 20 statically nested blocks: a long
    body continues in nested ``def``s, generated the same way."""
    rule = chain(n)
    plan = compile_rule_plan(rule, None, None)
    assert ("def part1(" in plan.source) == (n > columnar._MAX_LOOPS)
    db = database(e=E if n <= 25 else {(0, 1), (1, 2), (2, 0)})
    pool = InternPool()
    want = eval_rule(rule, db)
    assert set(pool.extern_rows(run_rule_plan(plan, db, pool))) == want
    assert want
    # Δ-restricted inside the continuation
    delta = {"e": database(e={(0, 1)}).relations["e"]}
    assert eval_rule_columnar(
        rule, db, pool, delta_overrides=delta, delta_at=n - 2
    ) == eval_rule(rule, db, delta_overrides=delta, delta_at=n - 2)


def test_an_empty_relation_inside_the_continuation_ends_the_whole_kernel():
    # one successor per node: every binding goes straight down to z
    rule = chain(25, {19: "z"})
    db = database(e={(0, 1), (1, 2), (2, 0)}, z=set())
    pool = InternPool()
    plan = compile_rule_plan(rule, None, None)
    assert run_rule_plan(plan, db, pool) == set()
    assert pool.probes == 19


# ---------------------------------------------------------------------------
# (d) legibility
# ---------------------------------------------------------------------------

def test_a_failing_kernel_shows_its_generated_line():
    rule = parse_rule("h(X) :- e(X, Y), X < Y.")
    plan = compile_rule_plan(rule, None, None)
    with pytest.raises(TypeError) as exc:
        run_rule_plan(plan, database(e={("a", 3)}), InternPool())
    frame = traceback.extract_tb(exc.value.__traceback__)[-1]
    assert frame.filename == plan.filename and "h(X)" in plan.filename
    assert frame.name == "kernel"
    assert "<" in frame.line
    assert frame.line == plan.source.splitlines()[frame.lineno - 1].strip()


def test_unresolved_filters_raise_as_join_body_does():
    unsafe = Rule(
        Atom("h", (X,)),
        (
            Literal(atom=Atom("e", (X, Constant("k")))),
            Literal(comparison=Comparison(">", Y, Constant(3))),
        ),
        check=False,
    )
    db = database(e={(1, "k")})
    with pytest.raises(RuntimeError) as row:
        eval_rule(unsafe, db)
    plan = compile_rule_plan(unsafe, None, None)
    with pytest.raises(RuntimeError) as col:
        run_rule_plan(plan, db, InternPool())
    assert str(col.value) == str(row.value)
    assert str(col.value).startswith("unresolved filters [")
    frame = traceback.extract_tb(col.value.__traceback__)[-1]
    assert frame.filename == plan.filename
    assert frame.line == "raise RuntimeError(UNRESOLVED)"
    # … and only if a binding gets there
    assert run_rule_plan(plan, database(e={(1, "j")}), InternPool()) == set()


def test_an_evicted_plan_leaves_linecache(monkeypatch):
    monkeypatch.setattr(columnar, "_RULE_PLAN_CAP", 2)
    monkeypatch.setattr(columnar, "_RULE_PLANS", type(columnar._RULE_PLANS)())
    plan = compile_rule_plan(parse_rule("h(X) :- e(X, Y)."), None, None)
    assert linecache.getlines(plan.filename) == plan.source.splitlines(True)
    linecache.checkcache()
    assert plan.filename in linecache.cache
    for i in range(2):
        compile_rule_plan(parse_rule(f"h{i}(X) :- e(X, Y)."), None, None)
    assert plan.filename not in linecache.cache


# ---------------------------------------------------------------------------
# (e) threads
# ---------------------------------------------------------------------------

def test_one_plan_on_four_threads():
    """Work units run kernels on worker lanes: a kernel shares nothing
    but the intern table (locked) and one ``pool.probes +=``."""
    rule = parse_rule('h(X, Z, "k", S) :- a(X, Y), b(Y, Z), S = X + Z.')
    n_a, fan = 150, 4
    db = database(
        a={(i, i + 1000) for i in range(n_a)},
        b={(i + 1000, j) for i in range(n_a) for j in range(fan)},
    )
    plan = compile_rule_plan(rule, None, None)
    pool = InternPool()
    want = run_rule_plan(plan, db, pool)  # builds mirrors and index
    single = 1 + n_a
    assert pool.probes == single and len(want) == n_a * fan
    assert set(pool.extern_rows(want)) == eval_rule(rule, db)

    threads_n, trials = 4, 8
    results: list[set] = []

    def worker(barrier: threading.Barrier) -> None:
        barrier.wait()
        results.append(run_rule_plan(plan, db, pool))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _trial in range(trials):
            barrier = threading.Barrier(threads_n)
            threads = [
                threading.Thread(target=worker, args=(barrier,))
                for _ in range(threads_n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == threads_n * trials
    assert all(r == want for r in results)
    assert len({id(r) for r in results}) == len(results)
    assert pool.probes == single * (1 + threads_n * trials)


# ---------------------------------------------------------------------------
# (f) inputs untouched
# ---------------------------------------------------------------------------

def test_a_kernel_mutates_nothing_it_reads():
    rule = parse_rule(
        "h(X, W) :- a(X, Y), b(Y, Z), !n(Z, X), c(Z, W), a(X, X)."
    )
    db = database(
        a=A | {(1, 1)}, b=B, c={(100, 5), (100, 6), (300, 7)}, n={(300, 3)}
    )
    delta = {"b": database(b={(10, 100), (99, 98)}).relations["b"]}
    pool = InternPool()
    plan = compile_rule_plan(rule, None, 1)

    def snapshot() -> dict:
        rels = {**db.relations, "Δb": delta["b"]}
        return {
            name: (
                set(rel.columnar(pool).rows),
                {
                    pattern: {k: set(b) for k, b in index.items()}
                    for pattern, index in rel.columnar(pool)._indexes.items()
                },
            )
            for name, rel in rels.items()
        }

    first = run_rule_plan(plan, db, pool, delta)
    assert set(pool.extern_rows(first)) == {(1, 5), (1, 6)}
    before = snapshot()
    second = run_rule_plan(plan, db, pool, delta)
    assert second == first and second is not first
    assert snapshot() == before
    second.clear()  # a fresh set: the caller's to change
    assert run_rule_plan(plan, db, pool, delta) == first
