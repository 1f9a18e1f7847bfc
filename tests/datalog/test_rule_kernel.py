"""One kernel per rule plan: what the differential suites cannot see.

``compile_rule_plan`` turns a (rule, order, Δ-position) into one
generated function. That it derives what the per-tuple evaluator derives
is the property suite's job (``test_columnar_properties.py``); these
tests pin the rest of the contract — no program constant reaches the
generated source, relations and indexes are resolved only when a binding
reaches their scan, ``pool.probes`` counts those bindings and nothing
else, a body of any length compiles, a failing kernel's traceback shows
the generated line, and a kernel run from several threads changes only
its own locals and the one counter. The counted mode — what a served
task node maintains its value through — counts per head row (per group
and aggregated value) exactly the bindings ``join_body`` enumerates, and
only task nodes ask for it.
"""

from __future__ import annotations

import linecache
import sys
import threading
import traceback

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.datalog.columnar as columnar
from repro.datalog import Database, InternPool, parse_program, parse_rule
from repro.datalog.ast import (
    Aggregate,
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
from repro.datalog.unify import eval_rule, instantiate_head, join_body


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


# ---------------------------------------------------------------------------
# (g) counted mode: a multiplicity is the number of bindings
# ---------------------------------------------------------------------------

VARS = ["X", "Y", "Z"]
TERM = st.one_of(st.sampled_from(VARS), st.integers(0, 3).map(str))


@st.composite
def counted_rules(draw) -> Rule:
    """Safe rules over ``e/2`` and ``f/2``: one to three atoms with
    repeated variables and constants, maybe a filter, an assignment and
    a negation, and a plain, constant-bearing, 0-ary or aggregate head."""
    atoms = draw(st.lists(
        st.tuples(st.sampled_from("ef"), TERM, TERM), min_size=1, max_size=3
    ))
    body = [f"{p}({a}, {b})" for p, a, b in atoms]
    bound = sorted({t for _p, a, b in atoms for t in (a, b) if t in VARS})
    if bound and draw(st.booleans()):
        op = draw(st.sampled_from(["<", "!=", ">="]))
        right = draw(st.sampled_from(bound + ["1", "2"]))
        body.append(f"{draw(st.sampled_from(bound))} {op} {right}")
    if bound and draw(st.booleans()):
        v, k = draw(st.sampled_from(bound)), draw(st.integers(0, 2))
        body.append(f"S = {v} + {k}")
        bound.append("S")
    if draw(st.booleans()):
        a = draw(st.sampled_from(bound + ["1"]))
        b = draw(st.sampled_from(bound + ["2"]))
        body.append(f"!{draw(st.sampled_from('ef'))}({a}, {b})")
    op = draw(st.sampled_from([None, "count", "sum", "min", "max"]))
    agg = draw(st.sampled_from(bound)) if bound and op else None
    terms = draw(st.lists(
        st.sampled_from([v for v in bound if v != agg] or ["1"]),
        max_size=2, unique=True,
    ))
    if draw(st.booleans()):
        terms.append('"k"')
    if agg is not None:
        terms.insert(draw(st.integers(0, len(terms))), f"{op}({agg})")
    head = "h" + (f"({', '.join(terms)})" if terms else "")
    return parse_rule(f"{head} :- {', '.join(body)}.")


def binding_counts(rule: Rule, db: Database, **delta) -> Counter:
    """Per head row — per (group row, aggregated value) for an aggregate
    head — the substitutions ``join_body`` enumerates."""
    head = rule.head.terms
    agg = next((t for t in head if isinstance(t, Aggregate)), None)
    out: Counter = Counter()
    for s in join_body(rule.body, db, **delta):
        if agg is None:
            out[instantiate_head(rule.head, s)] += 1
        else:
            group = tuple(
                t.value if isinstance(t, Constant) else s[t.name]
                for t in head if not isinstance(t, Aggregate)
            )
            out[group, s[agg.var.name]] += 1
    return out


def externed(rule: Rule, got: dict, pool: InternPool) -> Counter:
    if not rule.has_aggregate:
        return Counter({pool.extern_row(row): m for row, m in got.items()})
    return Counter({
        (pool.extern_row(group), pool.extern(v)): m
        for (group, v), m in got.items()
    })


@given(
    rule=counted_rules(),
    e_facts=st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=10),
    f_facts=st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=10),
    d_facts=st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_counted_multiplicities_are_the_bindings_join_body_enumerates(
    rule, e_facts, f_facts, d_facts
):
    db = database(e=e_facts, f=f_facts)
    db.relation("e", 2)
    db.relation("f", 2)
    pool = InternPool()
    whole = compile_rule_plan(rule, None, None, counted=True)
    got = run_rule_plan(whole, db, pool)
    assert externed(rule, got, pool) == binding_counts(rule, db)
    # ... and the plain mode folds exactly those bindings
    assert set(pool.extern_rows(
        run_rule_plan(compile_rule_plan(rule, None, None), db, pool)
    )) == eval_rule(rule, db)
    # every Δ-plan: its occurrence scanned first, the rest bound-first
    positive = [
        i for i, lit in enumerate(rule.body)
        if lit.atom is not None and not lit.negated
    ]
    for at in positive:
        lit = rule.body[at]
        order = columnar.body_order(rule, at)
        assert [i for i in order if i in positive][0] == at
        assert sorted(order) == list(range(len(rule.body)))
        delta = {lit.atom.predicate: database(d=d_facts).relations["d"]}
        plan = compile_rule_plan(rule, order, at, counted=True)
        assert externed(rule, run_rule_plan(plan, db, pool, delta), pool) == (
            binding_counts(rule, db, delta_overrides=delta, delta_at=at)
        )


def held_below(rule: Rule, db: Database, heads: dict, stamps: dict) -> set:
    """The candidate head facts (fact → bound) ``join_body`` derives
    with ``e`` read only at rows stamped below the candidate's bound —
    at its positive occurrences: a negation of ``e`` reads all of it, as
    the kernel's probe of the mirror does (stratification keeps an
    SCC's own predicates out of its negations, so a retraction never
    asks for a bound there)."""
    rule = replace(rule, body=tuple(
        replace(lit, atom=replace(lit.atom, predicate="e_all"))
        if lit.negated and lit.atom.predicate == "e" else lit
        for lit in rule.body
    ))
    out = set()
    for bound in set(heads.values()):
        below = Database(dict(db.relations))
        below.relations["e_all"] = db.relations["e"]
        below.relations["e"] = db.relations["e"].wrap(
            {t for t in db.relations["e"] if stamps[t] < bound}
        )
        out |= {h for h in eval_rule(rule, below) if heads.get(h) == bound}
    return out


@given(
    rule=counted_rules(),
    e_facts=st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=10),
    f_facts=st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=10),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_a_head_bound_plan_finds_a_derivation_below_each_bound(
    rule, e_facts, f_facts, data
):
    """The existence mode a fixpoint node's retraction checks support
    with: per candidate head row, whether one binding reaches it with
    ``e`` (the stamped predicate) read only below the candidate's bound
    — from the head's variables, ``e`` behind ``f`` where both fix as
    much."""
    if rule.has_aggregate:
        with pytest.raises(ValueError, match="head-bound"):
            compile_rule_plan(rule, None, None, stamped=frozenset("e"))
        return
    db = database(e=e_facts, f=f_facts)
    db.relation("e", 2)
    db.relation("f", 2)
    stamps = {t: data.draw(st.integers(0, 3)) for t in e_facts}
    derived = sorted(eval_rule(rule, db))
    arity = len(rule.head.terms)
    strays = st.tuples(*[st.integers(0, 4)] * arity)
    facts = data.draw(st.sets(
        st.sampled_from(derived) | strays if derived else strays,
        max_size=6,
    ))
    heads = {h: data.draw(st.sampled_from([1, 2, 4, float("inf")]))
             for h in facts}
    variables = [t.name for t in rule.head.terms if isinstance(t, Variable)]
    order = columnar.body_order(rule, None, variables, {"e"})
    plan = compile_rule_plan(rule, order, None, stamped=frozenset({"e"}))
    pool = InternPool()
    got = plan.kernel(
        {p: r.columnar(pool) for p, r in db.relations.items()},
        {pool.intern_fact("h", h): b for h, b in heads.items()},
        pool,
        {"e": {pool.intern_fact("e", t): s for t, s in stamps.items()}},
    )
    assert set(pool.extern_rows(got)) == held_below(rule, db, heads, stamps)


def test_a_head_bound_probe_of_constants_holds_for_the_first_candidate():
    """A stamped occurrence the head leaves fully bound by constants is
    probed with their ids: the row is built after the first candidate's
    binding interned them, not from the locals still unset."""
    rule = parse_rule("h :- e(0, 0).")
    plan = compile_rule_plan(
        rule, columnar.body_order(rule, None, [], {"e"}), None,
        stamped=frozenset({"e"}),
    )
    pool = InternPool()
    e = database(e={(0, 0)}).relations["e"].columnar(pool)
    stamps = {"e": {pool.intern_fact("e", (0, 0)): 1}}
    for bound, held in [(2, {()}), (1, set())]:
        got = plan.kernel({"e": e}, {(): bound}, pool, stamps)
        assert set(pool.extern_rows(got)) == held


@pytest.mark.parametrize("n", [3, 17, 25])
def test_a_head_bound_plan_of_any_length(n):
    """A long body continues in nested ``def``s, each saying whether it
    reached the head; the candidates stay the outermost loop."""
    rule = chain(n)
    db = database(e={(0, 1), (1, 2), (2, 0)})  # one walk of n from each
    pool = InternPool()
    want = eval_rule(rule, db)
    plan = compile_rule_plan(
        rule, columnar.body_order(rule, None, ["X0", f"X{n}"]), None,
        stamped=frozenset(),
    )
    assert ("def part1(" in plan.source) == (n + 1 > columnar._MAX_LOOPS)
    heads = {(a, b): 1 for a in range(3) for b in range(3)}
    got = plan.kernel(
        {"e": db.relations["e"].columnar(pool)},
        {pool.intern_fact("p", h): b for h, b in heads.items()},
        pool, {},
    )
    assert set(pool.extern_rows(got)) == want and len(want) == 3


def test_the_counted_mode_leaves_the_plain_source_alone():
    rule = parse_rule("h(X, sum(Y)) :- e(X, Y), f(Y, Z), Z < 3.")
    plain = compile_rule_plan(rule, None, None)
    counted = compile_rule_plan(rule, None, None, counted=True)
    assert plain is not counted and plain.source != counted.source
    assert "groups" in plain.source and "groups" not in counted.source
    assert columnar._compile_rule(rule, None, None).source == plain.source
    assert "counted" in counted.filename and "counted" not in plain.filename


@pytest.mark.parametrize(
    "head, key, bucket",
    [
        ("h(count(Y))", "()", "rows = S0.rows"),
        ("h(X, count(Y))", "v0", "for v0, rows in S0.index((0,))"),
        ("h(sum(Y), X)", "v0", "for v0, rows in S0.index((0,))"),
        ("h(X, Y, max(Y))", "(v0, v1)",
         "for (v0, v1), rows in S0.index((0, 1))"),
    ],
    ids=["none", "one", "one-after", "two"],
)
def test_a_one_column_group_keys_on_the_bare_id(head, key, bucket):
    """A plain aggregate kernel groups on its plain head columns' ids —
    one column on the bare id, as a one-position index is keyed, so no
    1-tuple is built per binding; none or several on a tuple — and
    folds the groups through ``fold_groups``, which reads the key the
    same way. Over one relation its groups are the buckets of that
    relation's index on those columns, keyed the same way (none: the
    whole row set)."""
    rule = parse_rule(f"{head} :- e(X, Y), f(Y).")
    plan = compile_rule_plan(rule, None, None)
    assert f"groups[{key}].append(" in plan.source
    assert "return fold_groups(HEAD, groups, pool)" in plan.source
    db = Database()
    for pred, facts in (("e", [(1, 2), (1, 3), (4, 2)]), ("f", [(2,), (3,)])):
        db.relation(pred, len(facts[0]))
        for fact in facts:
            db.add_fact(pred, fact)
    pool = InternPool()
    assert set(pool.extern_rows(run_rule_plan(plan, db, pool))) == (
        eval_rule(rule, db)
    )
    one = compile_rule_plan(
        parse_rule(f"{head} :- e(X, Y)."), None, None
    ).source
    assert bucket in one and "groups" not in one


def _record_counted(monkeypatch) -> list:
    """Every plan compiled from here on, as ``counted`` flags."""
    asked: list = []
    real = columnar._compile_rule

    def compile_rule(rule, order, delta_at, counted=False, stamped=None):
        asked.append(counted)
        return real(rule, order, delta_at, counted, stamped)

    monkeypatch.setattr(columnar, "_compile_rule", compile_rule)
    monkeypatch.setattr(columnar, "_RULE_PLANS", type(columnar._RULE_PLANS)())
    return asked


def test_the_evaluator_and_the_fix_unit_never_request_a_counted_plan(
    monkeypatch,
):
    from repro.datalog import Delta, seminaive_evaluate
    from repro.datalog.plancache import CompiledProgramCache

    asked = _record_counted(monkeypatch)
    program = parse_program(
        """
        p(X, Y) :- e(X, Y).
        p(X, Z) :- p(X, Y), e(Y, Z), !g(Z).
        n(X, count(Y)) :- p(X, Y).
        """
    )
    db = database(e={(0, 1), (1, 2), (2, 3)}, g={(9,)})
    seminaive_evaluate(program, db, pool=InternPool())
    assert asked and not any(asked)
    # a served plan of only a fixpoint node (the aggregate stratum is a
    # task node: leave it out), its miss and a continued round
    recursive = parse_program("p(X, Y) :- e(X, Y).\np(X, Z) :- p(X, Y), e(Y, Z).")
    cache = CompiledProgramCache(recursive)
    for delta in (Delta().insert("e", (3, 4)), Delta().insert("e", (4, 5))):
        cu = cache.compile(recursive, db, delta)
        values, _ = cache.plan(cu).execute_serial()
        cache.commit(cu, values)
        db = cu.edb_new
    assert not any(asked)
    # ... while a task node asks for nothing but counted plans
    cache = CompiledProgramCache(program)
    cache.plan(cache.compile(program, db, Delta().insert("e", (7, 8))))
    assert any(asked)
