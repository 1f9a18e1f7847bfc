"""A full plan's seed is an order, not a semantics.

A full (non-Δ) rule plan in id space is seeded where
:func:`~repro.datalog.columnar.full_seed` says: of the positive
occurrences with the most ground-bound variables and constants, the
textual first — unless none has any, and then the one over the fewest
rows. These tests hold that whatever the planner picks, the answer is
the row evaluator's (plain and aggregate heads, negation, comparisons,
ground assignments) and the counts are ``join_body``'s bindings; that
the pick is the one the rule says; that a plan seeded at the textual
first compiles the textual kernel; that a cross-product body is
repaired in the served plan and the check alike, in the order the
analyzer's hint names; and, on the end-to-end
benchmark's retail EDB, that the every-round check scans
``product_cat`` (200 rows) instead of ``sale`` (1 500), in the one join
its two aggregates over that body share, and probes less for the same
bytes.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.datalog.seminaive as seminaive
import repro.datalog.units as units
from repro.datalog import (
    Database,
    Delta,
    InternPool,
    Program,
    parse_program,
    parse_rule,
    seminaive_evaluate,
)
from repro.datalog.ast import Constant, Rule, Variable
from repro.datalog.columnar import (
    body_order,
    compile_rule_plan,
    full_seed,
    run_rule_plan,
)
from repro.datalog.plancache import CompiledProgramCache
from repro.datalog.units import build_execution_plan
from repro.runtime.service import UpdateStreamService
from repro.schedulers import HybridScheduler
from repro.verify.program import analyze_program
from repro.workloads.datalog_workloads import retail_analytics

from .test_rule_kernel import binding_counts, externed

VARS = ["X", "Y", "Z"]
#: variables twice as often as constants: most atoms are read whole, so
#: size is what decides
TERM = st.one_of(
    st.sampled_from(VARS), st.sampled_from(VARS), st.integers(0, 3).map(str)
)
FACTS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), unique=True, max_size=10
)


@st.composite
def seeded_rules(draw) -> Rule:
    """Safe rules over ``a/2``, ``b/2`` (and ``c/2``): two or three
    positive atoms, maybe a ground assignment, a comparison and a
    negation, and a plain or aggregate head."""
    preds = "abc"[:draw(st.integers(2, 3))]
    atoms = [(p, draw(TERM), draw(TERM)) for p in preds]
    body = [f"{p}({x}, {y})" for p, x, y in atoms]
    bound = sorted({t for _p, x, y in atoms for t in (x, y) if t in VARS})
    if draw(st.booleans()):
        # a ground assignment: binds a fresh variable, or fixes one an
        # atom reads before that atom is scanned
        target = draw(st.sampled_from(VARS + ["W"]))
        at = draw(st.integers(0, len(body)))
        body.insert(at, f"{target} = {draw(st.integers(0, 3))}")
        bound = sorted(set(bound) | {target})
    if bound and draw(st.booleans()):
        op = draw(st.sampled_from(["<", "!=", ">="]))
        body.append(
            f"{draw(st.sampled_from(bound))} {op} "
            f"{draw(st.sampled_from(bound + ['1', '2']))}"
        )
    if draw(st.booleans()):
        x = draw(st.sampled_from(bound + ["1"]))
        y = draw(st.sampled_from(bound + ["2"]))
        body.append(f"!{draw(st.sampled_from('abn'))}({x}, {y})")
    op = draw(st.sampled_from([None, "count", "sum", "min", "max"]))
    agg = draw(st.sampled_from(bound)) if bound and op else None
    terms = draw(st.lists(
        st.sampled_from([v for v in bound if v != agg] or ["1"]),
        max_size=2, unique=True,
    ))
    if agg is not None:
        terms.insert(draw(st.integers(0, len(terms))), f"{op}({agg})")
    head = "h" + (f"({', '.join(terms)})" if terms else "")
    return parse_rule(f"{head} :- {', '.join(body)}.")


def edb(**facts: list) -> Database:
    db = Database()
    for pred, rows in facts.items():
        db.relation(pred, 2)
        for row in rows:
            db.add_fact(pred, row)
    return db


def expected_seed(rule: Rule, db: Database) -> int:
    """What the rule says, written out: the occurrences that fix the
    most (ground-bound variables, then constants); if they fix nothing,
    the smallest of them, else the textual first."""
    ground = {
        lit.assignment.target.name for lit in rule.body
        if lit.assignment is not None
        and not list(lit.assignment.inputs())
    }
    fixed = {
        i: (
            sum(isinstance(t, Variable) and t.name in ground
                for t in lit.atom.terms),
            sum(isinstance(t, Constant) for t in lit.atom.terms),
        )
        for i, lit in enumerate(rule.body)
        if lit.atom is not None and not lit.negated
    }
    top = max(fixed.values())
    tied = [i for i, f in fixed.items() if f == top]
    if top == (0, 0):
        pick = min(tied, key=lambda i: (
            len(db.relations.get(rule.body[i].atom.predicate, ())), i
        ))
    else:
        pick = tied[0]
    return pick


@given(
    rule=seeded_rules(), a=FACTS, b=FACTS, c=FACTS,
    n=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_the_planners_order_is_an_order_not_a_semantics(rule, a, b, c, n):
    db = edb(a=a, b=b, c=c, n=n)
    seed = full_seed(rule, db.relations)
    assert seed == expected_seed(rule, db)
    program = Program((rule,))
    # the check's evaluator picks that seed and derives the row answer
    columnar, _ = seminaive_evaluate(program, db, pool=InternPool())
    row, _ = seminaive_evaluate(program, db)
    assert columnar.as_dict() == row.as_dict()
    # the counted plan at the chosen order: join_body's bindings
    pool = InternPool()
    counted = compile_rule_plan(rule, body_order(rule, seed), None, True)
    assert externed(rule, run_rule_plan(counted, db, pool), pool) == (
        binding_counts(rule, db)
    )


def test_every_occurrence_can_be_the_seed():
    rule = parse_rule("h(X, W) :- a(X, Y), b(Y, Z), c(Z, W).")
    small, big = [(0, 1)], [(i, j) for i in range(3) for j in range(3)]
    assert full_seed(rule, edb(a=small, b=big, c=big).relations) == 0
    assert full_seed(rule, edb(a=big, b=small, c=big).relations) == 1
    assert full_seed(rule, edb(a=big, b=big, c=small).relations) == 2
    # equal sizes: the text decides, as it did; a missing relation has
    # no rows
    assert full_seed(rule, edb(a=big, b=big, c=big).relations) == 0
    assert full_seed(rule, edb(a=big, b=big).relations) == 2
    assert body_order(rule, 2) == (2, 1, 0)


@given(x=FACTS, y=FACTS)
@settings(max_examples=50, deadline=None)
def test_bound_variables_and_constants_rank_before_size(x, y):
    # a ground-bound variable: both atoms are probed, neither scanned,
    # and the assignment runs ahead of the seed
    probed = parse_rule("p(X) :- X = 3, e(X), f(X).")
    rels = edb(e=x, f=y).relations
    assert full_seed(probed, rels) == 1
    assert body_order(probed, 1) == (0, 1, 2)
    # a constant: big is read through one index bucket
    keyed = parse_rule("q(X, Y) :- big(X, 3), small(X, Y).")
    assert full_seed(keyed, edb(big=x, small=y).relations) == 0


# ---------------------------------------------------------------------------
# the end-to-end benchmark's retail EDB
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def retail():
    program, db, _delta = retail_analytics(
        n_products=200, n_stores=24, n_sales=1500
    )
    return program, db


def _check(program: Program, db: Database, pool: InternPool) -> Database:
    """One verify check, as the plan cache runs it: the EDB's relations
    shared, so their mirrors and indexes carry over."""
    shared = {p: r for p, r in db.relations.items()}
    return seminaive_evaluate(
        program, db, shared_relations=shared, pool=pool
    )[0]


def test_the_check_scans_product_cat_not_sale(retail, monkeypatch):
    program, db = retail
    compiled = []
    real = seminaive.compile_rule_plan

    def spy(rule, order, delta_at, *args, **kwargs):
        plan = real(rule, order, delta_at, *args, **kwargs)
        compiled.append((rule, order, delta_at, plan))
        return plan

    monkeypatch.setattr(seminaive, "compile_rule_plan", spy)
    _check(program, db, InternPool())
    full = {rule.head.predicate: (rule, order, plan)
            for rule, order, at, plan in compiled if at is None}
    # the two joins are one: best_sale folds the groups of total_qty's
    _rule, order, plan = full["total_qty"]
    assert order == (1, 0)
    src = plan.source
    assert src.index("'product_cat'") < src.index("'sale'")
    assert "best_sale" not in full
    # one relation in the body: nothing to choose, and the seeded plan
    # is the textual kernel
    for head in ("store_lines", "hot", "quiet_store", "busy"):
        rule, order, plan = full[head]
        assert order is not None
        assert plan.source == real(rule, None, None).source


def test_the_check_probes_less_for_the_same_bytes(retail, monkeypatch):
    program, db = retail
    row = seminaive_evaluate(program, db)[0].as_dict()

    def probes_of_one_check() -> tuple[int, dict]:
        pool = InternPool()
        _check(program, db, pool)  # mirrors and indexes
        before = pool.probes
        got = _check(program, db, pool)
        return pool.probes - before, got.as_dict()

    seeded, got = probes_of_one_check()
    assert got == row
    monkeypatch.setattr(seminaive, "full_seed", lambda rule, relations: None)
    textual, got = probes_of_one_check()
    assert got == row
    # the one join total_qty and best_sale share: 1 + 1 500 probes
    # textually, 1 + 200 seeded
    assert textual - seeded == 1500 - 200


def test_a_task_recompute_is_seeded_too(retail, monkeypatch):
    program, db = retail
    compiled = Counter()
    real = units.compile_rule_plan

    def spy(rule, order, delta_at, *args, **kwargs):
        if delta_at is None:
            compiled[rule.head.predicate, order] += 1
        return real(rule, order, delta_at, *args, **kwargs)

    monkeypatch.setattr(units, "compile_rule_plan", spy)
    cache = CompiledProgramCache(program)
    cu = cache.compile(program, db, Delta().insert("sale", ("s0", "p0", 3)))
    plan = cache.plan(cu)
    values, _ = plan.execute_serial()
    # the miss recomputes every task: the two joins from product_cat
    assert compiled["total_qty", (1, 0)] == 1
    assert compiled["best_sale", (1, 0)] == 1
    oracle = seminaive_evaluate(program, cu.edb_new)[0]
    for pred in ("total_qty", "best_sale"):
        got = values[plan.final_nodes[pred]]
        assert set(got) == set(oracle.relations[pred])


# ---------------------------------------------------------------------------
# a cross-product body, served and checked
# ---------------------------------------------------------------------------

#: textual order joins a × b, then probes c; `a` is the smallest
#: relation, so the planner scans it, probes `c` on its first column
#: and then `b`
CROSS = "p(X, Z) :- a(X), b(Z), c(X, Z)."


def _cross_edb() -> Database:
    db = edb(c=[(x, z) for x in range(6) for z in range(0, 40, 5)])
    for pred, rows in (("a", range(3)), ("b", range(40))):
        db.relation(pred, 1)
        for v in rows:
            db.add_fact(pred, (v,))
    return db


#: rounds that move every relation and keep `a` the smallest
CROSS_STREAM = (
    Delta().insert("c", (1, 7)),
    Delta().insert("b", (40,)).insert("c", (2, 40)),
    Delta().delete("a", (0,)).insert("a", (4,)),
    Delta().delete("c", (1, 5)).delete("b", (10,)),
    Delta().insert("a", (5,)),
)


def _serve(program: Program, db: Database, stream) -> None:
    """Serve ``stream`` round by round: every round passes its check
    and lands on the row oracle's materialization."""
    svc = UpdateStreamService(program, db, HybridScheduler(), workers=2)
    try:
        for delta in stream:
            svc.submit(delta)
            assert svc.run_round().materialization_ok
            assert svc.materialization().as_dict() == (
                seminaive_evaluate(program, svc.database())[0].as_dict()
            )
    finally:
        svc.close()


def test_a_cross_product_body_is_served_and_checked_in_one_order(
    monkeypatch,
):
    program = parse_program(CROSS)
    (rule,) = program.proper_rules
    full: dict[str, set] = {"task": set(), "check": set()}
    for side, module in (("task", units), ("check", seminaive)):
        def spy(rule, order, delta_at, *args, _real=module.compile_rule_plan,
                _side=side, **kwargs):
            if delta_at is None:
                full[_side].add(order)
            return _real(rule, order, delta_at, *args, **kwargs)

        monkeypatch.setattr(module, "compile_rule_plan", spy)
    checks = []
    real_evaluate = CompiledProgramCache.evaluate

    def evaluate(cache, cu):
        before = cache.pool.probes
        got = real_evaluate(cache, cu)
        rels = cu.edb_new.relations
        checks.append(
            (cache.pool.probes - before, len(rels["a"]) + len(rels["c"]))
        )
        return got

    monkeypatch.setattr(CompiledProgramCache, "evaluate", evaluate)
    _serve(program, _cross_edb(), CROSS_STREAM)
    # the served task's recompute and the check: one seeded order
    assert full == {"task": {(0, 2, 1)}, "check": {(0, 2, 1)}}
    assert body_order(rule, full_seed(rule, _cross_edb().relations)) == (
        0, 2, 1
    )
    # each check scans a, probes c per row of a, b per row of c found:
    # never the |a| · |b| textual order probes c with
    assert len(checks) == len(CROSS_STREAM)
    assert all(probes <= bound for probes, bound in checks), checks
    # the plan build_execution_plan binds lands on the row oracle too
    cu = CompiledProgramCache(program).compile(
        program, _cross_edb(), CROSS_STREAM[0]
    )
    plan = build_execution_plan(cu)
    values, _ = plan.execute_serial()
    assert plan.materialization(values).as_dict() == (
        seminaive_evaluate(program, cu.edb_new)[0].as_dict()
    )


def test_a_hint_still_orders_the_full_plan(monkeypatch):
    """The analyzer's cartesian-join hint is the planner's own order: on
    an EDB whose smallest relation is the hint's first atom, the check
    compiles its one full plan in the hint's order, keyed at its seed."""
    program = parse_program(CROSS)
    (hint,) = analyze_program(program).join_orders_for(program).values()
    assert hint == (0, 2, 1)
    compiled = []
    real = seminaive.compile_rule_plan

    def spy(rule, order, delta_at, *args, **kwargs):
        compiled.append((order, delta_at))
        return real(rule, order, delta_at, *args, **kwargs)

    monkeypatch.setattr(seminaive, "compile_rule_plan", spy)
    plans: dict = {}
    seminaive.evaluate_stratum(
        program.strata[-1], _cross_edb(), InternPool(), plans=plans
    )
    assert compiled == [(hint, None)]
    # the kept dict: the one plan, and the loop's instance table
    assert list(plans) == [None, (0, None, hint[0])]


def test_a_body_with_zero_or_one_positive_atom_still_plans():
    program = parse_program("""
        z(X) :- X = 3, !n(X).
        o(X, Y) :- a(X), Y = X + 1.
    """)
    zero, one = program.proper_rules
    db = Database()
    db.relation("n", 1)
    db.relation("a", 1)
    db.add_fact("a", (1,))
    assert full_seed(zero, db.relations) is None
    assert full_seed(one, db.relations) == 0
    columnar, _ = seminaive_evaluate(program, db, pool=InternPool())
    assert columnar.as_dict() == seminaive_evaluate(program, db)[0].as_dict()
    _serve(program, db, (
        Delta().insert("a", (2,)),
        Delta().insert("n", (3,)),
        Delta().delete("n", (3,)).delete("a", (1,)),
    ))
