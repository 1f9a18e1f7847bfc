"""Stratified bottom-up evaluation: naive and semi-naive.

Semi-naive evaluation is the workhorse of Datalog materialization:
each stratum's fixpoint is computed iteratively, and at iteration ``k``
each recursive rule is evaluated once per body occurrence of a
recursive predicate, with that occurrence restricted to
Δ\\ :sub:`k-1` (the facts newly derived in the previous iteration). In
the computation DAG this paper schedules, a recursive stratum's whole
loop is one fixpoint node: there is one DAG, the static one
(:func:`~repro.datalog.compiler.build_round_structure`), and a compiled
trace is the engine's round on it with its observed flags.

:func:`naive_evaluate` re-derives everything every iteration and serves
as the test oracle for :func:`seminaive_evaluate`.

:func:`evaluate_stratum` is the package's one semi-naive loop. Every
fixpoint anything computes runs through it: :func:`seminaive_evaluate`
(the verify check, the row oracle) and the static DAG's fixpoint node
(:mod:`repro.datalog.units`), which recomputes its SCC with it from
iteration 0 or continues the committed fixpoint with it, seeded with
what its inputs gained — insertion maintenance is the
same loop started from Δ. Nothing else here maintains a
materialization: that is the static DAG, run by the served round and by
:class:`~repro.datalog.incremental.IncrementalEngine` alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .ast import Program, Rule
from .columnar import (
    ColumnarRelation,
    InternPool,
    RulePlan,
    compile_rule_plan,
    run_rule_plan,
)
from .database import Database, Relation
from .unify import eval_rule

__all__ = [
    "naive_evaluate",
    "seminaive_evaluate",
    "evaluate_stratum",
    "EvaluationTrace",
]


@dataclass
class EvaluationTrace:
    """The strata :func:`seminaive_evaluate` ran, in evaluation order.

    Nothing per iteration: there is one DAG, and a compiled trace is
    the engine's round on it with its observed flags, not a record of
    an evaluation."""

    strata: list[list[str]] = field(default_factory=list)


def _seed(program: Program, db: Database) -> None:
    """Give ``db`` a relation for every predicate ``program`` mentions
    and add the facts it states — a stratum's entry state."""
    for pred, arity in program.arities().items():
        db.relation(pred, arity)
    for pred, facts in program.stated_facts.items():
        for fact in facts:
            db.add_fact(pred, fact)


def _writes(program: Program, pred: str) -> bool:
    """Whether evaluating ``program`` writes ``pred``: an IDB predicate
    or one the program states facts for."""
    return pred in program.idb_predicates() or pred in program.stated_facts


def naive_evaluate(
    program: Program,
    db: Database | None = None,
    max_iterations: int | None = None,
) -> Database:
    """Naive stratified fixpoint: re-run all rules until no change.

    O(iterations × rules × join cost); the reference implementation.
    ``max_iterations`` bounds the per-stratum passes — arithmetic
    assignments can make fixpoints diverge, and the guard turns an
    infinite loop into a :class:`RuntimeError`.
    """
    db = db.copy() if db is not None else Database()
    _seed(program, db)
    for stratum, rules in zip(program.depgraph.stratify(), program.strata):
        changed = True
        passes = 0
        while changed:
            passes += 1
            if max_iterations is not None and passes > max_iterations:
                raise RuntimeError(
                    f"fixpoint for stratum {stratum} exceeded "
                    f"{max_iterations} iterations (divergent arithmetic?)"
                )
            changed = False
            for _ri, rule in rules:
                # two-phase: never mutate a relation while joining over it
                derived = eval_rule(rule, db)
                for fact in derived:
                    if db.add_fact(rule.head.predicate, fact):
                        changed = True
    return db


def evaluate_stratum(
    rules: Sequence[tuple[int, Rule]],
    db: Database,
    pool: InternPool | None = None,
    max_iterations: int | None = None,
    orders: dict[int, tuple[int, ...]] | None = None,
    delta: dict[str, set] | None = None,
    plans: dict[tuple[int, int | None], RulePlan] | None = None,
) -> dict[str, list[set]]:
    """Run one stratum's semi-naive loop to fixpoint over ``db``.

    ``rules`` are the stratum's ``(proper-rule index, rule)`` pairs;
    ``db`` holds every relation they read (a missing head is created
    empty); ``orders`` maps rule indices to body evaluation orders (the
    analyzer's join hints). Returns, for a run seeded with ``delta``, per
    head that gained rows each iteration's Δ of it in order: disjoint
    row sets whose union is what the loop added (empty for an unseeded
    run).

    With ``delta=None`` the heads hold the stratum's entry state:
    iteration 0 runs every rule in full, every later one each positive
    body occurrence of a predicate the previous one grew, restricted to
    its Δ. A ``delta`` (predicate → rows its relation in ``db`` gained:
    id-rows under ``pool``, value tuples without) says the heads hold
    the fixpoint over ``db`` without those rows, and the loop continues
    it from that Δ — semi-naive continuation is the derivative of the
    fixpoint for a monotone change ("Fixing Incremental Computation",
    PAPERS.md); the caller keeps ``delta`` off every predicate read
    under negation or by an aggregate rule. Iterations are snapshots:
    every instance joins against the state the previous one left.

    No relation handed in ``db`` is written: a head's first gain goes to
    a copy (in id space a clone of its mirror, rows and indexes) that
    takes its place in ``db``, so a head that gains nothing is still
    the object handed in. Without a pool the loop grows value tuples
    through the per-tuple evaluator; with one it stays in id space —
    ``produced - known`` is one set difference, Δ is the fresh rows as
    they are, each rule plan is compiled on first use into ``plans``
    (``(rule index, Δ-position)`` → plan, a dict a caller may keep) —
    and a head that gained rows is published as a :class:`Relation`
    adopting the mirror it grew (:meth:`Relation.adopt`), externed by
    its first reader. The one semi-naive loop: :func:`seminaive_evaluate`
    runs each stratum through it, a fixpoint node of the static DAG
    (:mod:`repro.datalog.units`) its SCC.
    """
    orders = orders or {}
    plans = {} if plans is None else plans
    heads = {
        rule.head.predicate: db.relation(rule.head.predicate, rule.head.arity)
        for _ri, rule in rules
    }
    # the rule instances an iteration runs: iteration 0 every rule in
    # full (key None), a later one per predicate in its Δ each positive
    # body occurrence of it, restricted to the Δ
    instances: dict[str | None, list[tuple[int, Rule, int | None]]] = {
        None: [(ri, rule, None) for ri, rule in rules]
    }
    for ri, rule in rules:
        for pos, lit in enumerate(rule.body):
            if lit.atom is not None and not lit.negated:
                instances.setdefault(lit.atom.predicate, []).append(
                    (ri, rule, pos)
                )

    if pool is None:
        grown: dict = dict(heads)
        view = db

        def derive(ri: int, rule: Rule, pos: int | None, delta) -> set:
            return eval_rule(rule, db, delta, pos, orders.get(ri))

        def wrap(pred: str, rows: set):
            return db.relations[pred].wrap(rows)

    else:
        grown = {p: rel.columnar(pool) for p, rel in heads.items()}
        view = Database({**db.relations, **grown})

        def derive(ri: int, rule: Rule, pos: int | None, delta) -> set:
            plan = plans.get((ri, pos))
            if plan is None:
                plan = plans[ri, pos] = compile_rule_plan(
                    rule, orders.get(ri), pos
                )
            return run_rule_plan(plan, view, pool, delta)

        def wrap(pred: str, rows: set):
            # id-rows as they are: no intern, no build
            out = ColumnarRelation(pred, db.relations[pred].arity, pool)
            out.rows = rows
            return out

    seeded = delta is not None
    if delta is not None:
        delta = {p: wrap(p, rows) for p, rows in delta.items() if rows}
    copied: set[str] = set()
    gained: dict[str, list[set]] = {}
    rounds = 0
    while delta is None or delta:
        # two-phase (snapshot) semantics: every instance joins against
        # the state the previous iteration left, and the outputs merge
        # only after all have run — no rule sees a fact derived earlier
        # in the same iteration
        staged: list[tuple[str, set]] = [
            (rule.head.predicate, derive(ri, rule, pos, delta))
            for p in ((None,) if delta is None else delta)
            for ri, rule, pos in instances.get(p, ())
        ]
        delta = {}
        for pred, produced in staged:
            rel = grown[pred]
            fresh = produced - rel.rows
            if not fresh:
                continue
            if pred not in copied:  # copy on the first gain
                copied.add(pred)
                rel = grown[pred] = view.relations[pred] = (
                    rel.copy() if pool is None else rel.clone()
                )
            rel.extend(fresh)
            if pred in delta:  # another rule of the same head
                delta[pred].extend(fresh)
            else:
                # the Δ wraps this set as is, so what another rule of
                # the head adds to the Δ lands in it too
                delta[pred] = rel.wrap(fresh)
                if seeded:  # kept alive only for a caller that reads it
                    gained.setdefault(pred, []).append(fresh)
        if delta:
            rounds += 1
            if max_iterations is not None and rounds > max_iterations:
                raise RuntimeError(
                    f"fixpoint for stratum {sorted(heads)} exceeded "
                    f"{max_iterations} iterations (divergent arithmetic?)"
                )

    if pool is not None:
        for pred in copied:
            rel = db.relations[pred] = Relation(pred, heads[pred].arity)
            rel.adopt(grown[pred])
    return gained


def seminaive_evaluate(
    program: Program,
    db: Database | None = None,
    max_iterations: int | None = None,
    shared_relations: dict[str, Relation] | None = None,
    pool: InternPool | None = None,
) -> tuple[Database, EvaluationTrace]:
    """Stratified semi-naive fixpoint.

    Returns the materialized database and its :class:`EvaluationTrace`.
    ``max_iterations`` bounds each stratum's Δ rounds (see
    :func:`naive_evaluate`).

    ``shared_relations`` lets a caller substitute pre-indexed
    :class:`Relation` objects for predicates the evaluation only
    *reads* — EDB predicates that are not fact-rule heads. The plan
    cache passes the EDB relations it carries from round to round here
    so the from-scratch joins probe indexes that already exist instead
    of rebuilding them every round. Each shared relation must hold
    exactly the facts ``db`` holds for that predicate (it replaces the
    copy, which is then not made); predicates the evaluation writes
    (IDB heads, fact-rule heads) are rejected because sharing them would
    mutate the caller's objects.

    ``pool`` runs every stratum in id space (:func:`evaluate_stratum`):
    compiled rule plans (:func:`~repro.datalog.columnar.run_rule_plan`:
    interned id-rows, vectorized hash probes) over the relations'
    columnar mirrors, each head published as the mirror its fixpoint
    grew and externed by whoever first reads its facts — semantics are
    identical, and shared relations additionally carry their mirrors
    across rounds. It is how a served round's verify check evaluates.
    ``None`` keeps the per-tuple row evaluator: the independent oracle
    the differential suites and ``benchmarks/e2e`` compare against.

    The arities, stated facts and strata are the program's own, the
    objects the served path reads too: the oracle shares the
    stratification's one result, as it always shared its code; what it
    does not share is any node value, plan or Z-set of a round.
    """
    shared = shared_relations or {}
    for pred in shared:
        if _writes(program, pred):
            raise ValueError(
                f"cannot share relation {pred!r}: the evaluation "
                "writes it (IDB or fact-rule head)"
            )
    given = db.relations if db is not None else {}
    db = Database({
        n: shared[n] if n in shared else r.copy() for n, r in given.items()
    })
    db.relations.update(shared)
    _seed(program, db)
    for rules in program.strata:
        evaluate_stratum(rules, db, pool, max_iterations)
    return db, EvaluationTrace(list(map(list, program.depgraph.stratify())))
