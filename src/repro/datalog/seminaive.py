"""Stratified bottom-up evaluation: naive and semi-naive.

Semi-naive evaluation is the workhorse of Datalog materialization and
the source of the computation DAGs this paper schedules: each stratum's
fixpoint is computed iteratively, and at iteration ``k`` each recursive
rule is evaluated once per body occurrence of a recursive predicate,
with that occurrence restricted to Δ\\ :sub:`k-1` (the facts newly
derived in the previous iteration). The (rule, Δ-position, iteration)
instances are exactly the *tasks* the DAG compiler emits.

:func:`naive_evaluate` re-derives everything every iteration and serves
as the test oracle for :func:`seminaive_evaluate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import Program, Rule
from .columnar import InternPool, eval_rule_columnar
from .database import Database, Relation
from .depgraph import DependencyGraph
from .unify import eval_rule, instantiate_head, join_body

__all__ = [
    "naive_evaluate",
    "seminaive_evaluate",
    "evaluate_stratum",
    "EvaluationTrace",
]


@dataclass
class EvaluationTrace:
    """What semi-naive evaluation did — consumed by the DAG compiler.

    ``iterations[stratum_idx]`` is a list of iteration records; each
    record maps ``(rule_idx, delta_pos)`` to the set of *all* facts the
    rule instance's join produced in that iteration. ``rule_idx``
    indexes ``program.proper_rules`` (global, not stratum-local);
    ``delta_pos`` is None for non-recursive rules, evaluated once in
    iteration 0.
    Recording the full join output — not only the facts that were new —
    makes each record a pure function of the rule's input relations,
    which the DAG compiler relies on to decide whether a task's output
    *changed* between two materializations. Evaluation uses snapshot
    (two-phase) iteration semantics — every rule instance of iteration
    ``k`` joins against the state *after iteration k−1*, and the facts
    it derives only become visible at iteration ``k+1`` — so each
    record is a pure function of the predicate states the compiled DAG
    wires into the task, and re-executing the instances in any
    precedence-respecting order (in particular concurrently, in
    :mod:`repro.runtime`) reproduces the recorded outputs exactly.
    """

    strata: list[list[str]] = field(default_factory=list)
    iterations: list[list[dict]] = field(default_factory=list)

    def total_tasks(self) -> int:
        """Total (rule, Δ-position, iteration) instances recorded."""
        return sum(len(it) for stratum in self.iterations for it in stratum)


def _seed_facts(program: Program, db: Database) -> None:
    for fact in program.facts:
        db.add_fact(
            fact.head.predicate,
            tuple(t.value for t in fact.head.terms),  # type: ignore[union-attr]
        )


def _ensure_relations(program: Program, db: Database) -> None:
    """Create empty relations for every predicate mentioned anywhere."""
    for rule in program.rules:
        atoms = [rule.head] + [
            l.atom for l in rule.body if l.atom is not None
        ]
        for a in atoms:
            db.relation(a.predicate, a.arity)


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
    _ensure_relations(program, db)
    _seed_facts(program, db)
    strata = DependencyGraph(program).stratify()
    for stratum in strata:
        rules = [
            r for r in program.proper_rules if r.head.predicate in stratum
        ]
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
            for rule in rules:
                # two-phase: never mutate a relation while joining over it
                derived = eval_rule(rule, db)
                for fact in derived:
                    if db.add_fact(rule.head.predicate, fact):
                        changed = True
    return db


def evaluate_stratum(
    rules: list[tuple[int, Rule]],
    recursive: set[str],
    db: Database,
    pool: InternPool | None = None,
    record: bool = False,
    max_iterations: int | None = None,
    orders: dict[int, tuple[int, ...]] | None = None,
) -> list[dict]:
    """Run one stratum's semi-naive loop to fixpoint over ``db``, in place.

    ``rules`` are the stratum's ``(proper-rule index, rule)`` pairs,
    ``recursive`` its recursive predicates (empty for a non-recursive
    stratum, which is done after iteration 0). ``db`` must hold every
    relation the rules read; the heads' relations are created as needed
    and grow to the stratum's fixpoint. ``orders`` maps rule indices to
    body evaluation orders (the analyzer's join hints). Returns the
    iteration records of :class:`EvaluationTrace`.

    The one implementation of the loop: :func:`seminaive_evaluate` calls
    it once per stratum, and the fixpoint node of the static DAG
    (:mod:`repro.datalog.units`) calls it for its SCC.
    """
    orders = orders or {}
    iteration_records: list[dict] = []

    def merge(staged: list[tuple[Rule, set]]) -> dict[str, Relation]:
        # derived facts become visible to the next iteration only
        delta: dict[str, Relation] = {}
        for rule, produced in staged:
            if not produced:
                continue
            head = rule.head
            rel = db.relation(head.predicate, head.arity)
            fresh = [fact for fact in produced if rel.add(fact)]
            if fresh:
                new = delta.get(head.predicate)
                if new is None:
                    new = delta[head.predicate] = Relation(
                        head.predicate, head.arity
                    )
                for fact in fresh:
                    new.add(fact)
        return delta

    # iteration 0: every rule, full database.  Two-phase (snapshot)
    # semantics: all rules join against the stratum's entry state,
    # and their outputs merge only after every rule has run — no
    # rule sees a fact derived earlier in the same iteration.
    rec0: dict = {}
    staged: list[tuple[Rule, set]] = []
    for ri, rule in rules:
        if pool is not None:
            produced = eval_rule_columnar(rule, db, pool, order=orders.get(ri))
        else:
            produced = eval_rule(rule, db, order=orders.get(ri))
        if produced or record:
            rec0[(ri, None)] = produced
        staged.append((rule, produced))
    delta = merge(staged)
    iteration_records.append(rec0)

    # iterations 1..: recursive rules with one Δ-occurrence each
    rec_rules = [
        (ri, rule)
        for ri, rule in rules
        if any(p in recursive for p, neg in rule.body_predicates() if not neg)
    ]
    rounds = 0
    while delta:
        rounds += 1
        if max_iterations is not None and rounds > max_iterations:
            raise RuntimeError(
                f"fixpoint for stratum {sorted(recursive)} exceeded "
                f"{max_iterations} iterations (divergent arithmetic?)"
            )
        rec_k: dict = {}
        staged = []
        for ri, rule in rec_rules:
            for pos, lit in enumerate(rule.body):
                if (
                    lit.atom is None
                    or lit.negated
                    or lit.atom.predicate not in delta
                ):
                    continue
                if pool is not None:
                    produced = eval_rule_columnar(
                        rule, db, pool,
                        delta_overrides=delta, delta_at=pos,
                        order=orders.get(ri),
                    )
                else:
                    produced = {
                        instantiate_head(rule.head, subst)
                        for subst in join_body(
                            rule.body, db,
                            delta_overrides=delta, delta_at=pos,
                            order=orders.get(ri),
                        )
                    }
                if produced:
                    rec_k[(ri, pos)] = produced
                staged.append((rule, produced))
        if rec_k:
            iteration_records.append(rec_k)
        delta = merge(staged)
    return iteration_records


def seminaive_evaluate(
    program: Program,
    db: Database | None = None,
    record: bool = False,
    max_iterations: int | None = None,
    shared_relations: dict[str, Relation] | None = None,
    pool: InternPool | None = None,
) -> tuple[Database, EvaluationTrace]:
    """Stratified semi-naive fixpoint.

    Returns the materialized database and (when ``record``) the
    per-iteration derivation trace used by the DAG compiler.
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

    ``pool`` switches rule evaluation to the columnar batch joins of
    :func:`~repro.datalog.columnar.eval_rule_columnar` (interned
    id-rows, vectorized hash probes) — semantics are identical, and
    shared relations additionally carry their columnar mirrors across
    rounds. ``None`` keeps the row evaluator.
    """
    shared = shared_relations or {}
    writable = {r.head.predicate for r in program.rules}
    for pred in shared:
        if pred in writable:
            raise ValueError(
                f"cannot share relation {pred!r}: the evaluation "
                "writes it (IDB or fact-rule head)"
            )
    given = db.relations if db is not None else {}
    db = Database({
        n: shared[n] if n in shared else r.copy() for n, r in given.items()
    })
    db.relations.update(shared)
    _ensure_relations(program, db)
    _seed_facts(program, db)
    depgraph = DependencyGraph(program)
    recursive = depgraph.recursive_predicates()
    trace = EvaluationTrace()
    for stratum in depgraph.stratify():
        stratum_set = set(stratum)
        rules = [
            (ri, r)
            for ri, r in enumerate(program.proper_rules)
            if r.head.predicate in stratum_set
        ]
        trace.strata.append(stratum)
        trace.iterations.append(
            evaluate_stratum(
                rules, stratum_set & recursive, db, pool, record,
                max_iterations,
            )
        )
    return db, trace
