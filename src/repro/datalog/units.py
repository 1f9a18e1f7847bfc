"""Runnable units of work behind a compiled update DAG.

A compiled round is a static DAG whose nodes are EDB sources,
rule-instance tasks, predicate-state nodes and — in the static ``G`` the
plan cache serves — fixpoint nodes. This module turns that DAG into an
:class:`ExecutionPlan`: every node becomes a :class:`WorkUnit` whose
``execute`` *actually applies* the node's rule (or state merge, or whole
stratum fixpoint) to the values produced by its DAG inputs, via the same
joins the evaluator uses.

The diff between a unit's output and the node's old value is the paper's
changed/unchanged signal, computed from real data —
:mod:`repro.runtime.executor` uses it to decide child activation.

Two kinds of plan
-----------------
* :class:`PlanSkeleton` wires the DAG :func:`~repro.datalog.compiler
  .compile_update` *unrolled* from two recorded evaluations — one task
  per (rule, Δ-position, iteration). Node values are fact ``frozenset``s
  and the old values come from the old side's recorded trace. It is
  built fresh per round (the simulator benches, the test oracle).
* :class:`ProgramSkeleton` wires the *static* ``G`` of a program
  (:func:`~repro.datalog.compiler.build_round_structure` without
  iteration counts), once. Node values are :class:`Relation` objects
  handed from writer to reader as built — indexes, columnar mirror and
  all — except a task's, which is the set of interned id-rows its rule
  derives (ids are stable for the plan's one pool, so two rounds'
  values compare as sets); a fixpoint node *maintains* its SCC —
  where everything it reads only grew since the committed round, it
  continues that round's fixpoint from Δ⁺ through the engine's insert
  step (:func:`~repro.datalog.incremental._insert_stratum`), a head
  that gains rows on a clone of its committed mirror; after any
  retraction, a change under negation or an aggregate, or with no
  committed value, it runs
  :func:`~repro.datalog.seminaive.evaluate_stratum` over its inputs —
  and the old values are whatever the previous committed round left in
  the nodes. A published relation is the mirror its stratum grew:
  nothing is externed inside a round, the first reader of a relation's
  facts does that (:class:`Relation`).
  :meth:`ProgramSkeleton.stamp` restamps the one bound plan per round.

Unit closures read per-round data through the plan's :class:`RoundCtx`,
never through captured constants, which is what makes restamping sound.

Correctness of the unrolled plan rests on the snapshot (two-phase)
iteration semantics of :func:`repro.datalog.seminaive
.seminaive_evaluate`: every recorded rule-instance output is a pure
function of the previous iteration's predicate states, which are
exactly the values the DAG wires into the task. Executing units in any
precedence-respecting order — serial or concurrent — therefore
reproduces the recorded new materialization, and the per-node diffs
reproduce the compiled activation pattern. The static plan needs no
such argument: each of its units is a pure function of its inputs'
final values — a fixpoint node's continuation included, which starts
from a committed value that is itself that function of the committed
inputs, and never writes to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Collection

import numpy as np

from .columnar import (
    ColumnarRelation,
    InternPool,
    RulePlan,
    compile_rule_plan,
    run_rule_plan,
)
from .compiler import CompiledUpdate, _cumulative_states
from .database import Database, Relation
from .depgraph import DependencyGraph
from .incremental import _insert_stratum, _Stratum
from .seminaive import evaluate_stratum
from .unify import eval_rule

__all__ = [
    "WorkUnit",
    "ValueStore",
    "ExecutionPlan",
    "PlanSkeleton",
    "ProgramSkeleton",
    "RoundCtx",
    "build_execution_plan",
]

def _fresh_relation(
    pred: str, arity: int, facts: Collection[tuple]
) -> Relation:
    rel = Relation(pred, arity)
    rel.extend(facts)
    return rel


def _gained(
    was: Relation | None, now: Relation, pool: InternPool
) -> set | None:
    """The id-rows ``now`` holds and ``was`` does not — ``None`` when
    ``was`` holds one ``now`` lacks, or there is no ``was``."""
    if now is was:
        return set()
    if was is None:
        return None
    old, new = was.columnar(pool).rows, now.columnar(pool).rows
    gained = new - old
    return gained if len(gained) == len(new) - len(old) else None


@dataclass
class WorkUnit:
    """One runnable DAG node: a pure function of its input values."""

    node: int
    kind: str  #: ``"edb"`` | ``"pred"`` | ``"task"`` | ``"fix"``
    label: str
    #: the node's value under the *old* materialization — diffing
    #: against it (``!=``) yields the real changed/unchanged signal.
    #: A fact ``frozenset`` in an unrolled plan; in a static plan a
    #: :class:`Relation` (an id-row ``set`` for a task, a predicate →
    #: relation dict for a fixpoint node), or ``None`` — unequal to
    #: every value — when no committed round left one.
    old_value: Any
    run: Callable[["ValueStore"], Any]

    def execute(self, values: "ValueStore") -> Any:
        """Compute this node's output from its inputs' values."""
        return self.run(values)


class ValueStore:
    """Per-round node values, falling back to old values when skipped.

    A deactivated node is never executed — incremental maintenance
    reuses its old value — so readers fall back to
    ``plan.old_values[node]`` for any node without a computed value.
    The executor guarantees a unit only reads nodes that are already
    *resolved* (executed or deactivated), so the fallback is sound.

    The old values are also what a unit that *maintains* its output
    continues from (:meth:`committed`), and ``notes`` is where it says
    so: node → the span args an executed unit reports about how it
    produced its value (a fixpoint node's ``mode`` and ``delta_rows``),
    written by the unit, read by whoever traces or counts the round.
    """

    def __init__(self, plan: "ExecutionPlan") -> None:
        self._old = plan.old_values
        self._values: dict[int, Any] = {}
        self.notes: dict[int, dict[str, Any]] = {}

    def __getitem__(self, node: int) -> Any:
        got = self._values.get(node)
        return self._old[node] if got is None else got

    def committed(self, node: int) -> Any:
        """What the previous committed round left in ``node``, or
        ``None``. Read-only: a round that fails is retried from it."""
        return self._old[node]

    def set(self, node: int, value: Any) -> None:
        """Record a computed value (coordinator thread only)."""
        self._values[node] = value

    def computed(self, node: int) -> bool:
        """Whether ``node`` was actually executed this round."""
        return node in self._values


class RoundCtx:
    """The per-round data every unit closure reads.

    Mutated only between rounds (a static plan is restamped), never
    while a plan is executing, so worker threads read it without locks.
    """

    __slots__ = ("baseline", "pool", "committed_baseline")

    def __init__(self, pool: InternPool | None = None) -> None:
        #: predicate → program facts ∪ its facts in the round's new EDB
        #: — the entry state of a stratum-local predicate, and the
        #: value an EDB node publishes (a ``frozenset`` in an unrolled
        #: plan, a :class:`Relation` in a static one)
        self.baseline: dict[str, Any] = {}
        #: intern pool: when set, task joins run the columnar batch
        #: evaluator over each relation's interned mirror
        self.pool: InternPool | None = pool
        #: a static plan's committed side, next to the plan's old node
        #: values: the baseline of the round that left them
        self.committed_baseline: dict[str, Relation] = {}


@dataclass
class ExecutionPlan:
    """Every node of a compiled update as a runnable :class:`WorkUnit`.

    The plan holds no scheduler state: what a scheduler pre-computes
    from the graph (levels, interval lists) lives on the trace's ``Dag``.
    """

    compiled: CompiledUpdate
    units: list[WorkUnit]
    old_values: list
    #: predicate → node id carrying its final value
    final_nodes: dict[str, int] = field(default_factory=dict)
    #: per-round data shared by the unit closures
    ctx: RoundCtx | None = None
    #: the static wiring this plan was bound from
    skeleton: "PlanSkeleton | None" = None

    def new_store(self) -> ValueStore:
        """A fresh value store for one execution of this plan."""
        return ValueStore(self)

    def materialization(self, values: ValueStore) -> Database:
        """Assemble the full database the executed round produced.

        A final node's value that already is a :class:`Relation` (static
        plan) is adopted as is; a fact set is loaded into a fresh one.
        Relations no node carries — predicates the program never
        mentions — come through from the round's new EDB, by identity:
        treat the result as read-only.
        """
        assert self.skeleton is not None
        arity_of = self.skeleton.arity_of
        out = Database(dict(self.compiled.edb_new.relations))
        for pred, node in self.final_nodes.items():
            value = values[node]
            out.relations[pred] = (
                value
                if isinstance(value, Relation)
                else _fresh_relation(pred, arity_of[pred], value)
            )
        return out

    def execute_serial(self) -> tuple[ValueStore, dict[int, bool]]:
        """Run every unit in level order on the calling thread.

        Returns the value store and the real per-node change flags. No
        node is skipped and the store holds no committed value, so no
        old value is read — not as a skipped node's output, not as what
        a fixpoint node continues from — only diffed against: how the
        service runs a degraded round, and the test oracle for both the
        concurrent executor and the compiler's precomputed activation
        pattern.
        """
        values = self.new_store()
        # nothing committed to fall back on, or to continue from
        values._old = [None] * len(self.units)
        diffs: dict[int, bool] = {}
        levels = self.compiled.trace.levels
        for node in np.argsort(levels, kind="stable"):
            unit = self.units[int(node)]
            value = unit.execute(values)
            values.set(unit.node, value)
            diffs[unit.node] = value != unit.old_value
        return values, diffs


def _facts_of(db: Database, pred: str) -> frozenset:
    rel = db.relations.get(pred)
    return frozenset(rel) if rel is not None else frozenset()


@dataclass
class _TaskWiring:
    """Static join wiring of one task node."""

    si: int
    k: int
    ri: int
    pos: int | None
    #: the rule's compiled step program (None for a row plan,
    #: ``pool=None`` — the test oracle)
    plan: RulePlan | None
    #: read set: every predicate the rule scans or negates outside its
    #: Δ-restricted occurrence → feeding node id (None: ctx.baseline).
    #: Only these are materialised as relations when the unit runs.
    sources: dict[str, int | None]
    dq: str | None
    delta_cur: int | None
    delta_prev: int | None


class PlanSkeleton:
    """Wiring of a compiled DAG: what follows from its structure alone.

    Derived from ``(program, node_keys)`` only — which value-store slots
    each unit reads, writer lists, Δ-occurrence slots, arities, final
    nodes, and per task its compiled rule plan and *read set*. Every
    per-round quantity lives in the bound plan's :class:`RoundCtx` and
    ``old_values``; :meth:`bind` fills them for an unrolled ``cu``.
    """

    def __init__(
        self,
        cu: CompiledUpdate,
        join_orders: dict[int, tuple[int, ...]] | None = None,
        pool: InternPool | None = None,
    ) -> None:
        program = cu.program
        self.program = program
        #: intern pool stamped into every bound plan's RoundCtx; None
        #: keeps the row (dict-substitution) join path
        self.pool = pool
        #: proper-rule index → body evaluation order (analyzer hint);
        #: rules without an entry evaluate in textual order
        self.join_orders: dict[int, tuple[int, ...]] = dict(
            join_orders or {}
        )
        self.node_keys = list(cu.node_keys)
        self.rules = program.proper_rules
        depgraph = DependencyGraph(program)
        self.strata = depgraph.stratify()
        self.stratum_of = {
            p: si for si, comp in enumerate(self.strata) for p in comp
        }
        self.edb_set = program.edb_predicates()
        self.n_iters = self._infer_n_iters()

        # program facts are every predicate's baseline state
        fact_sets: dict[str, set] = {}
        for fact_rule in program.facts:
            fact_sets.setdefault(fact_rule.head.predicate, set()).add(
                tuple(t.value for t in fact_rule.head.terms)  # type: ignore[union-attr]
            )
        self.base: dict[str, frozenset] = {
            p: frozenset(s) for p, s in fact_sets.items()
        }

        self.arity_of: dict[str, int] = {}
        for rule in program.rules:
            for atom in [rule.head] + [
                lit.atom for lit in rule.body if lit.atom is not None
            ]:
                self.arity_of.setdefault(atom.predicate, atom.arity)
        for db in (cu.edb_old, cu.edb_new, cu.db_old, cu.db_new):
            if db is not None:
                for p, rel in db.relations.items():
                    self.arity_of.setdefault(p, rel.arity)

        self.key_to_id = cu.structure.key_to_id
        self.labels = cu.structure.dag.node_names
        #: predicate → node carrying its final value
        self.final_nodes = {p: self.out_id(p) for p in self.stratum_of}

        # writer tasks per predicate-state node, from the task keys
        writers: dict[tuple[str, int, int], list[int]] = {}
        for nid, key in enumerate(self.node_keys):
            if key is not None and key[0] == "task":
                _, si, k, ri, _pos = key
                head = self.rules[ri].head.predicate
                writers.setdefault((head, si, k), []).append(nid)
        for ws in writers.values():
            ws.sort()
        self.writers = writers

        self.task_wiring: dict[int, _TaskWiring] = {}
        for nid, key in enumerate(self.node_keys):
            if key is None:  # pragma: no cover - compiler keys every node
                raise ValueError(f"node {nid} has no builder key")
            if key[0] == "task":
                self.task_wiring[nid] = self._wire_task(*key[1:])

    # ------------------------------------------------------------------
    def _infer_n_iters(self) -> list[int]:
        """Iterations per stratum, recovered from the node keys."""
        n_iters = [1] * len(self.strata)
        for key in self.node_keys:
            if key is not None and key[0] == "pred":
                _, _p, si, k = key
                n_iters[si] = max(n_iters[si], k + 1)
        return n_iters

    def out_id(self, p: str) -> int:
        """Node carrying ``p``'s final value (mirrors the compiler)."""
        if p in self.edb_set:
            return self.key_to_id[("edb", p)]
        si = self.stratum_of[p]
        return self.key_to_id[("pred", p, si, self.n_iters[si] - 1)]

    def _wire_task(
        self, si: int, k: int, ri: int, pos: int | None
    ) -> _TaskWiring:
        rule = self.rules[ri]
        stratum_set = set(self.strata[si])
        if self.pool is not None:
            plan = compile_rule_plan(rule, self.join_orders.get(ri), pos)
            reads = plan.reads
        else:
            plan = None
            reads = frozenset(
                lit.atom.predicate
                for i, lit in enumerate(rule.body)
                if lit.atom is not None and i != pos
            )

        # where each read predicate's input value comes from: a node id,
        # or the ctx baseline for stratum-local predicates at k == 0
        sources: dict[str, int | None] = {}
        for q in sorted(reads):
            if q in stratum_set and q not in self.edb_set:
                sources[q] = (
                    self.key_to_id[("pred", q, si, k - 1)] if k > 0 else None
                )
            else:
                sources[q] = self.out_id(q)

        if pos is not None:
            dq = rule.body[pos].atom.predicate  # type: ignore[union-attr]
            delta_cur = self.key_to_id[("pred", dq, si, k - 1)]
            delta_prev = (
                self.key_to_id[("pred", dq, si, k - 2)] if k >= 2 else None
            )
        else:
            dq = None
            delta_cur = delta_prev = None

        return _TaskWiring(
            si=si, k=k, ri=ri, pos=pos, plan=plan, sources=sources,
            dq=dq, delta_cur=delta_cur, delta_prev=delta_prev,
        )

    # ------------------------------------------------------------------
    # per-round data
    # ------------------------------------------------------------------
    def _round_baseline(self, edb_new: Database) -> dict[str, frozenset]:
        baseline: dict[str, frozenset] = {}
        for p in self.arity_of:
            baseline[p] = self.base.get(p, frozenset()) | _facts_of(
                edb_new, p
            )
        return baseline

    def _old_value(
        self,
        key: tuple,
        cu: CompiledUpdate,
        states_old: dict[tuple, frozenset],
    ) -> frozenset:
        if key[0] == "edb":
            p = key[1]
            return _facts_of(cu.edb_old, p) | self.base.get(p, frozenset())
        if key[0] == "pred":
            _, p, si, k = key
            ko = min(k, len(cu.eval_old.iterations[si]) - 1)
            old = states_old.get(
                (p, si, ko), states_old.get((p, si, -1))
            )
            return old if old is not None else frozenset()
        _, si, k, ri, pos = key
        rec_old = (
            cu.eval_old.iterations[si][k]
            if k < len(cu.eval_old.iterations[si])
            else {}
        )
        return frozenset(rec_old.get((ri, pos), frozenset()))

    # ------------------------------------------------------------------
    # unit construction (closures read ctx, never per-round captures)
    # ------------------------------------------------------------------
    def _make_unit(
        self, nid: int, key: tuple, ctx: RoundCtx
    ) -> WorkUnit:
        if key[0] == "edb":
            p = key[1]

            def run_edb(_values: ValueStore) -> frozenset:
                return ctx.baseline[p]

            return WorkUnit(
                node=nid, kind="edb", label=self.labels[nid],
                old_value=frozenset(), run=run_edb,
            )

        if key[0] == "pred":
            _, p, si, k = key
            prev_id = (
                self.key_to_id[("pred", p, si, k - 1)] if k > 0 else None
            )
            task_ids = tuple(self.writers.get((p, si, k), ()))

            def run_pred(values: ValueStore) -> frozenset:
                acc = (
                    set(values[prev_id])
                    if prev_id is not None
                    else set(ctx.baseline[p])
                )
                for tid in task_ids:
                    acc |= values[tid]
                return frozenset(acc)

            return WorkUnit(
                node=nid, kind="pred", label=self.labels[nid],
                old_value=frozenset(), run=run_pred,
            )

        wiring = self.task_wiring[nid]
        rule = self.rules[wiring.ri]
        rule_plan = wiring.plan
        arity_of = self.arity_of
        pos, dq = wiring.pos, wiring.dq
        sources = tuple(wiring.sources.items())
        delta_cur, delta_prev = wiring.delta_cur, wiring.delta_prev
        order = self.join_orders.get(wiring.ri)

        def run_task(values: ValueStore) -> frozenset:
            overrides = None
            if pos is not None:
                older = (
                    values[delta_prev]
                    if delta_prev is not None
                    else ctx.baseline[dq]
                )
                delta_facts = values[delta_cur] - older
                if not delta_facts:
                    return frozenset()
                # the Δ relation, built in the layout the join scans
                if rule_plan is not None:
                    delta_rel = ColumnarRelation.from_facts(
                        ctx.pool, dq, arity_of[dq], delta_facts
                    )
                else:
                    delta_rel = _fresh_relation(dq, arity_of[dq], delta_facts)
                overrides = {dq: delta_rel}
            db = Database()
            for q, src in sources:
                facts = (
                    values[src] if src is not None else ctx.baseline[q]
                )
                db.relations[q] = _fresh_relation(q, arity_of[q], facts)
            if rule_plan is not None:
                # an unrolled plan's node values are value-space facts
                return frozenset(ctx.pool.extern_rows(
                    run_rule_plan(rule_plan, db, ctx.pool, overrides)
                ))
            return frozenset(eval_rule(rule, db, overrides, pos, order))

        return WorkUnit(
            node=nid, kind="task", label=self.labels[nid],
            old_value=frozenset(), run=run_task,
        )

    # ------------------------------------------------------------------
    def bind(self, cu: CompiledUpdate) -> ExecutionPlan:
        """Build the :class:`ExecutionPlan` of ``cu``: the units over a
        fresh :class:`RoundCtx` holding the round's baseline, and the
        old values read off ``cu``'s old-side trace."""
        ctx = RoundCtx(pool=self.pool)
        ctx.baseline = self._round_baseline(cu.edb_new)
        states_old = _cumulative_states(
            self.program, cu.eval_old, cu.edb_old
        )
        units = [
            self._make_unit(nid, key, ctx)
            for nid, key in enumerate(self.node_keys)
        ]
        for unit, key in zip(units, self.node_keys):
            unit.old_value = self._old_value(key, cu, states_old)
        return ExecutionPlan(
            compiled=cu,
            units=units,
            old_values=[unit.old_value for unit in units],
            final_nodes=self.final_nodes,
            ctx=ctx,
            skeleton=self,
        )


class ProgramSkeleton(PlanSkeleton):
    """Wiring of a program's *static* ``G``: built once, restamped per round.

    ``cu`` is any round staged onto the program's static structure
    (:func:`~repro.datalog.compiler.stage_update`). Units exchange
    :class:`Relation` objects: an EDB node publishes the round's
    baseline relation, a task the id-rows its rule derives from its
    inputs' mirrors, a predicate node the relation those rows (and the
    predicate's baseline) add up to, still in id space, and a fixpoint
    node the relations of its SCC: continued from the committed
    round's by the engine's insert step when its inputs only grew,
    else grown from the entry relations under
    :func:`~repro.datalog.seminaive.evaluate_stratum` — the evaluator's
    own loop, columnar. Which of the two is decided by the sign of the
    node's input Z-sets, before any join runs.
    """

    def _make_unit(self, nid: int, key: tuple, ctx: RoundCtx) -> WorkUnit:
        kind = key[0]
        if kind == "edb":
            p = key[1]

            def run(_values: ValueStore) -> Relation:
                return ctx.baseline[p]

        elif kind == "fix":
            si = key[1]
            scc = tuple(self.strata[si])
            scc_set = set(scc)
            # every SCC predicate is recursive: one SCC, one stratum
            st = _Stratum.of(
                si,
                [
                    (ri, r) for ri, r in enumerate(self.rules)
                    if r.head.predicate in scc_set
                ],
                scc_set,
                [
                    f for f in self.program.facts
                    if f.head.predicate in scc_set
                ],
                self.join_orders,
            )
            inputs = tuple(
                (q, self.out_id(q)) for q in sorted(st.reads - scc_set)
            )

            def gained(values: ValueStore) -> dict[str, set] | None:
                """Δ⁺ of what the SCC reads since the committed round,
                predicate → id-rows — or ``None``, recompute: no
                committed value, a retraction anywhere, or a change
                under negation or an aggregate. Decided on the sign of
                the inputs' Z-sets — the id-row difference of two
                mirrors of the one pool, an input the round left alone
                being the committed object itself — before any join
                runs."""
                if values.committed(nid) is None:
                    return None
                sides = [
                    (q, values.committed(src), values[src])
                    for q, src in inputs
                ] + [
                    (p, ctx.committed_baseline.get(p), ctx.baseline[p])
                    for p in scc  # their entry relations
                ]
                born: dict[str, set] = {}
                for q, was, now in sides:
                    rows = _gained(was, now, ctx.pool)
                    if rows is None or (rows and q in st.sensitive):
                        return None
                    if rows:
                        born[q] = rows
                return born

            def run(values: ValueStore) -> dict[str, Relation]:
                db = Database({q: values[src] for q, src in inputs})
                born = gained(values)
                if born is None:
                    values.notes[nid] = {"mode": "recompute", "delta_rows": 0}
                    for p in scc:
                        db.relations[p] = ctx.baseline[p].copy()
                    evaluate_stratum(
                        st.rules, scc_set, db, ctx.pool, orders=st.orders
                    )
                    return {p: db.relations[p] for p in scc}
                values.notes[nid] = {
                    "mode": "continue",
                    "delta_rows": sum(map(len, born.values())),
                }
                # the committed heads, read — never written: the first
                # rows one gains go to a clone that takes its place
                db.relations.update(values.committed(nid))
                if born:
                    _insert_stratum(st, db, ctx.pool, born, scc_set, None)
                return {p: db.relations[p] for p in scc}

        elif kind == "pred":
            _, p, si, _k = key
            fix = self.key_to_id.get(("fix", si))
            task_ids = tuple(self.writers.get((p, si, 0), ()))
            if fix is not None:

                def run(values: ValueStore) -> Relation:
                    return values[fix][p]

            else:

                def run(values: ValueStore) -> Relation:
                    # the non-recursive stratum's one merge, as the
                    # fixpoint loop does it: in id space
                    rel = ctx.baseline[p].copy()
                    mirror = rel.columnar(ctx.pool)
                    for tid in task_ids:
                        mirror.extend(values[tid])
                    rel.adopt(mirror)
                    return rel

        else:
            wiring = self.task_wiring[nid]
            rule_plan = wiring.plan
            sources = tuple(wiring.sources.items())

            def run(values: ValueStore) -> set:
                db = Database({q: values[src] for q, src in sources})
                return run_rule_plan(rule_plan, db, ctx.pool)

        return WorkUnit(
            node=nid, kind=kind, label=self.labels[nid], old_value=None,
            run=run,
        )

    def bind(self, cu: CompiledUpdate) -> ExecutionPlan:
        """The one plan of this program, not yet stamped with a round."""
        ctx = RoundCtx(pool=self.pool)
        units = [
            self._make_unit(nid, key, ctx)
            for nid, key in enumerate(self.node_keys)
        ]
        return ExecutionPlan(
            compiled=cu,
            units=units,
            old_values=[None] * len(units),
            final_nodes=self.final_nodes,
            ctx=ctx,
            skeleton=self,
        )

    @staticmethod
    def stamp(
        plan: ExecutionPlan,
        cu: CompiledUpdate,
        baseline: dict[str, Relation],
        old_values: list | None,
        committed_baseline: dict[str, Relation] | None,
    ) -> None:
        """Restamp ``plan`` with one round, in place.

        ``baseline`` maps every program predicate to its entry relation
        (program facts ∪ the round's new EDB); ``old_values`` are the
        node values the previous committed round left, ``None`` when
        there are none — every node then diffs as changed, and
        ``cu`` was staged with every source of ``G`` initial. With old
        values comes the rest of that round's side (else ``None``): its
        baseline — with them, what a fixpoint node reads to continue
        instead of recomputing.
        Deterministic: stamping the same round twice (a failed round is
        retried) yields identical state.
        """
        assert plan.ctx is not None
        plan.ctx.baseline = baseline
        plan.ctx.committed_baseline = committed_baseline or {}
        # rebind in place: ValueStore holds a reference to this list
        plan.old_values[:] = old_values or [None] * len(plan.units)
        for unit, old in zip(plan.units, plan.old_values):
            unit.old_value = old
        plan.compiled = cu


def build_execution_plan(
    cu: CompiledUpdate,
    join_orders: dict[int, tuple[int, ...]] | None = None,
    pool: InternPool | None = None,
) -> ExecutionPlan:
    """Rebuild every node of an unrolled ``cu`` as a runnable unit of work.

    ``join_orders`` maps proper-rule indexes of ``cu.program`` to body
    evaluation orders (the static analyzer's cartesian-join hints).
    ``pool`` switches every task unit to the columnar batch joins.
    """
    return PlanSkeleton(cu, join_orders=join_orders, pool=pool).bind(cu)
