"""Runnable units of work behind a compiled update DAG.

:func:`repro.datalog.compiler.compile_update` unrolls one maintenance
round into a static DAG whose nodes are EDB sources, rule-instance
tasks, and predicate-state nodes. This module turns that DAG into an
:class:`ExecutionPlan`: every node becomes a :class:`WorkUnit` whose
``execute`` *actually applies* the node's semi-naive delta rule (or
state merge) to the values produced by its DAG inputs, via the same
:mod:`repro.datalog.unify` joins the evaluator uses.

The diff between a unit's output and its recorded value under the old
materialization is the paper's changed/unchanged signal, computed from
real data — :mod:`repro.runtime.executor` uses it to decide child
activation instead of the compiler's precomputed flags.

Skeleton / binding split
------------------------
Plan construction is two-phase so the plan cache can reuse work across
rounds:

* :class:`PlanSkeleton` holds everything that depends only on the
  *structure* of the compiled DAG (``node_keys``) and the program: node
  wiring (which value-store slots each unit reads), writer lists,
  Δ-occurrence slots, arities, and per task its compiled rule plan and
  *read set* — the predicates the rule scans outside its Δ-restricted
  occurrence. Building it walks every rule body once per task node —
  the expensive part of plan construction.
* :meth:`PlanSkeleton.bind` stamps one round's *data* onto the skeleton
  — per-node old values, EDB baselines — producing an
  :class:`ExecutionPlan`. :meth:`PlanSkeleton.patch` restamps an
  existing plan in place for a new round with the same structure, so
  the unit closures (and their wiring) are reused verbatim.

Unit closures read per-round data through the plan's :class:`RoundCtx`,
never through captured constants, which is what makes patching sound.

Correctness rests on the snapshot (two-phase) iteration semantics of
:func:`repro.datalog.seminaive.seminaive_evaluate`: every recorded
rule-instance output is a pure function of the previous iteration's
predicate states, which are exactly the values the DAG wires into the
task. Executing units in any precedence-respecting order — serial or
concurrent — therefore reproduces the recorded new materialization,
and the per-node diffs reproduce the compiled activation pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

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
from .unify import eval_rule, instantiate_head, join_body
from .zset import ZSetDelta

__all__ = [
    "WorkUnit",
    "ValueStore",
    "ExecutionPlan",
    "PlanSkeleton",
    "RoundCtx",
    "build_execution_plan",
]

#: builds the relation a task joins against: ``(pred, arity, facts)``.
#: The default builds a fresh relation per call; the plan cache
#: substitutes its cross-round indexed store.
RelationFactory = Callable[[str, int, frozenset], Relation]


def _fresh_relation(pred: str, arity: int, facts: frozenset) -> Relation:
    rel = Relation(pred, arity)
    for f in facts:
        rel.add(f)
    return rel


@dataclass
class WorkUnit:
    """One runnable DAG node: a pure function of its input values."""

    node: int
    kind: str  #: ``"edb"`` | ``"pred"`` | ``"task"``
    label: str
    #: the node's recorded value under the *old* materialization —
    #: diffing against it yields the real changed/unchanged signal
    old_value: frozenset
    run: Callable[["ValueStore"], frozenset]

    def execute(self, values: "ValueStore") -> frozenset:
        """Compute this node's output from its inputs' values."""
        return self.run(values)


class ValueStore:
    """Per-round node values, falling back to old values when skipped.

    A deactivated node is never executed — incremental maintenance
    reuses its old value — so readers fall back to
    ``plan.old_values[node]`` for any node without a computed value.
    The executor guarantees a unit only reads nodes that are already
    *resolved* (executed or deactivated), so the fallback is sound.
    """

    def __init__(self, plan: "ExecutionPlan") -> None:
        self._old = plan.old_values
        self._values: dict[int, frozenset] = {}

    def __getitem__(self, node: int) -> frozenset:
        got = self._values.get(node)
        return self._old[node] if got is None else got

    def set(self, node: int, value: frozenset) -> None:
        """Record a computed value (coordinator thread only)."""
        self._values[node] = value

    def computed(self, node: int) -> bool:
        """Whether ``node`` was actually executed this round."""
        return node in self._values


class RoundCtx:
    """The per-round data every unit closure reads.

    Mutated only between rounds (by :meth:`PlanSkeleton.patch`), never
    while a plan is executing, so worker threads read it without locks.
    """

    __slots__ = ("baseline", "rel", "baseline_edb", "pool")

    def __init__(
        self, rel: RelationFactory, pool: InternPool | None = None
    ) -> None:
        #: predicate → program facts ∪ its facts in the round's new EDB
        #: — the entry state of a stratum-local predicate, and the
        #: value an EDB node publishes
        self.baseline: dict[str, frozenset] = {}
        #: relation factory used for every join input this round
        self.rel: RelationFactory = rel
        #: the exact EDB object the baseline was stamped from; the plan
        #: cache's weighted patching checks it by identity before
        #: updating only the touched predicates
        self.baseline_edb: Database | None = None
        #: intern pool: when set, task joins run the columnar batch
        #: evaluator over each relation's interned mirror
        self.pool: InternPool | None = pool


@dataclass
class ExecutionPlan:
    """Every node of a compiled update as a runnable :class:`WorkUnit`."""

    compiled: CompiledUpdate
    units: list[WorkUnit]
    old_values: list[frozenset]
    #: predicate → node id carrying its final value
    final_nodes: dict[str, int] = field(default_factory=dict)
    #: per-round data shared by the unit closures
    ctx: RoundCtx | None = None
    #: the static wiring this plan was bound from (enables patching)
    skeleton: "PlanSkeleton | None" = None
    #: scheduler pre-computation over this plan's DAG (interval lists),
    #: handed to ``Scheduler.prepare`` through ``SchedulerContext.memo``
    #: and kept for as long as the plan is restamped rather than rebuilt
    sched_memo: dict = field(default_factory=dict)

    def new_store(self) -> ValueStore:
        """A fresh value store for one execution of this plan."""
        return ValueStore(self)

    def materialization(self, values: ValueStore) -> Database:
        """Assemble the full database the executed round produced."""
        out = Database()
        ref = self.compiled.db_new
        for pred, rel in ref.relations.items():
            fresh = out.relation(pred, rel.arity)
            node = self.final_nodes.get(pred)
            if node is not None:
                facts = values[node]
            else:
                # relation never mentioned by the program: carried
                # through from the EDB untouched
                facts = _facts_of(self.compiled.edb_new, pred)
            for fact in facts:
                fresh.add(fact)
        return out

    def execute_serial(self) -> tuple[ValueStore, dict[int, bool]]:
        """Reference execution: run every unit in level order.

        Returns the value store and the real per-node change flags —
        the test oracle for both the concurrent executor and the
        compiler's precomputed activation pattern.
        """
        values = self.new_store()
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
    #: ``pool=None`` — the degraded fallback and the test oracle)
    plan: RulePlan | None
    #: read set: every predicate the rule scans or negates outside its
    #: Δ-restricted occurrence → feeding node id (None: ctx.baseline).
    #: Only these are materialised as relations when the unit runs.
    sources: dict[str, int | None]
    dq: str | None
    delta_cur: int | None
    delta_prev: int | None


class PlanSkeleton:
    """Static wiring shared by every round with the same DAG structure.

    Derived from ``(program, node_keys)`` only. Rebinding it to a new
    :class:`CompiledUpdate` with identical ``node_keys`` is sound
    because every per-round quantity lives in the plan's
    :class:`RoundCtx` and ``old_values``.
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
            for p, rel in db.relations.items():
                self.arity_of.setdefault(p, rel.arity)

        self.key_to_id = cu.structure.key_to_id

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

    def _final_nodes(self, cu: CompiledUpdate) -> dict[str, int]:
        final_nodes: dict[str, int] = {}
        for p in cu.db_new.relations:
            if p in self.edb_set or p in self.stratum_of:
                final_nodes[p] = self.out_id(p)
        return final_nodes

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
                node=nid, kind="edb", label=f"edb:{p}",
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
                node=nid, kind="pred", label=f"{p}@{si}.{k}",
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
                db.relations[q] = ctx.rel(q, arity_of[q], facts)
            if rule_plan is not None:
                return frozenset(
                    run_rule_plan(rule_plan, db, ctx.pool, overrides)
                )
            if pos is None:
                return frozenset(eval_rule(rule, db, order=order))
            return frozenset(
                instantiate_head(rule.head, subst)
                for subst in join_body(
                    rule.body, db,
                    delta_overrides=overrides, delta_at=pos,
                    order=order,
                )
            )

        suffix = f".d{pos}" if pos is not None else ""
        return WorkUnit(
            node=nid, kind="task",
            label=f"r{wiring.ri}@{wiring.si}.{wiring.k}{suffix}",
            old_value=frozenset(), run=run_task,
        )

    # ------------------------------------------------------------------
    # bind / patch
    # ------------------------------------------------------------------
    def bind(
        self,
        cu: CompiledUpdate,
        states_old: dict[tuple, frozenset] | None = None,
        relation_factory: RelationFactory | None = None,
    ) -> ExecutionPlan:
        """Build a fresh :class:`ExecutionPlan` for ``cu``.

        ``states_old`` is the cumulative predicate-state table of the
        old evaluation; pass the cached one to avoid recomputing it.
        """
        ctx = RoundCtx(relation_factory or _fresh_relation, pool=self.pool)
        units = [
            self._make_unit(nid, key, ctx)
            for nid, key in enumerate(self.node_keys)
        ]
        plan = ExecutionPlan(
            compiled=cu,
            units=units,
            old_values=[frozenset()] * len(units),
            ctx=ctx,
            skeleton=self,
        )
        self.patch(plan, cu, states_old)
        return plan

    def patch(
        self,
        plan: ExecutionPlan,
        cu: CompiledUpdate,
        states_old: dict[tuple, frozenset] | None = None,
        zdelta: "ZSetDelta | None" = None,
    ) -> ExecutionPlan:
        """Restamp ``plan`` with a new round's data, in place.

        Requires ``cu.node_keys`` to match the skeleton's (same DAG
        structure). The unit closures and wiring are reused verbatim;
        only the :class:`RoundCtx`, old values, and final-node map are
        rewritten. Deterministic: patching for the same ``cu`` twice —
        e.g. when a failed round is retried — yields identical state.

        ``zdelta`` is the round's effective weighted update
        (``edb_old → edb_new``). When the plan's current baseline was
        stamped from exactly ``cu.edb_old`` (object identity — true on
        every plan-cache fast path), only the predicates the delta
        touches are restamped; every other predicate keeps its baseline
        frozenset object, so downstream value-addressed caches see
        unchanged keys without rehashing full relations.
        """
        if cu.node_keys != self.node_keys:
            raise ValueError(
                "compiled update has a different DAG structure than "
                "this skeleton; build a new plan instead of patching"
            )
        if states_old is None:
            states_old = _cumulative_states(
                self.program, cu.eval_old, cu.edb_old
            )
        assert plan.ctx is not None
        if (
            zdelta is not None
            and plan.ctx.baseline_edb is cu.edb_old
            and plan.ctx.baseline.keys() == self.arity_of.keys()
        ):
            baseline = plan.ctx.baseline
            for p in zdelta.touched_predicates():
                if p in baseline:
                    baseline[p] = self.base.get(p, frozenset()) | _facts_of(
                        cu.edb_new, p
                    )
        else:
            plan.ctx.baseline = self._round_baseline(cu.edb_new)
        plan.ctx.baseline_edb = cu.edb_new
        old_values = [
            self._old_value(key, cu, states_old)
            for key in self.node_keys
        ]
        for unit, old in zip(plan.units, old_values):
            unit.old_value = old
        # rebind in place: ValueStore holds a reference to this list
        plan.old_values[:] = old_values
        plan.compiled = cu
        plan.final_nodes = self._final_nodes(cu)
        return plan


def build_execution_plan(
    cu: CompiledUpdate,
    relation_factory: RelationFactory | None = None,
    join_orders: dict[int, tuple[int, ...]] | None = None,
    pool: InternPool | None = None,
) -> ExecutionPlan:
    """Rebuild every node of ``cu`` as a runnable unit of work.

    ``join_orders`` maps proper-rule indexes of ``cu.program`` to body
    evaluation orders (the static analyzer's cartesian-join hints).
    ``pool`` switches every task unit to the columnar batch joins.
    """
    return PlanSkeleton(cu, join_orders=join_orders, pool=pool).bind(
        cu, relation_factory=relation_factory
    )
