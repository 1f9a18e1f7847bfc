"""Runnable units of work behind a program's static DAG ``G``.

``G`` (:func:`~repro.datalog.compiler.build_round_structure`) has a
source per EDB predicate, the rule task and predicate nodes of every
non-recursive stratum, and one fixpoint node per recursive SCC. This
module turns it into an :class:`ExecutionPlan`: every node becomes a
:class:`WorkUnit` whose ``run`` *actually applies* the node's rule (or
state merge, or whole stratum fixpoint) to the values produced by its
DAG inputs, through the compiled rule kernels the evaluator uses.

One plan
--------
:class:`ProgramSkeleton` wires ``G`` once. Node values are
:class:`Relation` objects handed from writer to reader as built —
indexes, columnar mirror and all — except a task's, a
:class:`CountedRows`: the set of interned id-rows its rule derives (ids
are stable for the plan's one pool, so two rounds' values compare as
sets) carrying per row its derivation count, or for an aggregate head
per group the multiset of aggregated ids it folds. A unit returns its
node's value with its *Z-set* — predicate → ``(Δ⁺, Δ⁻)`` id-rows
against the committed value, only predicates whose rows moved — the one
change signal every layer reads (:meth:`ValueStore.changed`,
:meth:`ExecutionPlan.net`), emitted from what the body did:

* an EDB node's is the round's clamped delta;
* a task node applies its inputs' Z-sets since the committed round
  through counted Δ-plans — Σₖ new₁…newₖ₋₁ ⋈ ΔAₖ ⋈ oldₖ₊₁…, once for Δ⁺
  (+1) and once for Δ⁻ (−1); its Z-set is the rows whose count crossed
  zero, for an aggregate the folds of the groups the Δ touched;
* a predicate node applies its writers' Z-sets, summed, to its value;
* a fixpoint node runs the evaluator's one semi-naive loop,
  :func:`~repro.datalog.seminaive.evaluate_stratum`, for its SCC. When
  its inputs only grew (their Z-sets hold no Δ⁻) the loop continues the
  committed fixpoint seeded with their Δ⁺, a head that gains rows on a
  clone of its committed mirror, and what each head gained is its
  Z-set.

With no committed value — or for a task a changed negated input or a
Δ on a predicate its body repeats, for a fixpoint node any retraction
or a change under negation or an aggregate — a body recomputes (a task
its whole rule, counted; a fixpoint node from the SCC's entry
relations) and diffs its value against the committed one, once
(:func:`_mirror_diff`).

That is the package's one maintenance procedure — a delete is counted
below recursion and recomputed within it — and every caller runs these
unit bodies: a served round under the scheduler
(:mod:`repro.runtime`), a degraded round and the test oracle through
:meth:`ExecutionPlan.execute_serial`, and
:class:`~repro.datalog.incremental.IncrementalEngine` serially over the
nodes an update activates.

The old values are whatever the previous committed round left in the
nodes. A published relation is the mirror its stratum grew: nothing is
externed inside a round, the first reader of a relation's facts does
that (:class:`Relation`).
:meth:`ProgramSkeleton.stamp` restamps the one bound plan per round;
:func:`build_execution_plan` binds one for a single round, as a miss.

There is one DAG: a trace
:func:`~repro.datalog.compiler.compile_update` returns is the engine's
round on this ``G``, with the change flags its execution observed.

Unit closures read per-round data through the plan's :class:`RoundCtx`,
never through captured constants, which is what makes restamping sound.
Each unit is a pure function of its inputs' final values — a task's
maintenance and a fixpoint node's continuation included, which start
from a committed value that is itself that function of the committed
inputs, and never write to it — so running the units in any
precedence-respecting order, serial or concurrent, lands on the same
materialization.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from .ast import Aggregate, Program, Rule
from .columnar import (
    ColumnarRelation,
    InternPool,
    RulePlan,
    compile_rule_plan,
    delta_first,
)
from .compiler import (
    CompiledUpdate,
    RoundStructure,
    build_round_structure,
    stage_update,
)
from .database import Database, Relation
from .seminaive import evaluate_stratum
from .zset import ZSetDelta

__all__ = [
    "WorkUnit",
    "ValueStore",
    "ExecutionPlan",
    "ProgramSkeleton",
    "RoundCtx",
    "CountedRows",
    "build_execution_plan",
]

class CountedRows(set):
    """A task node's value: the id-rows its rule derives, with counts.

    As a set it is the rows — the support, which is what a task's Z-set
    moves: a row enters or leaves when its count crosses zero, so a
    change of counts alone activates nothing. ``counts`` maps each row to its
    derivation count (the bindings of the body that yield it) or, for an
    aggregate head, each group's id-row (the head minus the aggregate) to
    the multiset its row folds: ``{aggregated column's id:
    multiplicity}``. Read-only once a unit returned it.
    """

    __slots__ = ("counts",)

    counts: dict


class _Task:
    """The rule of a non-recursive task node and the counted plans that
    compute its value: the whole body, and per positive occurrence the
    Δ-plan that scans that occurrence first."""

    def __init__(
        self, rule: Rule, order: tuple[int, ...] | None,
        final_nodes: dict[str, int],
    ) -> None:
        self.whole = compile_rule_plan(rule, order, None, counted=True)
        self.head = rule.head.predicate
        #: predicate → node, of everything the body reads
        self.sources = tuple(
            (q, final_nodes[q]) for q in sorted(self.whole.reads)
        )
        positive = [
            (i, lit.atom) for i, lit in enumerate(rule.body)
            if lit.atom is not None and not lit.negated
        ]
        seen = Counter(atom.predicate for _i, atom in positive)
        #: per positive occurrence ``(predicate, arity, node, Δ-plan)``;
        #: no Δ-plan for a predicate the body repeats
        self.occurrences = tuple(
            (
                atom.predicate, len(atom.terms), final_nodes[atom.predicate],
                None if seen[atom.predicate] > 1
                else compile_rule_plan(rule, delta_first(rule, i), i, True),
            )
            for i, atom in positive
        )
        self.negated = tuple(
            (q, final_nodes[q]) for q in sorted({
                lit.atom.predicate for lit in rule.body
                if lit.atom is not None and lit.negated
            })
        )
        aggs = [
            (i, t.op) for i, t in enumerate(rule.head.terms)
            if isinstance(t, Aggregate)
        ]
        #: the aggregate's position in the head, and its op (``None``:
        #: a plain head)
        self.agg_at, self.agg_op = aggs[0] if aggs else (0, None)

    def fold(self, group: tuple, multiset: dict, pool: InternPool) -> tuple:
        """The head row of one group: the kernel's fold of its multiset —
        count the total multiplicity, sum over the multiset, min / max
        over the support."""
        values = pool.table.values
        op = self.agg_op
        if op == "count":
            result = sum(multiset.values())
        elif op == "sum":
            result = sum(values[v] * m for v, m in multiset.items())
        elif op == "min":
            result = min(map(values.__getitem__, multiset))
        else:
            result = max(map(values.__getitem__, multiset))
        at = self.agg_at
        return group[:at] + (pool.intern(result),) + group[at:]

    def recompute(self, values: "ValueStore", pool: InternPool) -> CountedRows:
        """The whole body, counted, over the inputs' values."""
        got = self.whole.kernel(
            {q: values[src] for q, src in self.sources}, None, pool
        )
        if self.agg_op is None:
            out = CountedRows(got)
            out.counts = got
            return out
        groups: dict[tuple, dict] = {}
        for (group, v), m in got.items():
            groups.setdefault(group, {})[v] = m
        out = CountedRows(
            self.fold(group, ms, pool) for group, ms in groups.items()
        )
        out.counts = groups
        return out

    def changes(
        self, values: "ValueStore"
    ) -> list[tuple[int, Any, Any]] | None:
        """``(occurrence, Δ⁺, Δ⁻)`` of every positive occurrence whose
        input changed since the committed round, off the inputs' Z-sets
        — or ``None``, recompute: a negated input changed, or a repeated
        predicate did."""
        for q, src in self.negated:
            if q in values.zset(src):
                return None
        out = []
        for k, (q, _arity, src, plan) in enumerate(self.occurrences):
            got = values.zset(src).get(q)
            if got:
                if plan is None:
                    return None
                out.append((k, *got))
        return out

    def maintain(
        self,
        values: "ValueStore",
        old: CountedRows,
        changes: list[tuple[int, Any, Any]],
        pool: InternPool,
    ) -> tuple[CountedRows, dict]:
        """``old`` moved by the bilinear expansion of the body's change:
        per changed occurrence k, its Δ⁺ (+1) and Δ⁻ (−1) joined with the
        occurrences before k as they are now and those after k as they
        were. A row whose count reaches 0 is gone; an aggregate's touched
        groups are re-folded. Returns the new value and its Z-set: the
        rows whose count crossed zero, for an aggregate the folds it
        re-added and discarded. ``old`` is never written: what changed
        is copied, and with no net change ``old`` itself comes back."""
        net: defaultdict = defaultdict(int)
        for k, plus, minus in changes:
            q, arity, _src, plan = self.occurrences[k]
            relations = {
                qj: values[sj] if j < k else values.committed(sj)
                for j, (qj, _a, sj, _p) in enumerate(self.occurrences)
                if j != k
            }
            relations.update((qn, values[sn]) for qn, sn in self.negated)
            for sign, rows in ((1, plus), (-1, minus)):
                if rows:
                    delta = ColumnarRelation(q, arity, pool)
                    delta.rows = rows
                    for key, m in plan.kernel(
                        relations, {q: delta}, pool
                    ).items():
                        net[key] += sign * m
        moved = {key: n for key, n in net.items() if n}
        plus: set = set()
        minus: set = set()
        if not moved:
            return old, {}
        counts = dict(old.counts)
        if self.agg_op is None:
            for row, n in moved.items():
                was = counts.pop(row, 0)
                if was + n:
                    counts[row] = was + n
                if not was:
                    plus.add(row)
                elif not was + n:
                    minus.add(row)
        else:
            touched: dict[tuple, dict] = {}
            for (group, v), n in moved.items():
                ms = touched.get(group)
                if ms is None:
                    ms = touched[group] = dict(counts.get(group, ()))
                c = ms.get(v, 0) + n
                if c:
                    ms[v] = c
                else:
                    del ms[v]
            for group, ms in touched.items():
                was = counts.pop(group, None)
                if was is not None:
                    minus.add(self.fold(group, was, pool))
                if ms:
                    counts[group] = ms
                    plus.add(self.fold(group, ms, pool))
            # a group folding to the row it folded to before is unmoved
            same = plus & minus
            plus -= same
            minus -= same
        out = CountedRows(old)
        out.difference_update(minus)
        out.update(plus)
        out.counts = counts
        return out, _change(self.head, plus, minus)


def _change(pred: str, plus: set, minus: set) -> dict:
    """The Z-set of a node whose ``pred`` rows moved by ``plus`` and
    ``minus``: empty when neither holds a row."""
    return {pred: (plus, minus)} if plus or minus else {}


def _mirror_diff(pred: str, was: Any, now: Any, pool: InternPool) -> dict:
    """The Z-set of ``was`` → ``now`` — relations, or a task's id-rows;
    ``None``: empty — a recomputing body's one diff, of the id-rows in
    one and not the other."""
    new = now if isinstance(now, set) else now.columnar(pool).rows
    if was is None:
        return _change(pred, new, set())
    old = was if isinstance(was, set) else was.columnar(pool).rows
    gained = new - old
    # a relation that only grew has lost nothing
    lost = old - new if len(old) + len(gained) != len(new) else set()
    return _change(pred, gained, lost)


def _entry_relations(
    program: Program, preds: Iterable[str], edb: Database
) -> dict[str, Relation]:
    """What each of ``preds`` holds when its stratum (or EDB node)
    starts: the program's facts for it ∪ its facts in ``edb`` — the
    EDB's own relation object wherever the program states none. It
    reads the program's stated facts and arities, derived once: a call
    costs what ``preds`` holds, not the program's size."""
    stated = program.stated_facts
    arities = program.arities()
    out: dict[str, Relation] = {}
    for pred in preds:
        rel = edb.relations.get(pred)
        if pred in stated:
            rel = (
                rel.copy_indexed()
                if rel is not None
                else Relation(pred, arities[pred])
            )
            for fact in stated[pred]:
                rel.add(fact)
        out[pred] = rel if rel is not None else Relation(pred, arities[pred])
    return out


@dataclass
class WorkUnit:
    """One runnable DAG node: a pure function of its input values."""

    node: int
    kind: str  #: ``"edb"`` | ``"pred"`` | ``"task"`` | ``"fix"``
    label: str
    #: this node's value and Z-set, from its inputs' values
    run: Callable[["ValueStore"], tuple[Any, dict]]


class ValueStore:
    """Per-round node values and Z-sets, falling back to old values when
    skipped.

    A deactivated node is never executed — incremental maintenance
    reuses its old value, its Z-set is empty — so readers fall back to
    ``plan.old_values[node]`` for any node without a computed value.
    The executor guarantees a unit only reads nodes that are already
    *resolved* (executed or deactivated), so the fallback is sound.

    The old values are also what a unit that *maintains* its output
    continues from (:meth:`committed`), and ``notes`` is where it says
    so: node → the span args an executed unit reports about how it
    produced its value (a fixpoint or task node's ``mode`` and
    ``delta_rows``),
    written by the unit, read by whoever traces or counts the round.
    """

    def __init__(self, plan: "ExecutionPlan") -> None:
        #: what every Z-set is against
        self.old = plan.old_values
        #: what a skipped node falls back to and a unit continues from
        self._committed = plan.old_values
        self._values: dict[int, Any] = {}
        self._zsets: dict[int, dict] = {}
        self.notes: dict[int, dict[str, Any]] = {}

    def __getitem__(self, node: int) -> Any:
        got = self._values.get(node)
        return self._committed[node] if got is None else got

    def committed(self, node: int) -> Any:
        """What the previous committed round left in ``node``, or
        ``None``. Read-only: a round that fails is retried from it."""
        return self._committed[node]

    def zset(self, node: int) -> dict:
        """``node``'s Z-set against ``old[node]`` (read-only): empty
        unless it ran and changed."""
        return self._zsets.get(node, {})

    def set(self, node: int, value: Any, zset: dict) -> None:
        """Record an executed node's value and Z-set (coordinator only)."""
        self._values[node] = value
        self._zsets[node] = zset

    def changed(self, node: int) -> bool:
        """The changed/unchanged signal of an executed node: its Z-set is
        non-empty, or it has no committed value — on a miss even an
        empty relation activates its readers."""
        return bool(self._zsets[node]) or self.old[node] is None

    def computed(self, node: int) -> bool:
        """Whether ``node`` was actually executed this round."""
        return node in self._values


class RoundCtx:
    """The per-round data every unit closure reads.

    Mutated only between rounds (the plan is restamped), never while it
    is executing, so worker threads read it without locks.
    """

    __slots__ = ("baseline", "pool", "zdelta")

    def __init__(self, pool: InternPool) -> None:
        #: predicate → program facts ∪ its facts in the round's new EDB
        #: — the entry state of a stratum, and the relation an EDB node
        #: publishes
        self.baseline: dict[str, Relation] = {}
        #: the id space every unit's joins run in
        self.pool = pool
        #: the round's EDB delta, clamped against the committed EDB —
        #: with the committed side only: what an EDB node's Z-set is
        self.zdelta: ZSetDelta | None = None


@dataclass
class ExecutionPlan:
    """Every node of ``G`` as a runnable :class:`WorkUnit`, stamped with
    one round.

    The plan holds no scheduler state: what a scheduler pre-computes
    from the graph (levels, interval lists) lives on the trace's ``Dag``.
    """

    compiled: CompiledUpdate
    units: list[WorkUnit]
    #: node → its value under the *old* materialization, what the
    #: previous committed round left in it — what every unit's Z-set is
    #: against, and so the real changed/unchanged signal. A
    #: :class:`Relation`, a :class:`CountedRows` for a task, a
    #: predicate → relation dict for a fixpoint node, or ``None`` when
    #: no committed round left one: the node then changed.
    old_values: list
    #: predicate → node id carrying its final value
    final_nodes: dict[str, int]
    #: per-round data shared by the unit closures
    ctx: RoundCtx

    def new_store(self) -> ValueStore:
        """A fresh value store for one execution of this plan."""
        return ValueStore(self)

    def materialization(self, values: ValueStore) -> Database:
        """Assemble the full database the executed round produced.

        A final node's relation is adopted as is. Relations no node
        carries — predicates the program never mentions — come through
        from the round's new EDB, by identity: treat the result as
        read-only.
        """
        out = Database(dict(self.compiled.edb_new.relations))
        for pred, node in self.final_nodes.items():
            out.relations[pred] = values[node]
        return out

    def net(self, values: ValueStore) -> dict[str, tuple[set, set]]:
        """The executed round's change to the materialization: the sum
        of the final nodes' Z-sets. A predicate no node carries is not
        in it — it changes by the round's delta."""
        out: dict[str, tuple[set, set]] = {}
        for node in set(self.final_nodes.values()):
            out.update(values.zset(node))
        return out

    def execute_serial(self) -> tuple[ValueStore, dict[int, bool]]:
        """Run every unit in level order on the calling thread.

        Returns the value store and the real per-node change flags. No
        node is skipped and the store holds no committed value, so no
        old value is read — not as a skipped node's output, not as what
        a fixpoint node continues from — only diffed against: how the
        service runs a degraded round, and the test oracle for the
        concurrent executor.
        """
        values = self.new_store()
        # nothing committed to fall back on, or to continue from
        values._committed = [None] * len(self.units)
        diffs: dict[int, bool] = {}
        levels = self.compiled.trace.levels
        for node in np.argsort(levels, kind="stable").tolist():
            values.set(node, *self.units[node].run(values))
            diffs[node] = values.changed(node)
        return values, diffs


class ProgramSkeleton:
    """Wiring of a program's static ``G``: built once, restamped per round.

    Derived from ``structure`` alone — the program it was built from,
    whose strata and predicate sets it reads, and its node keys: the
    node carrying each predicate's final value, the tasks writing each
    predicate node, and per task its counted rule plans and the nodes
    its read set comes from. The unit
    bodies are the module docstring's; which one a node runs is decided
    by its inputs' Z-sets — their sign for a fixpoint node, which inputs
    changed for a task — before any join runs.
    """

    def __init__(
        self,
        structure: RoundStructure,
        pool: InternPool,
        join_orders: dict[int, tuple[int, ...]] | None = None,
    ) -> None:
        program = structure.program
        self.program = program
        #: the id space stamped into the bound plan's RoundCtx
        self.pool = pool
        #: proper-rule index → body evaluation order (analyzer hint);
        #: rules without an entry evaluate in textual order
        self.join_orders: dict[int, tuple[int, ...]] = dict(
            join_orders or {}
        )
        self.node_keys = structure.node_keys
        self.key_to_id = structure.key_to_id
        self.labels = structure.dag.node_names
        edb = program.edb_predicates()
        #: predicate → node carrying its final value
        self.final_nodes = {
            p: self.key_to_id[("edb", p) if p in edb else ("pred", p, si)]
            for si, comp in enumerate(program.depgraph.stratify())
            for p in comp
        }
        #: predicate → the task nodes writing its predicate node
        self.writers: dict[str, list[int]] = {}
        for nid, key in enumerate(self.node_keys):
            if key[0] == "task":
                head = program.proper_rules[key[2]].head.predicate
                self.writers.setdefault(head, []).append(nid)

    # ------------------------------------------------------------------
    # unit construction (closures read ctx, never per-round captures)
    # ------------------------------------------------------------------
    def _make_unit(self, nid: int, key: tuple, ctx: RoundCtx) -> WorkUnit:
        kind = key[0]
        if kind == "edb":
            p = key[1]

            def run(values: ValueStore) -> tuple[Relation, dict]:
                rel, was = ctx.baseline[p], values.old[nid]
                if ctx.zdelta is None:
                    # no delta to go by: recompute, diff the mirrors
                    return rel, _mirror_diff(p, was, rel, ctx.pool)
                # the round's clamped delta, bar the facts the program
                # states: the baseline holds those either way
                ops = ctx.zdelta.ops_for(p)
                plus = [f for f, w in ops if w > 0 and f not in was]
                minus = [f for f, w in ops if w < 0 and f not in rel]
                intern = ctx.pool.intern_facts
                return rel, _change(p, intern(p, plus), intern(p, minus))

        elif kind == "fix":
            si = key[1]
            # every SCC predicate is recursive: one SCC, one stratum
            scc = tuple(self.program.depgraph.stratify()[si])
            rules = self.program.strata[si]
            atoms = [
                (lit.atom.predicate, lit.negated or r.has_aggregate)
                for _ri, r in rules
                for lit in r.body
                if lit.atom is not None
            ]
            # read under negation or by an aggregate rule: no Δ form, so
            # a change to one recomputes the SCC
            sensitive = {q for q, under in atoms if under}
            inputs = tuple(
                (q, self.final_nodes[q], q in sensitive)
                for q in sorted({q for q, _under in atoms} - set(scc))
            )
            #: (rule index, Δ-position) → compiled plan, from its first
            #: use on, for every round
            plans: dict[tuple[int, int | None], RulePlan] = {}

            def seed(values: ValueStore) -> dict[str, set] | None:
                """Δ⁺ of what the SCC reads since the committed round,
                predicate → id-rows, off the inputs' Z-sets — or
                ``None``, recompute: no committed value, a retraction
                anywhere, or a change under negation or an aggregate.
                The SCC's own entry relations need no look (see
                :meth:`ProgramSkeleton.stamp`)."""
                if values.committed(nid) is None:
                    return None
                delta: dict[str, set] = {}
                for q, src, sensitive in inputs:
                    got = values.zset(src).get(q)
                    if got:
                        plus, minus = got
                        if minus or sensitive:
                            return None
                        delta[q] = plus
                return delta

            def run(values: ValueStore) -> tuple[dict[str, Relation], dict]:
                db = Database({q: values[src] for q, src, _s in inputs})
                delta = seed(values)
                if delta is None:
                    values.notes[nid] = {"mode": "recompute", "delta_rows": 0}
                    db.relations.update((p, ctx.baseline[p]) for p in scc)
                else:
                    values.notes[nid] = {
                        "mode": "continue",
                        "delta_rows": sum(map(len, delta.values())),
                    }
                    db.relations.update(values.committed(nid))
                # the relations handed in are read, never written: a
                # head that gains rows is a new relation in db
                gained = evaluate_stratum(
                    rules, db, ctx.pool, orders=self.join_orders,
                    delta=delta, plans=plans,
                )
                value = {p: db.relations[p] for p in scc}
                was = values.old[nid] or dict.fromkeys(scc)
                zset: dict = {}
                for p in scc:
                    if delta is None:
                        zset.update(_mirror_diff(p, was[p], value[p], ctx.pool))
                    elif p in gained:  # a continuation only adds
                        zset[p] = (set().union(*gained[p]), set())
                return value, zset

        elif kind == "pred":
            _, p, si = key
            fix = self.key_to_id.get(("fix", si))
            task_ids = tuple(self.writers.get(p, ()))
            if fix is not None:

                def run(values: ValueStore) -> tuple[Relation, dict]:
                    got = values.zset(fix).get(p)
                    return values[fix][p], {p: got} if got else {}

            else:

                def run(values: ValueStore) -> tuple[Relation, dict]:
                    was = values.committed(nid)
                    if was is None:
                        # recompute: the non-recursive stratum's one
                        # merge, as the fixpoint loop does it, in id space
                        rel = ctx.baseline[p].copy()
                        mirror = rel.columnar(ctx.pool)
                        for tid in task_ids:
                            mirror.extend(values[tid])
                        rel.adopt(mirror)
                        return rel, _mirror_diff(
                            p, values.old[nid], rel, ctx.pool
                        )
                    # the writers' Z-sets summed: a row one gained is new
                    # unless the value held it, a row one lost goes unless
                    # the baseline or a writer still holds it
                    moved = [values.zset(t)[p] for t in task_ids
                             if p in values.zset(t)]
                    old = was.columnar(ctx.pool)
                    plus = set().union(*(z[0] for z in moved)) - old.rows
                    held = ctx.baseline[p].columnar(ctx.pool).rows
                    minus = {
                        row for z in moved for row in z[1]
                        if row not in held
                        and not any(row in values[t] for t in task_ids)
                    }
                    if not plus and not minus:
                        return was, {}
                    mirror = old.clone()
                    mirror.extend(plus)
                    for row in minus:
                        mirror.discard_row(row)
                    rel = Relation(p, was.arity)
                    rel.adopt(mirror)
                    return rel, {p: (plus, minus)}

        else:
            # a task of a non-recursive stratum: it reads only earlier
            # strata, each at the node carrying its final value
            ri = key[2]
            task = _Task(
                self.program.proper_rules[ri],
                self.join_orders.get(ri),
                self.final_nodes,
            )

            def run(values: ValueStore) -> tuple[CountedRows, dict]:
                old = values.committed(nid)
                changes = None
                if isinstance(old, CountedRows):
                    changes = task.changes(values)
                if changes is None:
                    values.notes[nid] = {"mode": "recompute", "delta_rows": 0}
                    out = task.recompute(values, ctx.pool)
                    return out, _mirror_diff(
                        task.head, values.old[nid], out, ctx.pool
                    )
                values.notes[nid] = {
                    "mode": "maintain",
                    "delta_rows": sum(
                        len(plus) + len(minus) for _k, plus, minus in changes
                    ),
                }
                return task.maintain(values, old, changes, ctx.pool)

        return WorkUnit(node=nid, kind=kind, label=self.labels[nid], run=run)

    def bind(self, cu: CompiledUpdate) -> ExecutionPlan:
        """The one plan of this program, not yet stamped with a round."""
        ctx = RoundCtx(self.pool)
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
        )

    @staticmethod
    def stamp(
        plan: ExecutionPlan,
        cu: CompiledUpdate,
        baseline: dict[str, Relation],
        old_values: list | None,
        zdelta: ZSetDelta | None = None,
    ) -> None:
        """Restamp ``plan`` with one round, in place.

        ``baseline`` maps every program predicate to its entry relation
        (program facts ∪ the round's new EDB); ``old_values`` are the
        node values the previous committed round left, ``None`` when
        there are none — every node then reads as changed, and
        ``cu`` was staged with every source of ``G`` initial. With old
        values comes the round's EDB delta clamped against the EDB of
        the round that left them: what an EDB node emits as its Z-set
        (without it, it diffs the two mirrors). An SCC head's entry
        relation needs no committed twin — no update reaches a derived
        predicate, so on a round with old values it is the committed
        round's object. Deterministic: stamping the same round twice (a
        failed round is retried) yields identical state.
        """
        plan.ctx.baseline = baseline
        plan.ctx.zdelta = zdelta if old_values else None
        # rebind in place: ValueStore holds a reference to this list
        plan.old_values[:] = old_values or [None] * len(plan.units)
        plan.compiled = cu


def build_execution_plan(
    cu: CompiledUpdate,
    join_orders: dict[int, tuple[int, ...]] | None = None,
    pool: InternPool | None = None,
) -> ExecutionPlan:
    """The static plan of ``cu.program``, stamped with ``cu``'s round as
    a miss.

    The plan the plan cache serves for that program, staged with no
    committed values (:func:`~repro.datalog.compiler.stage_update`,
    ``touched=None``): every source of ``G`` is initial, so every node
    runs, reads as changed, and a fixpoint node recomputes from the
    entry relations of ``cu.edb_new``. Of ``cu`` — a round
    :func:`~repro.datalog.compiler.compile_update` ran, or one staged —
    only the program, the two EDB snapshots and the trace's
    name and work unit are read. ``join_orders`` maps proper-rule
    indexes of ``cu.program`` to body evaluation orders (the static
    analyzer's cartesian-join hints); ``pool`` is the id space the units
    intern into, a fresh one when ``None``.
    """
    program = cu.program
    structure = build_round_structure(program)
    staged = stage_update(
        structure,
        cu.edb_old,
        cu.edb_new,
        None,
        work_per_derivation=cu.trace.metadata["work_per_derivation"],
        name=cu.trace.name,
    )
    plan = ProgramSkeleton(
        structure, InternPool() if pool is None else pool, join_orders
    ).bind(staged)
    ProgramSkeleton.stamp(
        plan,
        staged,
        _entry_relations(program, program.predicates(), cu.edb_new),
        None,
    )
    return plan
