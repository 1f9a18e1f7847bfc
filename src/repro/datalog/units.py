"""Runnable units of work behind a program's static DAG ``G``.

``G`` (:func:`~repro.datalog.compiler.build_round_structure` without
iteration counts) has a source per EDB predicate, the rule-instance
task and predicate-state nodes of every non-recursive stratum, and one
fixpoint node per recursive SCC. This module turns it into an
:class:`ExecutionPlan`: every node becomes a :class:`WorkUnit` whose
``execute`` *actually applies* the node's rule (or state merge, or whole
stratum fixpoint) to the values produced by its DAG inputs, through the
compiled rule kernels the evaluator uses.

The diff between a unit's output and the node's old value is the paper's
changed/unchanged signal, computed from real data —
:mod:`repro.runtime.executor` uses it to decide child activation.

One plan
--------
:class:`ProgramSkeleton` wires ``G`` once. Node values are
:class:`Relation` objects handed from writer to reader as built —
indexes, columnar mirror and all — except a task's, a
:class:`CountedRows`: the set of interned id-rows its rule derives (ids
are stable for the plan's one pool, so two rounds' values compare as
sets) carrying per row its derivation count, or for an aggregate head
per group the multiset of aggregated ids it folds. Both stateful node
kinds *maintain* their value:

* a task node applies its inputs' Z-sets since the committed round
  through counted Δ-plans — Σₖ new₁…newₖ₋₁ ⋈ ΔAₖ ⋈ oldₖ₊₁…, once for Δ⁺
  (+1) and once for Δ⁻ (−1); a row whose count reaches 0 is the delete,
  an aggregate re-folds the groups the Δ touched. With no committed
  value, a changed negated input or a Δ on a predicate its body repeats
  it recomputes its whole rule, counted;
* a fixpoint node whose inputs only grew since the committed round
  continues that round's fixpoint from Δ⁺ through the engine's insert
  step (:func:`~repro.datalog.incremental._insert_stratum`), a head that
  gains rows on a clone of its committed mirror; after any retraction, a
  change under negation or an aggregate, or with no committed value, it
  runs :func:`~repro.datalog.seminaive.evaluate_stratum` over its inputs.

The old values are whatever the previous committed round left in the
nodes. A published relation is the mirror its stratum grew: nothing is
externed inside a round, the first reader of a relation's facts does
that (:class:`Relation`).
:meth:`ProgramSkeleton.stamp` restamps the one bound plan per round;
:func:`build_execution_plan` binds one for a single round, as a miss.

The DAG :func:`~repro.datalog.compiler.compile_update` unrolls — one
task per (rule, Δ-position, iteration) — is a trace for the simulator,
not a plan: nothing executes it.

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
from .depgraph import DependencyGraph
from .incremental import _insert_stratum, _Stratum
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

#: an input's Z-set when its value is the committed one
_NO_CHANGE: tuple[frozenset, frozenset] = (frozenset(), frozenset())


class CountedRows(set):
    """A task node's value: the id-rows its rule derives, with counts.

    As a set it is the rows — the support, which is what ``==`` compares,
    so a task's changed/unchanged signal is its row set and a change of
    counts alone activates nothing. ``counts`` maps each row to its
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
        self, values: "ValueStore", zset: Callable[[int, str], tuple]
    ) -> list[tuple[int, Any, Any]] | None:
        """``(occurrence, Δ⁺, Δ⁻)`` of every positive occurrence whose
        input changed since the committed round — or ``None``, recompute:
        a negated input changed, or a repeated predicate did."""
        for q, src in self.negated:
            plus, minus = zset(src, q)
            if plus or minus:
                return None
        out = []
        for k, (q, _arity, src, plan) in enumerate(self.occurrences):
            plus, minus = zset(src, q)
            if plus or minus:
                if plan is None:
                    return None
                out.append((k, plus, minus))
        return out

    def maintain(
        self,
        values: "ValueStore",
        old: CountedRows,
        changes: list[tuple[int, Any, Any]],
        pool: InternPool,
    ) -> CountedRows:
        """``old`` moved by the bilinear expansion of the body's change:
        per changed occurrence k, its Δ⁺ (+1) and Δ⁻ (−1) joined with the
        occurrences before k as they are now and those after k as they
        were. A row whose count reaches 0 is gone; an aggregate's touched
        groups are re-folded. ``old`` is never written: what changed is
        copied, and with no net change ``old`` itself comes back."""
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
        if not moved:
            return old
        out = CountedRows(old)
        counts = dict(old.counts)
        out.counts = counts
        if self.agg_op is None:
            for row, n in moved.items():
                c = counts.get(row, 0) + n
                if c:
                    counts[row] = c
                    out.add(row)
                else:
                    del counts[row]
                    out.discard(row)
            return out
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
                out.discard(self.fold(group, was, pool))
            if ms:
                counts[group] = ms
                out.add(self.fold(group, ms, pool))
        return out


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


def _entry_relations(
    program: Program, preds: Iterable[str], edb: Database
) -> dict[str, Relation]:
    """What each of ``preds`` holds when its stratum (or EDB node)
    starts: the program's facts for it ∪ its facts in ``edb`` — the
    EDB's own relation object wherever the program states none."""
    stated: dict[str, list[tuple]] = {}
    for rule in program.facts:
        stated.setdefault(rule.head.predicate, []).append(
            tuple(t.value for t in rule.head.terms)  # type: ignore[union-attr]
        )
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
    produced its value (a fixpoint or task node's ``mode`` and
    ``delta_rows``),
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

    Mutated only between rounds (the plan is restamped), never while it
    is executing, so worker threads read it without locks — except
    ``zsets``, a per-round cache the task units fill: two units that
    take one input's Z-set at once compute the same value.
    """

    __slots__ = (
        "baseline", "pool", "committed_baseline", "zdelta", "zsets",
    )

    def __init__(self, pool: InternPool) -> None:
        #: predicate → program facts ∪ its facts in the round's new EDB
        #: — the entry state of a stratum, and the relation an EDB node
        #: publishes
        self.baseline: dict[str, Relation] = {}
        #: the id space every unit's joins run in
        self.pool = pool
        #: the committed side, next to the plan's old node values: the
        #: baseline of the round that left them
        self.committed_baseline: dict[str, Relation] = {}
        #: the round's EDB delta, clamped against the committed EDB —
        #: with the committed side only
        self.zdelta: ZSetDelta | None = None
        #: node → its value's ``(Δ⁺, Δ⁻)`` id-rows since the committed
        #: round, taken once per round by the first task that reads it
        self.zsets: dict[int, tuple] = {}


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
    #: previous committed round left in it — diffing against it (``!=``)
    #: yields the real changed/unchanged signal. A :class:`Relation`, an
    #: id-row ``set`` for a task, a predicate → relation dict for a
    #: fixpoint node, or ``None`` — unequal to every value — when no
    #: committed round left one.
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
        values._old = [None] * len(self.units)
        diffs: dict[int, bool] = {}
        levels = self.compiled.trace.levels
        for node in np.argsort(levels, kind="stable"):
            unit = self.units[int(node)]
            value = unit.execute(values)
            values.set(unit.node, value)
            diffs[unit.node] = value != self.old_values[unit.node]
        return values, diffs


class ProgramSkeleton:
    """Wiring of a program's static ``G``: built once, restamped per round.

    Derived from ``structure`` alone — the program it was built from and
    its node keys: the strata, the node carrying each predicate's final
    value, the tasks writing each predicate node, and per task its
    counted rule plans and the nodes its read set comes from. Units
    exchange :class:`Relation` objects: an EDB node publishes the
    round's baseline relation, a task the counted id-rows its rule
    derives (maintained from its inputs' Z-sets, or recomputed), a
    predicate node the relation those rows (and the predicate's
    baseline) add up to, still in id space, and a fixpoint node the
    relations of its SCC: continued from the committed round's by the
    engine's insert step when its inputs only grew, else grown from the
    entry relations under
    :func:`~repro.datalog.seminaive.evaluate_stratum` — the evaluator's
    own loop, columnar. Which body a node runs is decided by its input
    Z-sets — their sign for a fixpoint node, which inputs changed for a
    task — before any join runs.
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
        self.rules = program.proper_rules
        self.strata = DependencyGraph(program).stratify()
        edb = program.edb_predicates()
        #: predicate → node carrying its final value
        self.final_nodes = {
            p: self.key_to_id[("edb", p) if p in edb else ("pred", p, si, 0)]
            for si, comp in enumerate(self.strata)
            for p in comp
        }
        #: predicate → the task nodes writing its predicate node
        self.writers: dict[str, list[int]] = {}
        for nid, key in enumerate(self.node_keys):
            if key[0] == "task":
                head = self.rules[key[3]].head.predicate
                self.writers.setdefault(head, []).append(nid)
        #: EDB predicates whose node publishes the EDB relation as is (no
        #: program fact joins it): their Z-set is the round's delta
        self.clamped = edb - {f.head.predicate for f in program.facts}

    def _zset(
        self, ctx: RoundCtx, values: ValueStore, node: int, pred: str
    ) -> tuple:
        """``(Δ⁺, Δ⁻)`` id-rows of ``node``'s value since the committed
        round, taken once per round: empty when the value is the
        committed object, the round's clamped delta interned for an EDB
        relation, else the id-row differences of the two mirrors."""
        got = ctx.zsets.get(node)
        if got is None:
            was, now = values.committed(node), values[node]
            if now is was:
                got = _NO_CHANGE
            elif ctx.zdelta is not None and pred in self.clamped:
                ops = ctx.zdelta.ops_for(pred)
                got = tuple(
                    ctx.pool.intern_facts(
                        pred, [f for f, w in ops if (w > 0) == grew]
                    )
                    for grew in (True, False)
                )
            else:
                old = was.columnar(ctx.pool).rows
                new = now.columnar(ctx.pool).rows
                got = (new - old, old - new)
            ctx.zsets[node] = got
        return got

    # ------------------------------------------------------------------
    # unit construction (closures read ctx, never per-round captures)
    # ------------------------------------------------------------------
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
                (q, self.final_nodes[q]) for q in sorted(st.reads - scc_set)
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
            task_ids = tuple(self.writers.get(p, ()))
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
            # a task of a non-recursive stratum: it reads only earlier
            # strata, each at the node carrying its final value
            ri = key[3]
            task = _Task(
                self.rules[ri], self.join_orders.get(ri), self.final_nodes
            )

            def run(values: ValueStore) -> CountedRows:
                old = values.committed(nid)
                changes = None
                if isinstance(old, CountedRows):
                    changes = task.changes(
                        values, lambda n, q: self._zset(ctx, values, n, q)
                    )
                if changes is None:
                    values.notes[nid] = {"mode": "recompute", "delta_rows": 0}
                    return task.recompute(values, ctx.pool)
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
        committed_baseline: dict[str, Relation] | None,
        zdelta: ZSetDelta | None = None,
    ) -> None:
        """Restamp ``plan`` with one round, in place.

        ``baseline`` maps every program predicate to its entry relation
        (program facts ∪ the round's new EDB); ``old_values`` are the
        node values the previous committed round left, ``None`` when
        there are none — every node then diffs as changed, and
        ``cu`` was staged with every source of ``G`` initial. With old
        values comes the rest of that round's side (else ``None``): its
        baseline — with them, what a fixpoint node reads to continue
        instead of recomputing — and the round's EDB delta clamped
        against that side's EDB, what a task maintaining its value takes
        an EDB input's Z-set from (without it, from the two mirrors).
        Deterministic: stamping the same round twice (a failed round is
        retried) yields identical state.
        """
        plan.ctx.baseline = baseline
        plan.ctx.committed_baseline = committed_baseline or {}
        plan.ctx.zdelta = zdelta if old_values else None
        plan.ctx.zsets = {}
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
    runs, diffs as changed, and a fixpoint node recomputes from the
    entry relations of ``cu.edb_new``. Of ``cu`` — a round
    :func:`~repro.datalog.compiler.compile_update` unrolled, or one
    staged — only the program, the two EDB snapshots and the trace's
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
        None,
    )
    return plan
