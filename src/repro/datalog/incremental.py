"""Incremental maintenance of materialized Datalog programs.

This is the computation the paper's schedulers exist to serve: a
program has been materialized, the base data (EDB) changes, and the
derived facts (IDB) must be brought up to date without recomputing from
scratch.

:class:`IncrementalEngine` is the library's front end to the one
maintenance procedure, the one a served round runs: the program's
static DAG ``G`` (:mod:`repro.datalog.units`) executed over the node
values the previous update committed (:mod:`repro.datalog.plancache`).
The engine runs it serially on the calling thread, with no scheduler.
An update activates the EDB nodes it touches; a node runs iff it is one
of them or an input changed — its Z-set is non-empty — and any other
node's committed value stands, the paper's activation rule. A node that
runs executes its unit body, the same body a served round calls: a task
counts, a fixpoint node continues, retracts or recomputes its SCC — a
delete is maintained one way in this package.

The engine owns its plan cache's
:class:`~repro.datalog.columnar.InternPool` (``engine.pool``); inside
:meth:`IncrementalEngine.apply` only the rows of
:class:`MaintenanceTrace`'s ``net`` leave id space: the final nodes'
Z-sets, summed (:meth:`~repro.datalog.units.ExecutionPlan.net`). An
update is refused by the check every entry point shares
(:func:`~repro.datalog.zset.check_update`). Row ``seminaive_evaluate``
is the oracle the engine is tested against.

:class:`Delta`, :func:`apply_delta` and :func:`merge_deltas` live in
:mod:`repro.datalog.zset` and are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ast import Program
from .database import Database
from .plancache import CompiledProgramCache
from .units import ExecutionPlan, ValueStore
from .zset import (
    Delta,
    ZSetDelta,
    apply_delta,
    apply_zdelta,
    check_program_update,
    effective_zdelta,
    merge_deltas,
)

__all__ = [
    "Delta",
    "MaintenanceTrace",
    "IncrementalEngine",
    "apply_delta",
    "merge_deltas",
    "ZSetDelta",
    "apply_zdelta",
    "effective_zdelta",
]


@dataclass
class MaintenanceTrace:
    """What one :meth:`IncrementalEngine.apply` ran and changed.

    ``events`` holds one ``(node label, mode, delta_rows)`` per executed
    task or fixpoint node, in execution order: what its unit left in
    :attr:`~repro.datalog.units.ValueStore.notes`, the vocabulary of a
    served round's unit spans — ``mode`` is ``"maintain"`` or
    ``"recompute"`` for a task, ``"continue"``, ``"retract"`` or
    ``"recompute"`` for a fixpoint node.
    """

    events: list[tuple[str, str, int]] = field(default_factory=list)
    #: net fact changes over the whole update, EDB and derived
    net: ZSetDelta = field(default_factory=ZSetDelta)


class IncrementalEngine:
    """Maintains one materialized program instance across updates.

    ``db`` is the current materialization, the node values the last
    update committed: read-only — an :meth:`apply` publishes new
    relations and never writes the ones ``db`` held.
    """

    def __init__(self, program: Program, edb: Database | None = None) -> None:
        self.program = program
        #: the program's static ``G``, its bound plan and what the last
        #: update committed to its nodes
        self.cache = CompiledProgramCache(program)
        #: the one id space of every node value
        self.pool = self.cache.pool
        self._edb = Database() if edb is None else edb
        # a miss: every source of G is initial, so all of it runs
        self._round(ZSetDelta())

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, set[tuple]]:
        """Current materialized facts (for oracle comparisons)."""
        return self.db.as_dict()

    def apply(self, delta: "Delta | ZSetDelta") -> MaintenanceTrace:
        """Apply an EDB update incrementally; returns what it ran and
        changed.

        A :class:`Delta` is clamped against the live EDB into exact
        weights (:func:`effective_zdelta`); a :class:`ZSetDelta` is
        taken as those exact weights already. An update that names a
        derived predicate or a fact of the wrong length raises
        ``ValueError`` before anything is written; one that changes
        nothing returns an empty trace before anything is compiled.
        """
        check_program_update(self.program, self._edb, delta)
        zdelta = (
            delta
            if isinstance(delta, ZSetDelta)
            else effective_zdelta(self._edb, delta)
        )
        if zdelta.is_empty:
            return MaintenanceTrace()
        prev = self.db
        plan, values = self._round(zdelta)
        # the update's whole change: the final nodes' Z-sets, externed,
        # and the update itself where no node carries the predicate
        net = ZSetDelta()
        for pred, facts in zdelta.weights.items():
            if facts and pred not in plan.final_nodes:
                net.weights[pred] = dict(facts)
        for pred, moved in plan.net(values).items():
            weights = net.weights[pred] = {}
            for sign, rows in zip((1, -1), moved):
                weights.update(
                    dict.fromkeys(self.pool.extern_rows(rows), sign)
                )
        if not plan.old_values or plan.old_values[0] is None:
            # a miss: every Z-set is against nothing, so what the nodes
            # held before is taken away
            for pred in plan.final_nodes:
                for fact in prev.relations.get(pred, ()):
                    net.delete(pred, fact)
        return MaintenanceTrace(
            [
                (plan.units[node].label, said["mode"], said["delta_rows"])
                for node, said in values.notes.items()
            ],
            net,
        )

    def _round(
        self, delta: "Delta | ZSetDelta"
    ) -> tuple[ExecutionPlan, ValueStore]:
        """Stage ``delta`` onto ``G``, run it, commit it."""
        cu = self.cache.compile(self.program, self._edb, delta)
        plan = self.cache.plan(cu)
        values = _execute_activated(plan)
        self.cache.commit(cu, values)
        self._edb = cu.edb_new
        self.db = plan.materialization(values)
        return plan, values


def _execute_activated(plan: ExecutionPlan) -> ValueStore:
    """Run ``plan``'s activated units in level order on this thread.

    A node runs iff it is an initial task or an input changed (a
    non-empty Z-set, or no committed value); any other node's committed
    value stands, through the store's fallback. Unlike
    :meth:`ExecutionPlan.execute_serial`, which runs every node and
    reads no committed value, this is the served round's activation
    rule without a scheduler.
    """
    trace = plan.compiled.trace
    offsets, targets = trace.dag.out_lists()
    active = [False] * len(plan.units)
    for node in trace.initial_tasks.tolist():
        active[node] = True
    values = plan.new_store()
    for node in np.argsort(trace.levels, kind="stable").tolist():
        if not active[node]:
            continue
        values.set(node, *plan.units[node].run(values))
        if values.changed(node):
            for child in targets[offsets[node]:offsets[node + 1]]:
                active[child] = True
    return values
