"""Activation semantics: the active graph ``H`` (Section II-A).

An update to the base data activates some *initial tasks*. When an
activated node executes, each of its out-edges either delivers a changed
output (activating the target) or delivers "no change". A node that
receives at least one change must re-execute; a node all of whose
incoming signals resolve to "no change" is *deactivated* — it never
runs, and its own out-edges deliver no change either. This is why, in
Figure 1, only 532 of the 1,680 descendants of the five initial tasks
re-execute.

A trace fixes the realized outcome per edge with a boolean
``changed_edges`` array: edge ``e = (u, v)`` delivers a change *iff*
``changed_edges[e]`` and ``u`` actually executes. From those flags this
module derives the ground truth:

* :func:`propagate_changes` — the executed set ``W`` (the paper's
  active-node set) and the realized active-edge set ``F``.
* :class:`ActivationState` — the incremental, event-driven form used by
  the simulator and by every served round: resolution counters per
  node, yielding dispatchable tasks and deactivation cascades as
  executions complete.

Both walk plain Python lists, never numpy scalars: the graph is read
through the ``Dag``'s derived int tuples (the out-CSR
:meth:`~repro.dag.graph.Dag.out_lists`, built once per graph), and the
tracker's per-node and per-edge state are lists of its own.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress

import numpy as np

from ..dag.graph import Dag
from ..dag.traversal import topological_order

__all__ = ["propagate_changes", "ActivationState", "PropagationResult"]


@dataclass(frozen=True)
class PropagationResult:
    """Ground-truth outcome of an update, computed in one topo sweep."""

    #: boolean (V,): node will (re-)execute — the active set ``W``
    executed: np.ndarray
    #: boolean (E,): edge carries a realized change — the edge set ``F``
    active_edges: np.ndarray
    #: boolean (V,): node receives at least one changed input or is initial
    activated: np.ndarray

    @property
    def n_active(self) -> int:
        """``|W|`` — how many nodes (re-)execute."""
        return int(self.executed.sum())


def propagate_changes(
    dag: Dag, initial: np.ndarray, changed_edges: np.ndarray
) -> PropagationResult:
    """Forward-propagate change flags to obtain the realized ``H``.

    ``initial`` is an array of node ids that execute unconditionally
    (the updated base predicates / redefined rules). ``changed_edges``
    is boolean over dense edge indices (see :meth:`Dag.edge_index`).
    O(V + E): one sweep of the ``Dag``'s derived out-CSR tuples in its
    derived topological order.
    """
    n = dag.n_nodes
    offsets, targets = dag.out_lists()
    changed = np.asarray(changed_edges, dtype=bool).tolist()
    executed = [False] * n
    for u in np.asarray(initial, dtype=np.int64).tolist():
        executed[u] = True
    activated = executed[:]
    active_edges = [False] * len(targets)

    for u in dag.derived("topological_order", topological_order).tolist():
        if executed[u]:
            for ei in range(offsets[u], offsets[u + 1]):
                if changed[ei]:
                    v = targets[ei]
                    active_edges[ei] = True
                    activated[v] = True
                    executed[v] = True
    return PropagationResult(
        executed=np.array(executed, dtype=bool),
        active_edges=np.array(active_edges, dtype=bool),
        activated=np.array(activated, dtype=bool),
    )


class ActivationState:
    """Event-driven ground truth used by the simulation engine.

    Tracks, per node, how many parents are still *unresolved*. A node is
    resolved when it has executed, or when all its parents resolved
    without delivering it a change (deactivation). Newly dispatchable
    tasks (resolved-parents + activated) surface via the lists returned
    from :meth:`bootstrap` / :meth:`complete`.

    The state is pure bookkeeping — O(1) amortized per edge over the
    whole run — and is *not* charged to any scheduler's overhead. Each
    scheduler must rediscover readiness with its own machinery; this
    class exists so the simulator can validate those discoveries.

    Every per-node and per-edge field is a plain Python list, written in
    place one item at a time; the graph is read through the ``Dag``'s
    derived tuples — :meth:`~repro.dag.graph.Dag.out_lists` for the
    out-CSR and :meth:`~repro.dag.graph.Dag.in_degree_list` for the
    starting counters, which each state copies. The tracker counts the
    tasks still to run, so :meth:`all_done` and :meth:`pending_count`
    are O(1).
    """

    __slots__ = (
        "dag",
        "initial",
        "changed_edges",
        "unresolved_parents",
        "activated",
        "will_execute",
        "executed",
        "resolved",
        "dispatched",
        "quarantined",
        "_offsets",
        "_targets",
        "_pending",
    )

    def __init__(
        self,
        dag: Dag,
        initial: np.ndarray | Sequence[int],
        changed_edges: np.ndarray | Sequence[bool],
    ) -> None:
        n = dag.n_nodes
        self.dag = dag
        self.initial = initial
        #: does edge ``e`` deliver a change once its source executes
        self.changed_edges: list[bool] = np.asarray(
            changed_edges, dtype=bool
        ).tolist()
        self._offsets, self._targets = dag.out_lists()
        self.unresolved_parents: list[int] = list(dag.in_degree_list())
        self.activated = [False] * n
        self.will_execute = [False] * n
        self.executed = [False] * n
        self.resolved = [False] * n
        self.dispatched = [False] * n
        self.quarantined = [False] * n
        for u in np.asarray(initial, dtype=np.int64).tolist():
            self.activated[u] = True
            self.will_execute[u] = True
        #: will_execute and neither executed nor quarantined
        self._pending = self.will_execute.count(True)

    # ------------------------------------------------------------------
    def bootstrap(self) -> tuple[list[int], list[int]]:
        """Resolve all nodes reachable without any execution.

        Returns ``(dispatchable, newly_activated)``: the initially
        runnable tasks and every node activated so far (for t=0
        scheduler notification). Must be called exactly once, before
        any :meth:`complete`.
        """
        dispatchable: list[int] = []
        nodes = range(self.dag.n_nodes)
        newly_activated = list(compress(nodes, self.activated))
        cascade = list(
            compress(nodes, map(operator.not_, self.unresolved_parents))
        )
        self._drain(cascade, dispatchable, newly_activated)
        return dispatchable, newly_activated

    def complete(self, u: int) -> tuple[list[int], list[int]]:
        """Record that task ``u`` finished executing.

        Delivers ``u``'s realized change signals, resolves ``u``, and
        cascades deactivations. Returns ``(dispatchable,
        newly_activated)`` — tasks that just became ground-truth ready,
        and nodes that just received their first change signal.
        """
        if not self.dispatched[u]:
            raise RuntimeError(f"complete({u}) before dispatch")
        if self.executed[u]:
            raise RuntimeError(f"task {u} completed twice")
        self.executed[u] = True
        self.resolved[u] = True
        if not self.quarantined[u]:
            self._pending -= 1

        dispatchable: list[int] = []
        newly_activated: list[int] = []
        cascade: list[int] = []
        changed = self.changed_edges
        activated = self.activated
        will_execute = self.will_execute
        unresolved = self.unresolved_parents
        targets = self._targets
        for ei in range(self._offsets[u], self._offsets[u + 1]):
            v = targets[ei]
            if changed[ei]:
                if not activated[v]:
                    activated[v] = True
                    newly_activated.append(v)
                if not will_execute[v]:
                    will_execute[v] = True
                    self._pending += 1
            left = unresolved[v] - 1
            unresolved[v] = left
            if not left:
                cascade.append(v)
        if cascade:
            self._drain(cascade, dispatchable, newly_activated)
        return dispatchable, newly_activated

    def _drain(
        self,
        cascade: list[int],
        dispatchable: list[int],
        newly_activated: list[int],
    ) -> None:
        """Process nodes whose parents have all resolved."""
        resolved = self.resolved
        dispatched = self.dispatched
        will_execute = self.will_execute
        unresolved = self.unresolved_parents
        offsets = self._offsets
        targets = self._targets
        while cascade:
            v = cascade.pop()
            if resolved[v] or dispatched[v]:
                continue
            if will_execute[v]:
                dispatchable.append(v)  # ready to run; resolves on completion
                continue
            # deactivation: all inputs settled, none changed
            resolved[v] = True
            for ei in range(offsets[v], offsets[v + 1]):
                w = targets[ei]
                left = unresolved[w] - 1
                unresolved[w] = left
                if not left:
                    cascade.append(w)

    # ------------------------------------------------------------------
    # fault-tolerance surface (used only by the engine's fault layer)
    # ------------------------------------------------------------------
    def clear_dispatch(self, u: int) -> None:
        """Undo a dispatch after a failed attempt, for requeue.

        The node becomes ground-truth ready again (its parents stay
        resolved; resolution is monotone). Only the engine's retry path
        may call this.
        """
        if not self.dispatched[u]:
            raise RuntimeError(f"clear_dispatch({u}) without a dispatch")
        if self.executed[u]:
            raise RuntimeError(f"clear_dispatch({u}) after completion")
        self.dispatched[u] = False

    def fail_permanently(self, u: int) -> tuple[list[int], list[int]]:
        """Resolve ``u`` *without* executing it (degrade mode).

        The task's output is permanently stale: every out-edge delivers
        "no change", so descendants whose re-execution would only have
        been triggered through ``u`` are deactivated — those are ``u``'s
        *pure descendants*. Descendants holding change signals from
        other ancestors become dispatchable once their remaining parents
        resolve and still run (with partial inputs).

        Returns ``(dispatchable, suppressed)``: tasks that just became
        ground-truth ready, and nodes newly resolved without execution
        by the cascade (candidates for quarantine reporting; ``u``
        itself is *not* included), in ascending order.
        """
        if not self.dispatched[u]:
            raise RuntimeError(f"fail_permanently({u}) without a dispatch")
        if self.executed[u]:
            raise RuntimeError(f"fail_permanently({u}) after completion")
        if not self.quarantined[u]:
            self._pending -= 1
        self.quarantined[u] = True
        self.resolved[u] = True

        before = self.resolved[:]
        dispatchable: list[int] = []
        cascade: list[int] = []
        unresolved = self.unresolved_parents
        for v in self._targets[self._offsets[u]:self._offsets[u + 1]]:
            unresolved[v] -= 1
            if unresolved[v] == 0:
                cascade.append(v)
        self._drain(cascade, dispatchable, [])
        suppressed = [
            v
            for v, (now, was, ran, out) in enumerate(
                zip(self.resolved, before, self.executed, self.dispatched)
            )
            if now and not (was or ran or out) and v != u
        ]
        return dispatchable, suppressed

    # ------------------------------------------------------------------
    def mark_dispatched(self, u: int) -> None:
        """Validate and record a scheduler's dispatch of ``u``.

        Raises :class:`RuntimeError` if ``u`` is not ground-truth ready —
        this is the simulator's schedule-validity check (no task may run
        before its activated ancestors are done, Section II-A).
        """
        if self.dispatched[u]:
            raise RuntimeError(f"task {u} dispatched twice")
        if not self.will_execute[u]:
            raise RuntimeError(
                f"task {u} dispatched but never activated (spurious re-run)"
            )
        if self.unresolved_parents[u] != 0:
            raise RuntimeError(
                f"task {u} dispatched with {self.unresolved_parents[u]} "
                "unresolved parent(s) — an activated ancestor may still "
                "change its input"
            )
        self.dispatched[u] = True

    def is_ready(self, u: int) -> bool:
        """Ground-truth readiness (without dispatching)."""
        return (
            self.will_execute[u]
            and not self.dispatched[u]
            and self.unresolved_parents[u] == 0
        )

    def all_done(self) -> bool:
        """True when every node that must execute has executed.

        Quarantined nodes (degrade-mode permanent failures) count as
        settled: they will never run, by design.
        """
        return self._pending == 0

    def pending_count(self) -> int:
        """Number of tasks that must still execute."""
        return self._pending
