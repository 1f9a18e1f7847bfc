"""The activation tracker as it was before it walked plain lists.

The old :class:`~repro.tasks.activation.ActivationState` body — seven
numpy ``(V,)`` arrays and the numpy changed-edge flags, indexed one
scalar at a time, with ``np.flatnonzero`` masks for the bootstrap
cascade, the suppressed set and the pending count — kept verbatim as
the oracle ``test_activation_reference.py`` holds the shipped tracker
against: the same ``(dispatchable, newly_activated)`` lists in order,
the same suppressed sets, readiness, completion and error messages.
Nothing under ``src`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dag.graph import Dag


@dataclass
class ReferenceActivationState:
    """Event-driven ground truth used by the simulation engine.

    Tracks, per node, how many parents are still *unresolved*. A node is
    resolved when it has executed, or when all its parents resolved
    without delivering it a change (deactivation). Newly dispatchable
    tasks (resolved-parents + activated) surface via the lists returned
    from :meth:`complete` / :meth:`start`.

    The state is pure bookkeeping — O(1) amortized per edge over the
    whole run — and is *not* charged to any scheduler's overhead. Each
    scheduler must rediscover readiness with its own machinery; this
    class exists so the simulator can validate those discoveries.
    """

    dag: Dag
    initial: np.ndarray
    changed_edges: np.ndarray
    unresolved_parents: np.ndarray = field(init=False)
    activated: np.ndarray = field(init=False)
    will_execute: np.ndarray = field(init=False)
    executed: np.ndarray = field(init=False)
    resolved: np.ndarray = field(init=False)
    dispatched: np.ndarray = field(init=False)
    quarantined: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n = self.dag.n_nodes
        self.unresolved_parents = self.dag.in_degrees().copy()
        self.activated = np.zeros(n, dtype=bool)
        self.will_execute = np.zeros(n, dtype=bool)
        self.executed = np.zeros(n, dtype=bool)
        self.resolved = np.zeros(n, dtype=bool)
        self.dispatched = np.zeros(n, dtype=bool)
        self.quarantined = np.zeros(n, dtype=bool)
        init = np.asarray(self.initial, dtype=np.int64)
        self.activated[init] = True
        self.will_execute[init] = True

    # ------------------------------------------------------------------
    def bootstrap(self) -> tuple[list[int], list[int]]:
        """Resolve all nodes reachable without any execution.

        Returns ``(dispatchable, newly_activated)``: the initially
        runnable tasks and every node activated so far (for t=0
        scheduler notification). Must be called exactly once, before
        any :meth:`complete`.
        """
        dispatchable: list[int] = []
        newly_activated = [int(u) for u in np.flatnonzero(self.activated)]
        cascade = [
            int(u) for u in np.flatnonzero(self.unresolved_parents == 0)
        ]
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

        dispatchable: list[int] = []
        newly_activated: list[int] = []
        lo, hi = self.dag.out_edge_range(u)
        cascade: list[int] = []
        for ei in range(lo, hi):
            v = int(self.dag._out_adj[ei])  # noqa: SLF001
            if self.changed_edges[ei]:
                if not self.activated[v]:
                    self.activated[v] = True
                    newly_activated.append(v)
                self.will_execute[v] = True
            self.unresolved_parents[v] -= 1
            if self.unresolved_parents[v] == 0:
                cascade.append(v)
        self._drain(cascade, dispatchable, newly_activated)
        return dispatchable, newly_activated

    def _drain(
        self,
        cascade: list[int],
        dispatchable: list[int],
        newly_activated: list[int],
    ) -> None:
        """Process nodes whose parents have all resolved."""
        while cascade:
            v = cascade.pop()
            if self.resolved[v] or self.dispatched[v]:
                continue
            if self.will_execute[v]:
                dispatchable.append(v)  # ready to run; resolves on completion
                continue
            # deactivation: all inputs settled, none changed
            self.resolved[v] = True
            lo, hi = self.dag.out_edge_range(v)
            for ei in range(lo, hi):
                w = int(self.dag._out_adj[ei])  # noqa: SLF001
                self.unresolved_parents[w] -= 1
                if self.unresolved_parents[w] == 0:
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
        itself is *not* included).
        """
        if not self.dispatched[u]:
            raise RuntimeError(f"fail_permanently({u}) without a dispatch")
        if self.executed[u]:
            raise RuntimeError(f"fail_permanently({u}) after completion")
        self.quarantined[u] = True
        self.resolved[u] = True

        before = self.resolved.copy()
        dispatchable: list[int] = []
        cascade: list[int] = []
        lo, hi = self.dag.out_edge_range(u)
        for ei in range(lo, hi):
            v = int(self.dag._out_adj[ei])  # noqa: SLF001
            self.unresolved_parents[v] -= 1
            if self.unresolved_parents[v] == 0:
                cascade.append(v)
        self._drain(cascade, dispatchable, [])
        suppressed = [
            int(v)
            for v in np.flatnonzero(
                self.resolved & ~before & ~self.executed & ~self.dispatched
            )
            if v != u
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
            bool(self.will_execute[u])
            and not self.dispatched[u]
            and self.unresolved_parents[u] == 0
        )

    def all_done(self) -> bool:
        """True when every node that must execute has executed.

        Quarantined nodes (degrade-mode permanent failures) count as
        settled: they will never run, by design.
        """
        return bool(
            np.all(~self.will_execute | self.executed | self.quarantined)
        )

    def pending_count(self) -> int:
        """Number of tasks that must still execute."""
        return int(
            np.sum(self.will_execute & ~self.executed & ~self.quarantined)
        )
