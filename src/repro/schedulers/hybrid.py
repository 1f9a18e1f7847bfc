"""The hybrid scheduler — the paper's main result (Sections V, VI-B).

Runs the LevelBased machinery and the production (LogicBlox-style)
machinery *cooperatively over a shared ready-to-run queue*: both
identify ready tasks and either may hand any task to a processor.

Policy (Section VI-B): the LevelBased component is consulted first —
identifying a ready task from the current level costs O(1), so when the
current level still has work, no interval-list scan happens at all.
Only when LevelBased cannot fill the idle processors (it is waiting at
a level barrier while stragglers run) does the hybrid fall back to the
LogicBlox component, whose ancestor scan can release tasks from deeper
levels early.

Consequences, matching Table III:

* on *shallow, wide* DAGs (job traces #6, #11) LevelBased supplies
  nearly all dispatches and the expensive scans almost never run —
  scheduling overhead collapses;
* on *deep* DAGs with stragglers (#7, #10) the scan still runs at level
  boundaries, so overhead approaches the production scheduler's, but
  the makespan keeps the better of both behaviors;
* worst-case guarantees are inherited from LevelBased (Theorem 10's
  formal version with a processor split lives in
  :mod:`repro.schedulers.meta`).

Cost accounting: the hybrid's operation count is the sum of both
components' — we model two scheduler threads and report total scheduler
work, as the paper's "scheduling overhead" column does.
"""

from __future__ import annotations

import numpy as np

from .base import Scheduler, SchedulerContext
from .logicblox import LogicBloxScheduler

__all__ = ["HybridScheduler"]


class HybridScheduler(Scheduler):
    """LevelBased + LogicBlox over a shared ready queue."""

    name = "Hybrid"

    def __init__(self) -> None:
        super().__init__()
        # the shared-queue design makes caching scan results safe, so
        # the embedded production component runs post-fix ("cached")
        self._lbx = LogicBloxScheduler(policy="cached")
        self._dispatched: set[int] = set()

    # ------------------------------------------------------------------
    def prepare(self, ctx: SchedulerContext) -> None:
        # LevelBased side
        self._levels = ctx.levels
        dag = ctx.dag
        self._cursor = 0
        self._max_level = max(self._levels, default=0)
        self._buckets: list[list[int]] = [
            [] for _ in range(self._max_level + 1)
        ]
        self._pending_at = [0] * (self._max_level + 1)
        self._undispatched = 0
        self._lb_ops = 0
        self._n_queued = 0
        # LogicBlox side (its interval lists live on the Dag)
        self._lbx.reset_counters()
        self._lbx.prepare(ctx)
        self._dispatched = set()

        self.precompute_ops = (dag.n_nodes + dag.n_edges) + self._lbx.precompute_ops
        self.precompute_memory_cells = (
            dag.n_nodes + self._lbx.precompute_memory_cells
        )

    # ------------------------------------------------------------------
    def _sync_lbx_ops(self, before: int) -> None:
        self.ops += self._lbx.ops - before

    def on_activate(self, v: int, t: float) -> None:
        lvl = self._levels[v]
        self._buckets[lvl].append(v)
        self._pending_at[lvl] += 1
        self._undispatched += 1
        self._n_queued += 1
        self.ops += 1
        self._lb_ops += 1
        before = self._lbx.ops
        self._lbx.on_activate(v, t)
        self._sync_lbx_ops(before)
        self.note_runtime_memory(
            self._n_queued + self._lbx.runtime_peak_memory_cells
        )

    def on_complete(self, v: int, t: float) -> None:
        self._pending_at[self._levels[v]] -= 1
        self.ops += 1
        self._lb_ops += 1
        before = self._lbx.ops
        self._lbx.on_complete(v, t)
        self._sync_lbx_ops(before)

    def on_failure(self, v: int, t: float) -> None:
        # Requeue on both components without re-counting: the level
        # barrier still includes v (no _pending_at bump — see
        # LevelBasedScheduler.on_failure) and its postorder key is still
        # active on the LogicBlox side. Drop it from the shared
        # dispatched set first, or neither component could release it.
        self._dispatched.discard(v)
        self._buckets[self._levels[v]].append(v)
        self._undispatched += 1
        self._n_queued += 1
        self.charge_ops(1, "requeue_events")
        self._lb_ops += 1
        before = self._lbx.ops
        self._lbx.on_failure(v, t)
        self._sync_lbx_ops(before)
        self.note_runtime_memory(
            self._n_queued + self._lbx.runtime_peak_memory_cells
        )

    # ------------------------------------------------------------------
    def _lb_select(self, max_tasks: int) -> list[int]:
        """The LevelBased component's contribution (O(1) per task)."""
        out: list[int] = []
        while len(out) < max_tasks:
            bucket = self._buckets[self._cursor]
            if bucket:
                v = bucket.pop()
                self.ops += 1
                self._lb_ops += 1
                # skip entries released earlier by the LBX side — and,
                # after an on_failure re-bucket, a stale duplicate of a
                # task this very call already picked up
                if v in self._dispatched or v in out:
                    continue
                out.append(v)
                continue
            if self._pending_at[self._cursor] > 0:
                break  # level barrier: stragglers still running
            if self._cursor >= self._max_level or self._undispatched == 0:
                break
            self._cursor += 1
            self.ops += 1
            self._lb_ops += 1
        return out

    def _lbx_select(self, max_tasks: int, t: float) -> list[int]:
        """The LogicBlox component's contribution (scans on demand)."""
        lbx = self._lbx
        before = lbx.ops
        out: list[int] = []
        # purge entries the LevelBased side already dispatched, so the
        # scan doesn't recheck them (shared-queue removal is O(1)
        # amortized in the real implementation; not charged)
        if not lbx._ready and (lbx._queue.size or lbx._incoming):
            if self._dispatched:
                if lbx._incoming:
                    lbx._incoming = [
                        v for v in lbx._incoming if v not in self._dispatched
                    ]
                if lbx._queue.size:
                    keep = np.fromiter(
                        (v not in self._dispatched for v in lbx._queue),
                        dtype=bool,
                        count=lbx._queue.size,
                    )
                    lbx._queue = lbx._queue[keep]
        while len(out) < max_tasks:
            got = lbx.select(1, t)
            if not got:
                break
            v = got[0]
            if v in self._dispatched or v in out:
                continue
            out.append(v)
        self._sync_lbx_ops(before)
        return out

    def _mark(self, chosen: list[int]) -> None:
        for v in chosen:
            self._dispatched.add(v)
            self._undispatched -= 1
            self._n_queued -= 1

    def select(self, max_tasks: int, t: float) -> list[int]:
        out = self._lb_select(max_tasks)
        self._mark(out)  # before the LBX pass, so it cannot re-release them
        if not out:
            # Only when the LevelBased side is completely dry — i.e. the
            # shared ready queue would otherwise starve — does the
            # production component go looking for deeper-level work.
            # While LevelBased keeps the queue fed, no scan ever runs,
            # which is where the hybrid's overhead savings come from.
            extra = self._lbx_select(max_tasks, t)
            self._mark(extra)
            out.extend(extra)
        return out

    # ------------------------------------------------------------------
    @property
    def component_ops(self) -> dict[str, int]:
        """Operation split between the two cooperating components."""
        return {"levelbased": self._lb_ops, "logicblox": self._lbx.ops}
