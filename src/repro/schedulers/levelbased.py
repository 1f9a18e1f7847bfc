"""The LevelBased scheduler (Section III).

Precomputation: the level of every node — the maximum number of edges on
any path from a source — in O(V + E) time and O(V) space.

Runtime: maintain per-level buckets of activated tasks and a cursor ℓ at
the lowest level with unfinished active work. Every active task at
level ℓ is safe to run (Lemma 1: any activated ancestor has a strictly
lower level and lower levels are complete). The cursor advances when
level ℓ has no activated task left to run or finish — with only
level-ℓ tasks ever running, this is exactly the paper's "all processors
are idle and level ℓ is empty" rule, tracked with O(1) per-level pending
counters instead of polling the processor pool (the two conditions
coincide for LevelBased because it never dispatches above ℓ).

Runtime cost: one operation per activation (bucket push), one per
dispatch (bucket pop), one per cursor advance — O(n + L) total
(Theorem 2). Runtime memory: the buckets, O(n).

The hooks read levels from the ``Dag``'s derived tuple
(:attr:`SchedulerContext.levels`), and the buckets and pending
counters are lists indexed by level: no numpy scalar on the per-task
path.
"""

from __future__ import annotations

from .base import Scheduler, SchedulerContext

__all__ = ["LevelBasedScheduler"]


class LevelBasedScheduler(Scheduler):
    """LevelBased greedy scheduler with O(n + L) runtime cost."""

    name = "LevelBased"

    def __init__(self) -> None:
        super().__init__()
        self._levels: tuple[int, ...] = ()
        #: activated, undispatched tasks per level
        self._buckets: list[list[int]] = [[]]
        #: activated, unfinished tasks per level
        self._pending_at: list[int] = [0]
        self._cursor: int = 0
        self._max_level: int = 0
        self._n_queued: int = 0
        self._undispatched: int = 0

    # ------------------------------------------------------------------
    def prepare(self, ctx: SchedulerContext) -> None:
        # the levels are built once per Dag; the modeled cost is the
        # DFS/Kahn sweep either way: O(V + E) ops, O(V) memory.
        self._levels = ctx.levels
        dag = ctx.dag
        self.precompute_ops = dag.n_nodes + dag.n_edges
        self.precompute_memory_cells = dag.n_nodes  # one level per node
        self._cursor = 0
        self._max_level = max(self._levels, default=0)
        self._buckets = [[] for _ in range(self._max_level + 1)]
        self._pending_at = [0] * (self._max_level + 1)
        self._n_queued = 0
        self._undispatched = 0

    def on_activate(self, v: int, t: float) -> None:
        lvl = self._levels[v]
        self._buckets[lvl].append(v)
        self._pending_at[lvl] += 1
        self._undispatched += 1
        self.ops += 1
        self._n_queued += 1
        self.note_runtime_memory(self._n_queued)

    def on_complete(self, v: int, t: float) -> None:
        self._pending_at[self._levels[v]] -= 1
        self.ops += 1

    def on_failure(self, v: int, t: float) -> None:
        # Requeue = re-bucket only. The task never completed, so its
        # level's pending counter still includes it — the barrier that
        # holds the cursor at (or below) level(v) must not be bumped
        # again, or the cursor would deadlock waiting for a second
        # completion that never comes.
        self._buckets[self._levels[v]].append(v)
        self._undispatched += 1
        self._n_queued += 1
        self.charge_ops(1, "requeue_events")
        self.note_runtime_memory(self._n_queued)

    def select(self, max_tasks: int, t: float) -> list[int]:
        out: list[int] = []
        while len(out) < max_tasks:
            bucket = self._buckets[self._cursor]
            if bucket:
                v = bucket.pop()
                out.append(v)
                self._undispatched -= 1
                self._n_queued -= 1
                self.ops += 1
                continue
            # level ℓ bucket is empty: advance only once every activated
            # task at ℓ has also *finished* (the all-idle rule).
            if self._pending_at[self._cursor] > 0:
                break  # level-ℓ stragglers still running — wait
            if self._cursor >= self._max_level or self._undispatched == 0:
                break
            self._cursor += 1
            self.ops += 1
        return out

    @property
    def current_level(self) -> int:
        """The cursor ℓ (exposed for tests and the hybrid scheduler)."""
        return self._cursor
