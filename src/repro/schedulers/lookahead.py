"""LevelBased with LookAhead — LBL(k) (Sections III and VI-B).

LevelBased's fundamental limitation is the level barrier: it will not
start level ℓ+1 until every active task at level ℓ finishes, so one long
sequential task can idle all other processors (Theorem 9's Θ(ML)
example). LBL(k) keeps LevelBased's cheap bucket machinery but, when
processors would otherwise idle, *looks ahead*: it examines activated
tasks up to ``k`` levels beyond the cursor and runs a bounded
breadth-first search over each candidate's ancestors to check that the
candidate "is not a descendant of either running nodes or nodes that
are yet to be run".

The BFS is bounded below by the cursor: every activated node at a level
below ℓ has already completed (LevelBased invariant), so ancestors at
levels < ℓ can never block and the search prunes there. Each visited
node/edge costs one operation — worst case O(n²) over a run, but cheap
when levels are narrow, which is exactly when LevelBased needs the help
(Section VI-B's observation). The search reads parents from the
``Dag``'s derived in-CSR tuples (:meth:`~repro.dag.graph.Dag.in_lists`).
"""

from __future__ import annotations

from .base import SchedulerContext
from .levelbased import LevelBasedScheduler

__all__ = ["LookaheadScheduler"]


class LookaheadScheduler(LevelBasedScheduler):
    """LBL(k): LevelBased plus a k-level look-ahead readiness probe."""

    #: the in-CSR ``(offsets, parents)``, bound in prepare()
    _in_offsets: tuple[int, ...] = ()
    _in_parents: tuple[int, ...] = ()

    def __init__(self, k: int = 10) -> None:
        super().__init__()
        if k < 0:
            raise ValueError(f"look-ahead depth must be >= 0, got {k}")
        self.k = k
        self.name = f"LBL(k={k})"
        self._activated: set[int] = set()
        self._completed: set[int] = set()

    # ------------------------------------------------------------------
    def prepare(self, ctx: SchedulerContext) -> None:
        super().prepare(ctx)
        self._in_offsets, self._in_parents = ctx.dag.in_lists()
        self._activated = set()
        self._completed = set()

    def on_activate(self, v: int, t: float) -> None:
        super().on_activate(v, t)
        self._activated.add(v)

    def on_complete(self, v: int, t: float) -> None:
        super().on_complete(v, t)
        self._completed.add(v)

    # ------------------------------------------------------------------
    def _blocked(self, candidate: int) -> bool:
        """Bounded upward BFS: does any activated, uncompleted ancestor
        exist? Prunes below the cursor (those levels are complete)."""
        cursor = self._cursor
        levels = self._levels
        offsets, parents = self._in_offsets, self._in_parents
        activated, completed = self._activated, self._completed
        visited = {candidate}
        frontier = [candidate]
        while frontier:
            u = frontier.pop()
            for i in range(offsets[u], offsets[u + 1]):
                p = parents[i]
                self.ops += 1  # one edge traversed
                if p in visited or levels[p] < cursor:
                    continue
                visited.add(p)
                if p in activated and p not in completed:
                    return True
                frontier.append(p)
        self.note_runtime_memory(self._n_queued + len(visited))
        return False

    def select(self, max_tasks: int, t: float) -> list[int]:
        out = super().select(max_tasks, t)
        if len(out) >= max_tasks or self.k == 0:
            return out
        # Processors would idle: probe the next k levels for safe work.
        hi = min(self._cursor + self.k, self._max_level)
        for lvl in range(self._cursor + 1, hi + 1):
            bucket = self._buckets[lvl]
            if not bucket:
                continue
            kept: list[int] = []
            for v in bucket:
                if len(out) >= max_tasks:
                    kept.append(v)
                    continue
                self.ops += 1  # candidate examined
                if self._blocked(v):
                    kept.append(v)
                else:
                    out.append(v)
                    self._undispatched -= 1
                    self._n_queued -= 1
            self._buckets[lvl] = kept
            if len(out) >= max_tasks:
                break
        return out
