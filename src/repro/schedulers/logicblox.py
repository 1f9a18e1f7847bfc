"""Reimplementation of the production LogicBlox scheduler (Sections II-C, VI-B).

Preprocessing: the ancestor relation of every node is computed and
stored in an interval-list data structure — the DFS-interval index of
:mod:`repro.dag.intervals` built over the *reversed* DAG, so that a
node's list covers the postorder keys of its ancestors. Worst-case
space is O(V²) cells (fragmented lists); tree-like DAGs stay near O(V).

Runtime: the scheduler keeps the **active queue** (activated tasks not
yet handed to a processor) and the **active key set** (postorder keys of
every activated, uncompleted task — the potential blockers). To locate
ready work it *scans* the active queue: each candidate's ancestor
intervals are probed against the active key set; a candidate with no
active ancestor is safe. One operation is charged per queue entry
examined and per interval probed. A probe is O(1) when the list is
compact and O(n) when it fragments; a scan is O(n) probes; repeated
scans give the paper's O(n³) worst case.

Scan policies
-------------
``policy="fresh"`` (default) models the production scheduler the paper
benchmarked: every scheduling round re-scans the *whole* active queue,
hands out at most the tasks the processors can take, and caches nothing
about the entries it found blocked — so they are re-probed every
round, Θ(rounds × queue size) operations. On the wide-shallow traces
(#6, #11) this is the "unnecessary work to find ready-to-run tasks" of
Section VI — exactly the behavior the LogicBlox engineers fixed after
the hybrid experiments exposed it.

``policy="cached"`` models the post-fix scheduler: ready tasks found by
a scan are kept in a ready queue and a re-scan happens only when that
queue runs dry. The hybrid scheduler embeds this variant.

Result-equivalence and cost accounting
--------------------------------------
The ready set either scan discovers is provably the ground-truth ready
set ("no activated-uncompleted ancestor" ⟺ "every parent resolved" —
see ``tasks/activation.py``), and the engine re-validates every
dispatch. The *fresh* policy therefore consumes the engine's
became-ready event feed to locate ready tasks in O(log n) real time,
while charging the full modeled scan — queue entries examined plus one
probe per interval of each candidate's ancestor list. (For a blocked
fragmented candidate the modeled scan could stop at its first hitting
interval; charging the full list is a documented upper bound.) The
*cached* policy performs its scans for real, vectorized — active keys
live in a prefix-summed occupancy array, single-interval candidates are
probed with batched gathers — with identical charging rules.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from ..dag.graph import Dag
from ..dag.intervals import IntervalIndex
from .base import Scheduler, SchedulerContext

__all__ = ["LogicBloxScheduler"]


def _ancestor_index(dag: Dag) -> IntervalIndex:
    """The interval index of ``dag`` reversed: a node's list covers the
    postorder keys of its ancestors.

    A function of the ``Dag`` alone, so it is one of the graph's derived
    values (:meth:`Dag.derived`): every scheduler instance, simulated
    run and served round over one ``Dag`` object reads the same build,
    through its read-only columns only.
    """
    return dag.derived(
        "logicblox.ancestor_intervals",
        lambda d: IntervalIndex(
            Dag(d.n_nodes, d.edge_array()[:, ::-1], validate=False)
        ),
    )


class LogicBloxScheduler(Scheduler):
    """Interval-list production-style scheduler.

    Parameters
    ----------
    policy:
        ``"fresh"`` — re-scan the whole active queue every scheduling
        round (the pre-fix production behavior measured in Tables
        II/III); ``"cached"`` — keep scan results in a ready queue and
        re-scan only when it empties (the post-fix behavior).
    """

    def __init__(self, policy: str = "fresh") -> None:
        super().__init__()
        if policy not in ("fresh", "cached"):
            raise ValueError(f"unknown scan policy {policy!r}")
        self.policy = policy
        self.name = "LogicBlox" if policy == "fresh" else "LogicBlox(cached)"

    # ------------------------------------------------------------------
    def prepare(self, ctx: SchedulerContext) -> None:
        dag = ctx.dag
        ivl = _ancestor_index(dag)
        n = dag.n_nodes
        # node → its slice offsets[u]:offsets[u + 1] of lo/hi, its
        # postorder key in the reversed DAG, its interval-list length
        self._ivl_offsets = ivl.offsets
        self._ivl_lo = ivl.lo
        self._ivl_hi = ivl.hi
        self._key_of = ivl.postorders()
        self._n_ivl = ivl.list_lengths()

        # the modelled cost of building the lists, whoever built them
        self.precompute_ops = n + dag.n_edges + ivl.total_intervals
        self.precompute_memory_cells = ivl.memory_cells

        self._n = n
        self._oracle = ctx.oracle
        if self.policy == "fresh":
            self._seq = 0
            self._in_queue: dict[int, int] = {}  # node -> arrival seq
            self._ready_heap: list[tuple[int, int]] = []  # (seq, node)
            self._queue_probes = 0  # Σ interval-list length over the queue
        else:
            self._queue = np.empty(0, dtype=np.int64)
            self._incoming: list[int] = []
            self._ready: deque[int] = deque()
            self._key_active = np.zeros(n, dtype=np.int64)
            self._prefix: np.ndarray | None = None
            self._n_active_keys = 0
            # event-driven invalidation: a scan that found nothing is not
            # repeated until a completion or activation changes the state
            self._dirty = True

    # ------------------------------------------------------------------
    # event hooks
    # ------------------------------------------------------------------
    def on_activate(self, v: int, t: float) -> None:
        self.ops += 1
        if self.policy == "fresh":
            self._in_queue[v] = self._seq
            self._seq += 1
            self._queue_probes += int(self._n_ivl[v])
            self.note_runtime_memory(
                2 * len(self._in_queue) + len(self._ready_heap)
            )
        else:
            self._incoming.append(v)
            self._key_active[self._key_of[v]] = 1
            self._n_active_keys += 1
            self._prefix = None
            self._dirty = True
            self.note_runtime_memory(
                self._queue.size + len(self._incoming)
                + self._n_active_keys + len(self._ready)
            )

    def on_complete(self, v: int, t: float) -> None:
        self.ops += 1
        if self.policy == "cached":
            self._key_active[self._key_of[v]] = 0
            self._n_active_keys -= 1
            self._prefix = None
            self._dirty = True

    def on_failure(self, v: int, t: float) -> None:
        # Requeue = put the task back in the active queue. Its postorder
        # key never left the active key set (the task never completed),
        # so re-activating via on_activate would double-count the key
        # and permanently block every descendant's scan.
        self.charge_ops(1, "requeue_events")
        if self.policy == "fresh":
            self._in_queue[v] = self._seq
            self._seq += 1
            self._queue_probes += int(self._n_ivl[v])
            self.note_runtime_memory(
                2 * len(self._in_queue) + len(self._ready_heap)
            )
        else:
            self._incoming.append(v)
            self._dirty = True
            self.note_runtime_memory(
                self._queue.size + len(self._incoming)
                + self._n_active_keys + len(self._ready)
            )

    # ------------------------------------------------------------------
    # cached-policy scan machinery (vectorized, also used by Hybrid)
    # ------------------------------------------------------------------
    def _consolidate(self) -> None:
        if self._incoming:
            self._queue = np.concatenate(
                (self._queue, np.asarray(self._incoming, dtype=np.int64))
            )
            self._incoming.clear()
        if self._prefix is None:
            self._prefix = np.zeros(self._n + 1, dtype=np.int64)
            np.cumsum(self._key_active, out=self._prefix[1:])

    def _blocked_and_probes(
        self, cand: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Blocked flag and modeled probe count per candidate.

        The modeled scan probes a candidate's ancestor intervals in
        order, stopping at the first interval holding an active key
        other than the candidate itself; ``probes`` is the number of
        intervals examined. Computed fully vectorized over the ragged
        interval segments (one ``reduceat`` per scan, no Python loop).
        """
        prefix = self._prefix
        if prefix is None:  # _consolidate() always runs first
            raise RuntimeError("scan attempted before _consolidate()")
        lens = self._n_ivl[cand]
        starts = self._ivl_offsets[cand]
        total = int(lens.sum())
        if total == 0:  # pragma: no cover - every node covers itself
            return np.zeros(cand.size, dtype=bool), np.ones(
                cand.size, dtype=np.int64
            )
        seg_first = np.zeros(cand.size, dtype=np.int64)
        np.cumsum(lens[:-1], out=seg_first[1:])
        # ragged arange: flat[j] walks each candidate's interval slice
        flat = np.arange(total, dtype=np.int64) + np.repeat(
            starts - seg_first, lens
        )
        lo = self._ivl_lo[flat]
        hi = self._ivl_hi[flat]
        cnt = prefix[np.minimum(hi + 1, self._n)] - prefix[lo]
        self_key = np.repeat(self._key_of[cand], lens)
        cnt -= ((lo <= self_key) & (self_key <= hi)).astype(np.int64)
        hit = cnt > 0
        # first hit position within each segment (or len when no hit)
        pos_in_seg = np.arange(total, dtype=np.int64) - np.repeat(
            seg_first, lens
        )
        big = np.iinfo(np.int64).max
        hit_pos = np.where(hit, pos_in_seg, big)
        first_hit = np.minimum.reduceat(hit_pos, seg_first)
        blocked = first_hit != big
        probes = np.where(blocked, first_hit + 1, lens)
        return blocked, probes.astype(np.int64)

    # ------------------------------------------------------------------
    def _select_cached(self, max_tasks: int) -> list[int]:
        if (
            not self._ready
            and self._dirty
            and (self._queue.size or self._incoming)
        ):
            self._dirty = False
            self._consolidate()
            if self._queue.size:
                blocked, probes = self._blocked_and_probes(self._queue)
                self.ops += int(self._queue.size) + int(probes.sum())
                for v in self._queue[~blocked]:
                    self._ready.append(int(v))
                self._queue = self._queue[blocked]
        out: list[int] = []
        while self._ready and len(out) < max_tasks:
            out.append(self._ready.popleft())
            self.ops += 1
        return out

    def _select_fresh(self, max_tasks: int) -> list[int]:
        for v in self._oracle.drain_ready_events():
            seq = self._in_queue.get(v)
            if seq is not None:
                heapq.heappush(self._ready_heap, (seq, v))
        if not self._in_queue:
            return []
        # one full modeled scan of the active queue: every entry is
        # examined and its ancestor intervals probed, ready or not
        self.ops += len(self._in_queue) + self._queue_probes
        out: list[int] = []
        while self._ready_heap and len(out) < max_tasks:
            _, v = heapq.heappop(self._ready_heap)
            if v not in self._in_queue:
                continue  # stale entry (already handed out)
            del self._in_queue[v]
            self._queue_probes -= int(self._n_ivl[v])
            out.append(v)
        self.ops += len(out)
        return out

    def select(self, max_tasks: int, t: float) -> list[int]:
        if self.policy == "fresh":
            return self._select_fresh(max_tasks)
        return self._select_cached(max_tasks)
