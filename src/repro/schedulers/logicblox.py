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
*cached* policy performs its scans for real, with identical charging
rules, in one of two passes picked by the queue's mass — the interval
count of its candidates' lists together. Up to
:data:`SCALAR_SCAN_MAX` intervals (every served round of a shipped
program) it walks the candidates in Python over zero-copy memoryviews
of the index's columns, bisecting the sorted active keys, and stops at
each candidate's first hit; above it (the deep Table-I traces) one
vectorized pass gathers every interval at once and counts active keys
with ``np.searchsorted``. Both return the same ready order, blocked
queue and ops.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque
from typing import NamedTuple

import numpy as np

from ..dag.graph import Dag
from ..dag.intervals import IntervalIndex
from .base import Scheduler, SchedulerContext

__all__ = ["LogicBloxScheduler", "SCALAR_SCAN_MAX"]

#: the largest queue mass (Σ interval-list length over the candidates)
#: a cached scan walks in Python; a heavier queue takes the vectorized
#: pass. Set just below the measured crossover:
#: ``scripts/size_scan_passes.py`` times both passes on every state
#: Hybrid scans on ``sim_sched``'s deep trace (job trace #5's shape):
#: the walk costs ≈ 2 µs at mass 4 and ≈ 0.35 µs more per interval, the
#: vectorized pass 45–70 µs at any mass up to 512, and they cross at a
#: mass of ≈ 210 (table in DESIGN §18). Served rounds scan a mass of
#: at most 7; the deep trace a median of ≈ 126, up to ≈ 1 000.
SCALAR_SCAN_MAX = 192


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


class _Columns(NamedTuple):
    """What the scans read of :func:`_ancestor_index`, kept on the Dag.

    ``lengths`` is the interval count per node (read-only); the four
    memoryviews are zero-copy views of the index's read-only columns,
    which the scalar walk indexes for a plain ``int`` per read.
    """

    lengths: np.ndarray
    offsets: memoryview
    lo: memoryview
    hi: memoryview
    key: memoryview


def _columns(dag: Dag) -> _Columns:
    def build(d: Dag) -> _Columns:
        ivl = _ancestor_index(d)
        lengths = ivl.list_lengths()
        lengths.flags.writeable = False
        return _Columns(
            lengths, memoryview(ivl.offsets), memoryview(ivl.lo),
            memoryview(ivl.hi), memoryview(ivl.postorders()),
        )

    return dag.derived("logicblox.scan_columns", build)


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
        # node → its slice offsets[u]:offsets[u + 1] of lo/hi, its
        # postorder key in the reversed DAG, its interval-list length
        self._ivl = ivl
        self._cols = cols = _columns(dag)
        self._n_ivl = cols.lengths

        # the modelled cost of building the lists, whoever built them
        self.precompute_ops = dag.n_nodes + dag.n_edges + ivl.total_intervals
        self.precompute_memory_cells = ivl.memory_cells

        self._oracle = ctx.oracle
        if self.policy == "fresh":
            self._seq = 0
            self._in_queue: dict[int, int] = {}  # node -> arrival seq
            self._ready_heap: list[tuple[int, int]] = []  # (seq, node)
            self._queue_probes = 0  # Σ interval-list length over the queue
        else:
            #: activated (or requeued) tasks not yet found ready, in
            #: arrival order
            self._queue: list[int] = []
            self._ready: deque[int] = deque()
            #: postorder keys of the activated, uncompleted tasks, sorted
            self._active: list[int] = []
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
            self._queue.append(v)
            active, key = self._active, self._cols.key[v]
            i = bisect_left(active, key)
            if i == len(active) or active[i] != key:
                active.insert(i, key)
            self._dirty = True
            self.note_runtime_memory(
                len(self._queue) + len(active) + len(self._ready)
            )

    def on_complete(self, v: int, t: float) -> None:
        self.ops += 1
        if self.policy == "cached":
            active, key = self._active, self._cols.key[v]
            i = bisect_left(active, key)
            if i < len(active) and active[i] == key:
                del active[i]
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
            self._queue.append(v)
            self._dirty = True
            self.note_runtime_memory(
                len(self._queue) + len(self._active) + len(self._ready)
            )

    # ------------------------------------------------------------------
    # cached-policy scan (also used by Hybrid)
    # ------------------------------------------------------------------
    # The modeled scan probes each candidate's ancestor intervals in
    # order and stops at the first one holding an active key other than
    # the candidate's own; its probes are the intervals examined. Both
    # passes return (ready, blocked, probes): the candidates in queue
    # order, split, and the probes summed.
    def _walk(self, queue: list[int]) -> tuple[list[int], list[int], int]:
        """The scan in Python: bisect the sorted active keys per interval."""
        offsets, los, his, key_of = self._cols[1:]
        active = self._active
        n_active = len(active)
        ready: list[int] = []
        blocked: list[int] = []
        probes = 0
        for v in queue:
            own = key_of[v]
            first, end = offsets[v], offsets[v + 1]
            for j in range(first, end):
                i = bisect_left(active, los[j])
                if i < n_active and active[i] == own:
                    i += 1  # the candidate's own key blocks nothing
                if i < n_active and active[i] <= his[j]:
                    probes += j - first + 1
                    blocked.append(v)
                    break
            else:
                probes += end - first
                ready.append(v)
        return ready, blocked, probes

    def _sweep(self, queue: list[int]) -> tuple[list[int], list[int], int]:
        """The scan as one vectorized pass over the ragged interval
        segments: a batched gather, ``np.searchsorted`` counts of the
        active keys per interval, one ``reduceat`` for the first hits."""
        ivl = self._ivl
        cand = np.array(queue, dtype=np.int64)
        lens = self._n_ivl[cand]
        seg_first = np.zeros(cand.size, dtype=np.int64)
        np.cumsum(lens[:-1], out=seg_first[1:])
        total = int(seg_first[-1] + lens[-1])
        # ragged arange: flat[j] walks each candidate's interval slice
        flat = np.arange(total, dtype=np.int64) + np.repeat(
            ivl.offsets[cand] - seg_first, lens
        )
        lo = ivl.lo[flat]
        hi = ivl.hi[flat]
        keys = np.array(self._active, dtype=np.int64)
        cnt = np.searchsorted(keys, hi, side="right") - np.searchsorted(
            keys, lo, side="left"
        )
        # a candidate is activated and not completed: its own key is
        # active, and blocks nothing
        own = np.repeat(ivl.postorders()[cand], lens)
        cnt -= (lo <= own) & (own <= hi)
        # first hit position within each segment (or len when no hit)
        pos_in_seg = np.arange(total, dtype=np.int64) - np.repeat(
            seg_first, lens
        )
        big = np.iinfo(np.int64).max
        first_hit = np.minimum.reduceat(
            np.where(cnt > 0, pos_in_seg, big), seg_first
        )
        hit = first_hit != big
        probes = int(np.where(hit, first_hit + 1, lens).sum())
        return cand[~hit].tolist(), cand[hit].tolist(), probes

    def _scan(self) -> None:
        """Examine the whole queue once, by the pass its mass picks."""
        queue, offsets = self._queue, self._cols.offsets
        mass = 0
        for v in queue:
            mass += offsets[v + 1] - offsets[v]
            if mass > SCALAR_SCAN_MAX:
                break
        scan = self._walk if mass <= SCALAR_SCAN_MAX else self._sweep
        ready, self._queue, probes = scan(queue)
        self.ops += len(queue) + probes
        self._ready.extend(ready)

    def _select_cached(self, max_tasks: int) -> list[int]:
        if not self._ready and self._dirty and self._queue:
            self._dirty = False
            self._scan()
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
