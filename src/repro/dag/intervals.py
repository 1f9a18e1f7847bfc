"""Interval-list ancestor index (Agrawal/Borgida/Jagadish [4], Nuutila [31]).

This is the data structure at the heart of the production LogicBlox
scheduler (Section II-C): ancestor relationships are encoded as lists of
postorder-number intervals generated from a DFS traversal of the DAG.

Construction
------------
1. One DFS from the source nodes (over ``tolist()``-ed CSR arrays)
   builds a spanning forest and assigns each node a postorder number
   ``post[u]``; within the forest, the subtree of ``u`` occupies the
   contiguous interval ``[low[u], post[u]]``, ``low[u]`` being the
   postorders handed out when ``u`` was entered.
2. Sweeping nodes in postorder — a reverse topological order — each
   node's interval list is the merge of its own tree interval with the
   lists of *all* its DAG children (tree and non-tree): plain Python
   lists of ``(lo, hi)``, concatenated, sorted and coalesced in one
   sweep (overlapping/adjacent intervals merge). A list is freed once
   its last parent has merged it.
3. The finished lists are flat int32 columns ``offsets`` / ``lo`` /
   ``hi``, read-only; ``interval_array(u)`` is a view of them.

The build is a pure function of the ``Dag``, so whoever needs the lists
more than once keeps them on it (:meth:`Dag.derived` — the LogicBlox
scheduler does); ``IntervalIndex(dag)`` is always a cold build.

A node's list then covers exactly the postorder numbers of its
descendants (including itself), so *"is a an ancestor of d"* reduces to
*"does post[d] fall in some interval of a's list"*.

Costs (and why the paper cares)
-------------------------------
The encoding is "usually, but not always, compact": on tree-like DAGs
most lists are a single interval and queries are O(1), but adversarial
DAGs fragment the lists — worst case Θ(V) intervals per node, Θ(V²)
total space, and Θ(n) per query when the scan walks the whole list.
Those are precisely the worst cases the LevelBased scheduler avoids.

The index counts every interval examined in :attr:`IntervalIndex.ops`;
the simulator's overhead model converts those counts into scheduling
time, reproducing Table III's overhead column.
"""

from __future__ import annotations

from array import array
from itertools import chain

import numpy as np

from .graph import Dag

__all__ = ["IntervalIndex", "merge_intervals"]


def merge_intervals(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Coalesce a list of integer intervals; adjacent ones merge too.

    ``[(1, 3), (4, 6)]`` becomes ``[(1, 6)]`` because the intervals hold
    consecutive integers. Input need not be sorted. O(k log k).
    """
    if not intervals:
        return []
    intervals = sorted(intervals)
    out = []
    cur_lo, cur_hi = intervals[0]
    for lo, hi in intervals:
        if lo <= cur_hi + 1:
            if hi > cur_hi:
                cur_hi = hi
        else:
            out.append((cur_lo, cur_hi))
            cur_lo, cur_hi = lo, hi
    out.append((cur_lo, cur_hi))
    return out


class IntervalIndex:
    """Ancestor/descendant oracle built from DFS intervals.

    Parameters
    ----------
    dag:
        The graph to index. Indexing costs O(V + E + total interval
        mass); the mass is O(V²) in the worst case.

    Attributes
    ----------
    ops:
        Running count of intervals examined by queries since the last
        :meth:`reset_ops`. The LogicBlox scheduler reports this to the
        overhead model.
    offsets, lo, hi:
        The lists as flat read-only columns: node ``u``'s intervals are
        ``lo[offsets[u]:offsets[u + 1]]`` / ``hi[...]`` (int32 —
        postorders are ``< V``), both column views of the one ``(Σk, 2)``
        array :meth:`interval_array` slices.
    """

    def __init__(self, dag: Dag) -> None:
        self._dag = dag
        self.ops: int = 0
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        dag = self._dag
        n = dag.n_nodes
        # plain lists: the loops below index scalars, which numpy boxes
        off, adj = (a.tolist() for a in dag.out_csr())
        pending = dag.in_degrees().tolist()  # parents yet to merge a node

        # One iterative DFS from every source, children in id order.
        # ``order`` is the postorder sequence (a node's postorder number
        # is its position in it) — a reverse topological order of the
        # whole DAG. A node's tree subtree takes a contiguous block of
        # postorders ending at its own, so its tree interval starts at
        # ``low``: the postorders handed out when it was entered.
        order: list[int] = []
        low = [0] * n
        visited = bytearray(n)
        nxt = off[:n]  # per node: next out-edge the DFS will look at
        for root in range(n):
            if pending[root]:
                continue
            visited[root] = 1
            low[root] = len(order)
            stack = [root]
            while stack:
                u = stack[-1]
                i, end = nxt[u], off[u + 1]
                while i < end:
                    c = adj[i]
                    i += 1
                    if not visited[c]:
                        visited[c] = 1
                        low[c] = len(order)
                        nxt[u] = i
                        stack.append(c)
                        break
                else:
                    stack.pop()
                    order.append(u)
        if len(order) != n:  # load-bearing even under `python -O`
            raise RuntimeError(
                f"interval-index DFS visited {len(order)} of {n} nodes; "
                "the DAG's source set does not cover every node"
            )

        # Merge over *all* DAG edges, children before parents: a node's
        # list is its tree interval plus its children's lists, sorted
        # and coalesced. Finished lists go to one flat int32 buffer in
        # postorder sequence; the Python list is dropped once the last
        # parent has merged it.
        lists: list = [None] * n  # node → its list while a parent needs it
        counts = [0] * n
        cells = array("i")
        for p, u in enumerate(order):
            merged = [(low[u], p)]
            for c in adj[off[u] : off[u + 1]]:
                merged += lists[c]
                pending[c] -= 1
                if not pending[c]:
                    lists[c] = None
            if len(merged) > 1:
                merged = merge_intervals(merged)
            if pending[u]:
                lists[u] = merged
            counts[u] = len(merged)
            cells.extend(chain.from_iterable(merged))

        # buffer rows → node order (stable: a list keeps its order), so
        # a node's list is one slice of read-only columns
        seq = np.array(order, dtype=np.int64)
        count_of = np.array(counts, dtype=np.int64)
        self._post = np.empty(n, dtype=np.int32)
        self._post[seq] = np.arange(n, dtype=np.int32)
        self.offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(count_of, out=self.offsets[1:])
        rows = np.argsort(np.repeat(seq, count_of[seq]), kind="stable")
        self._flat = np.frombuffer(cells, dtype=np.intc).reshape(-1, 2)[rows]
        for arr in (self._post, self.offsets, self._flat):
            arr.flags.writeable = False
        self.lo = self._flat[:, 0]
        self.hi = self._flat[:, 1]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def postorder(self, u: int) -> int:
        """Postorder number of ``u`` (the key probed by queries)."""
        return int(self._post[u])

    def postorders(self) -> np.ndarray:
        """Postorder number of every node, shape ``(V,)`` (read-only)."""
        return self._post

    def intervals(self, u: int) -> list[tuple[int, int]]:
        """``u``'s interval list (covers postorders of u ∪ descendants)."""
        return [(lo, hi) for lo, hi in self.interval_array(u).tolist()]

    def interval_array(self, u: int) -> np.ndarray:
        """``u``'s interval list as a sorted ``(k, 2)`` int32 array view."""
        return self._flat[self.offsets[u] : self.offsets[u + 1]]

    def list_lengths(self) -> np.ndarray:
        """Interval count per node, shape ``(V,)``."""
        return np.diff(self.offsets)

    def is_ancestor(self, a: int, d: int, scan: bool = True) -> bool:
        """Whether ``a`` is a *proper* ancestor of ``d``.

        ``scan=True`` (default) walks the list linearly, charging one op
        per interval examined — the cost model behind the paper's "an
        interval-list query is constant time in the best case and O(n)
        time in the worst case". ``scan=False`` binary-searches,
        charging O(log k) ops.
        """
        if a == d:
            return False
        key = int(self._post[d])
        arr = self.interval_array(a)
        if scan:
            for lo, hi in arr.tolist():
                self.ops += 1
                if lo <= key <= hi:
                    return True
                if key < lo:
                    # lists are sorted; nothing further can contain key
                    return False
            return False
        # binary search on interval starts
        i = int(np.searchsorted(arr[:, 0], key, side="right"))
        self.ops += max(1, int(arr.shape[0]).bit_length())
        if i == 0:
            return False
        lo, hi = arr[i - 1]
        return bool(lo <= key <= hi)

    def reset_ops(self) -> None:
        """Zero the query-operation counter."""
        self.ops = 0

    # ------------------------------------------------------------------
    # size accounting
    # ------------------------------------------------------------------
    @property
    def total_intervals(self) -> int:
        """Total interval count across all lists (the index's mass)."""
        return int(self.offsets[-1])

    @property
    def memory_cells(self) -> int:
        """Resident integer cells: 2 per interval + 1 postorder per node."""
        return 2 * self.total_intervals + self._dag.n_nodes

    def max_list_length(self) -> int:
        """Longest single interval list (fragmentation indicator)."""
        return int(self.list_lengths().max(initial=0))
