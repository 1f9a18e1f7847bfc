"""The interval index as it was built before the one-pass build.

The old ``IntervalIndex`` — two DFS passes over numpy scalars, then a
vectorized argsort / cumulative-max merge per node into one small
``(k, 2)`` array each — kept verbatim as the oracle
``test_intervals_reference.py`` holds the shipped build against: same
postorders, same lists, same sizes, same answers and op counts.
"""

from __future__ import annotations

import numpy as np

from repro.dag.graph import Dag
from repro.dag.traversal import topological_order


class ReferenceIntervalIndex:
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
    """

    _EMPTY = np.empty((0, 2), dtype=np.int64)

    def __init__(self, dag: Dag) -> None:
        self._dag = dag
        n = dag.n_nodes
        self._post = np.full(n, -1, dtype=np.int64)
        self._arrays: list[np.ndarray] = [self._EMPTY] * n
        self.ops: int = 0
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        dag = self._dag
        n = dag.n_nodes
        post = self._post
        low = np.full(n, -1, dtype=np.int64)
        visited = np.zeros(n, dtype=bool)
        counter = 0

        # Iterative DFS from every source; first visit claims tree
        # membership. Stack entries are (node, child-iterator-state).
        roots = [int(r) for r in dag.sources()]
        if n and not roots:  # defensive: Dag guarantees acyclicity
            raise ValueError("DAG with nodes but no sources")
        for root in roots:
            if visited[root]:
                continue
            visited[root] = True
            stack: list[tuple[int, int]] = [(root, 0)]
            while stack:
                u, i = stack.pop()
                children = dag.out_neighbors(u)
                advanced = False
                while i < children.size:
                    c = int(children[i])
                    i += 1
                    if not visited[c]:
                        visited[c] = True
                        stack.append((u, i))
                        stack.append((c, 0))
                        advanced = True
                        break
                if not advanced:
                    post[u] = counter
                    counter += 1
        if counter != n:  # load-bearing even under `python -O`
            raise RuntimeError(
                f"interval-index DFS visited {counter} of {n} nodes; "
                "the DAG's source set does not cover every node"
            )

        # Tree-subtree low bound: min postorder over the tree subtree.
        # Because children finish before parents in DFS, the subtree of u
        # occupies a contiguous postorder block ending at post[u]; its
        # start is the minimum of the block, computed by the same DFS
        # ordering: low[u] = min(post[u], low of tree children). We can
        # recover it without storing the tree: a node's tree subtree is
        # exactly the contiguous run of postorders assigned between
        # entering and leaving it, so low equals the smallest postorder
        # not yet assigned when u was entered. Rather than re-running the
        # DFS, note the run is contiguous: low[u] = post[u] - (size of
        # tree subtree) + 1. We track sizes with a second pass below.
        #
        # Simpler and equally O(V + E): recompute via one more DFS that
        # records, for each node, the counter value at entry time.
        visited[:] = False
        entry_counter = np.zeros(n, dtype=np.int64)
        counter = 0
        for root in roots:
            if visited[root]:
                continue
            visited[root] = True
            entry_counter[root] = counter
            stack = [(root, 0)]
            while stack:
                u, i = stack.pop()
                children = dag.out_neighbors(u)
                advanced = False
                while i < children.size:
                    c = int(children[i])
                    i += 1
                    if not visited[c]:
                        visited[c] = True
                        entry_counter[c] = counter
                        stack.append((u, i))
                        stack.append((c, 0))
                        advanced = True
                        break
                if not advanced:
                    counter += 1
        low[:] = entry_counter  # first postorder assigned inside u's subtree

        # Reverse-topological merge over *all* DAG edges, vectorized:
        # each node's list is a sorted (k, 2) int64 array; child lists
        # are concatenated, sorted by lower bound, and coalesced with a
        # cumulative-max sweep (adjacent integer intervals merge).
        arrays = self._arrays
        for u in reversed(topological_order(self._dag)):
            u = int(u)
            own = np.array([[low[u], post[u]]], dtype=np.int64)
            children = dag.out_neighbors(u)
            if children.size == 0:
                arrays[u] = own
                continue
            parts = [own]
            parts.extend(arrays[int(c)] for c in children)
            cat = np.concatenate(parts)
            order = np.argsort(cat[:, 0], kind="stable")
            cat = cat[order]
            hi_cummax = np.maximum.accumulate(cat[:, 1])
            # a new group starts where lo exceeds the running max hi + 1
            new_group = np.empty(cat.shape[0], dtype=bool)
            new_group[0] = True
            new_group[1:] = cat[1:, 0] > hi_cummax[:-1] + 1
            starts = np.flatnonzero(new_group)
            ends = np.append(starts[1:], cat.shape[0]) - 1
            merged = np.column_stack((cat[starts, 0], hi_cummax[ends]))
            arrays[u] = merged

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def postorder(self, u: int) -> int:
        """Postorder number of ``u`` (the key probed by queries)."""
        return int(self._post[u])

    def intervals(self, u: int) -> list[tuple[int, int]]:
        """``u``'s interval list (covers postorders of u ∪ descendants)."""
        return [(int(lo), int(hi)) for lo, hi in self._arrays[u]]

    def interval_array(self, u: int) -> np.ndarray:
        """``u``'s interval list as a sorted ``(k, 2)`` int64 array view."""
        return self._arrays[u]

    def list_lengths(self) -> np.ndarray:
        """Interval count per node, shape ``(V,)``."""
        return np.fromiter(
            (a.shape[0] for a in self._arrays),
            dtype=np.int64,
            count=len(self._arrays),
        )

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
        arr = self._arrays[a]
        if scan:
            for lo, hi in arr:
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
        return sum(a.shape[0] for a in self._arrays)

    @property
    def memory_cells(self) -> int:
        """Resident integer cells: 2 per interval + 1 postorder per node."""
        return 2 * self.total_intervals + self._dag.n_nodes

    def max_list_length(self) -> int:
        """Longest single interval list (fragmentation indicator)."""
        return max((a.shape[0] for a in self._arrays), default=0)
