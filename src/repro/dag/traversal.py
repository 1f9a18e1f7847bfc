"""Traversal utilities: topological order, reachability, critical path.

These are shared by the simulator (ground-truth readiness), the
LookAhead scheduler (descendant checks), the oracle scheduler (critical
path lower bound), and the workload generators (descendant counts for
Figure 1's statistics).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .graph import Dag

__all__ = [
    "topological_order",
    "descendants",
    "ancestors",
    "reachable_mask",
    "is_ancestor",
    "critical_path_length",
    "critical_path",
    "transitive_closure_sets",
]


def topological_order(dag: Dag) -> np.ndarray:
    """A topological order of all nodes (Kahn), shape ``(V,)``.

    A pure function of the graph: a caller that walks the same ``Dag``
    every round reads it as ``dag.derived("topological_order",
    topological_order)`` — built once per ``Dag``, read-only.
    """
    n = dag.n_nodes
    indeg = dag.in_degrees().copy()
    order = np.empty(n, dtype=np.int64)
    frontier = list(np.flatnonzero(indeg == 0))
    k = 0
    while frontier:
        u = frontier.pop()
        order[k] = u
        k += 1
        for v in dag.out_neighbors(u):
            indeg[v] -= 1
            if indeg[v] == 0:
                frontier.append(int(v))
    if k != n:
        raise ValueError("graph contains a cycle")
    return order


def reachable_mask(
    dag: Dag, starts: Iterable[int], reverse: bool = False
) -> np.ndarray:
    """Boolean mask of nodes reachable from ``starts`` (excl. unreached).

    ``reverse=True`` follows in-edges (i.e. computes ancestors).
    The start nodes themselves are included in the mask. BFS, O(V + E).
    """
    mask = np.zeros(dag.n_nodes, dtype=bool)
    frontier: list[int] = []
    for s in starts:
        if not mask[s]:
            mask[s] = True
            frontier.append(int(s))
    neigh = dag.in_neighbors if reverse else dag.out_neighbors
    while frontier:
        u = frontier.pop()
        for v in neigh(u):
            if not mask[v]:
                mask[v] = True
                frontier.append(int(v))
    return mask


def descendants(dag: Dag, u: int) -> np.ndarray:
    """Sorted ids of all proper descendants of ``u``."""
    mask = reachable_mask(dag, [u])
    mask[u] = False
    return np.flatnonzero(mask)


def ancestors(dag: Dag, u: int) -> np.ndarray:
    """Sorted ids of all proper ancestors of ``u``."""
    mask = reachable_mask(dag, [u], reverse=True)
    mask[u] = False
    return np.flatnonzero(mask)


def is_ancestor(dag: Dag, a: int, d: int) -> bool:
    """Whether ``a`` is a proper ancestor of ``d`` (BFS from ``a``).

    This is the *reference* implementation used to test the interval
    index; it is O(V + E) per query, which is exactly why the LogicBlox
    scheduler precomputes interval lists instead.
    """
    if a == d:
        return False
    return bool(reachable_mask(dag, [a])[d])


def critical_path_length(dag: Dag, weights: np.ndarray | None = None) -> float:
    """Weight of the heaviest path, counting node weights.

    With unit weights this is the number of nodes on the longest chain
    (the ``C`` in the paper's O(w/P + C) bound uses path *time*; pass the
    task durations as ``weights``). Returns 0.0 for an empty graph.
    """
    n = dag.n_nodes
    if n == 0:
        return 0.0
    w = np.ones(n, dtype=np.float64) if weights is None else np.asarray(
        weights, dtype=np.float64
    )
    dist = w.copy()
    for u in topological_order(dag):
        du = dist[u]
        for v in dag.out_neighbors(u):
            cand = du + w[v]
            if cand > dist[v]:
                dist[v] = cand
    return float(dist.max())


def critical_path(dag: Dag, weights: np.ndarray | None = None) -> list[int]:
    """One heaviest path as a list of node ids, source to sink."""
    n = dag.n_nodes
    if n == 0:
        return []
    w = np.ones(n, dtype=np.float64) if weights is None else np.asarray(
        weights, dtype=np.float64
    )
    dist = w.copy()
    pred = np.full(n, -1, dtype=np.int64)
    for u in topological_order(dag):
        du = dist[u]
        for v in dag.out_neighbors(u):
            cand = du + w[v]
            if cand > dist[v]:
                dist[v] = cand
                pred[v] = u
    path = [int(np.argmax(dist))]
    while pred[path[-1]] >= 0:
        path.append(int(pred[path[-1]]))
    path.reverse()
    return path


def transitive_closure_sets(dag: Dag) -> list[set[int]]:
    """Descendant set of each node (including itself).

    Reverse-topological DP: descendants(u) = {u} ∪ union over children.
    O(V^2) space in the worst case — used by tests as an oracle for the
    interval index, and by the paper's space analysis of the LogicBlox
    preprocessing (Section II-C).
    """
    desc: list[set[int]] = [set() for _ in range(dag.n_nodes)]
    for u in reversed(topological_order(dag)):
        s = {int(u)}
        for v in dag.out_neighbors(u):
            s |= desc[v]
        desc[u] = s
    return desc
