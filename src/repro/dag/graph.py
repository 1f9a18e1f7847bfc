"""Core immutable DAG structure backed by CSR adjacency arrays.

The computation DAGs studied in the paper are large (Figure 1's production
DAG has 64,910 nodes and 101,327 edges), so the representation matters.
We store both forward (out-edges) and reverse (in-edges) adjacency in
compressed-sparse-row form using ``numpy`` ``int32`` arrays: two
``(V+1)``-length offset arrays and two ``E``-length target arrays.
Neighbor lookups return array *views* (no copies), per the standard
guidance for memory-lean numerical Python.

The class is deliberately immutable: schedulers, the simulator, and the
level/interval indexes all share one :class:`Dag` instance, and nothing
may mutate it after construction — which is also why what is computed
from the graph alone (levels, interval lists) can live on it: derived
values are pure functions of it (:meth:`Dag.derived`). Use
:class:`repro.dag.builder.DagBuilder` to construct and validate
instances.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Dag"]


def _build_csr(
    n: int, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Build (offsets, adjacency) sorted by source node, then target.

    Runs in O(V + E) using a counting sort over source ids; adjacency
    lists come out sorted by target because we do a stable two-key sort.
    """
    order = np.lexsort((targets, sources))
    src_sorted = sources[order]
    adj = np.ascontiguousarray(targets[order], dtype=np.int32)
    counts = np.bincount(src_sorted, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, adj


class Dag:
    """An immutable directed acyclic graph over nodes ``0..n_nodes-1``.

    Parameters
    ----------
    n_nodes:
        Number of nodes. Node ids are dense integers ``0..n_nodes-1``.
    edges:
        Either an ``(E, 2)`` integer array or an iterable of
        ``(u, v)`` pairs meaning *output of u feeds v*.
    node_names:
        Optional sequence of human-readable names (e.g. Datalog predicate
        names); used by the DOT exporter and debugging output only.
    validate:
        When true (default), check edge endpoints are in range and that
        the graph is acyclic. Construction from trusted callers (e.g. the
        builder, which has already validated) may pass ``False``.

    Notes
    -----
    Acyclicity is verified with Kahn's algorithm in O(V + E). Duplicate
    edges are rejected: the activation semantics treat an edge as *the*
    dataflow channel between two tasks, and a duplicated channel would
    double-count change signals.

    Immutability covers :meth:`derived` too: the values kept there are
    pure functions of the graph, built at most once per object.
    """

    __slots__ = (
        "_n",
        "_out_offsets",
        "_out_adj",
        "_in_offsets",
        "_in_adj",
        "_node_names",
        "_derived",
    )

    def __init__(
        self,
        n_nodes: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        node_names: Sequence[str] | None = None,
        validate: bool = True,
    ) -> None:
        if n_nodes < 0:
            raise ValueError(f"n_nodes must be non-negative, got {n_nodes}")
        self._n = int(n_nodes)

        edge_arr = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64
        )
        if edge_arr.size == 0:
            edge_arr = edge_arr.reshape(0, 2)
        if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
            raise ValueError(f"edges must be (E, 2)-shaped, got {edge_arr.shape}")

        srcs = edge_arr[:, 0]
        tgts = edge_arr[:, 1]
        if validate and edge_arr.size:
            if srcs.min() < 0 or tgts.min() < 0:
                raise ValueError("edge endpoints must be non-negative")
            if max(srcs.max(), tgts.max()) >= self._n:
                raise ValueError(
                    f"edge endpoint out of range for n_nodes={self._n}"
                )
            if np.any(srcs == tgts):
                bad = int(srcs[srcs == tgts][0])
                raise ValueError(f"self-loop at node {bad}")

        self._out_offsets, self._out_adj = _build_csr(self._n, srcs, tgts)
        self._in_offsets, self._in_adj = _build_csr(self._n, tgts, srcs)
        for arr in (
            self._out_offsets, self._out_adj, self._in_offsets, self._in_adj
        ):
            arr.flags.writeable = False

        if validate:
            self._check_no_duplicate_edges()
            self._check_acyclic()

        if node_names is not None and len(node_names) != self._n:
            raise ValueError(
                f"node_names has {len(node_names)} entries for {self._n} nodes"
            )
        self._node_names = tuple(node_names) if node_names is not None else None
        self._derived: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # validation helpers
    # ------------------------------------------------------------------
    def _check_no_duplicate_edges(self) -> None:
        for u in range(self._n):
            row = self.out_neighbors(u)
            if row.size > 1 and np.any(row[1:] == row[:-1]):
                dup = int(row[np.flatnonzero(row[1:] == row[:-1])[0]])
                raise ValueError(f"duplicate edge ({u}, {dup})")

    def _check_acyclic(self) -> None:
        indeg = self.in_degrees().copy()
        stack = list(np.flatnonzero(indeg == 0))
        seen = 0
        while stack:
            u = stack.pop()
            seen += 1
            for v in self.out_neighbors(u):
                indeg[v] -= 1
                if indeg[v] == 0:
                    stack.append(int(v))
        if seen != self._n:
            raise ValueError("graph contains a cycle")

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes (``|V|``)."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Number of edges (``|E|``)."""
        return int(self._out_adj.size)

    @property
    def node_names(self) -> tuple[str, ...] | None:
        """Optional human-readable node names (or ``None``)."""
        return self._node_names

    def name_of(self, u: int) -> str:
        """Name of node ``u`` (falls back to ``"n<u>"``)."""
        if self._node_names is not None:
            return self._node_names[u]
        return f"n{u}"

    def out_neighbors(self, u: int) -> np.ndarray:
        """Children of ``u`` as a sorted read-only array view."""
        return self._out_adj[self._out_offsets[u] : self._out_offsets[u + 1]]

    def in_neighbors(self, u: int) -> np.ndarray:
        """Parents of ``u`` as a sorted read-only array view."""
        return self._in_adj[self._in_offsets[u] : self._in_offsets[u + 1]]

    def out_degree(self, u: int) -> int:
        """Number of children of ``u``."""
        return int(self._out_offsets[u + 1] - self._out_offsets[u])

    def in_degree(self, u: int) -> int:
        """Number of parents of ``u``."""
        return int(self._in_offsets[u + 1] - self._in_offsets[u])

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every node, shape ``(V,)``."""
        return np.diff(self._out_offsets).astype(np.int64)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every node, shape ``(V,)``."""
        return np.diff(self._in_offsets).astype(np.int64)

    def sources(self) -> np.ndarray:
        """Nodes with in-degree 0 — the base-data predicates."""
        return np.flatnonzero(self.in_degrees() == 0)

    def sinks(self) -> np.ndarray:
        """Nodes with out-degree 0 — the final outputs/views."""
        return np.flatnonzero(self.out_degrees() == 0)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``(u, v)`` exists (binary search, O(log d))."""
        row = self.out_neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < row.size and int(row[i]) == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over all edges ``(u, v)`` in source order."""
        for u in range(self._n):
            for v in self.out_neighbors(u):
                yield u, int(v)

    def edge_array(self) -> np.ndarray:
        """All edges as an ``(E, 2)`` int64 array (a copy)."""
        srcs = np.repeat(np.arange(self._n, dtype=np.int64), self.out_degrees())
        return np.column_stack((srcs, self._out_adj.astype(np.int64)))

    def edge_index(self, u: int, v: int) -> int:
        """Position of edge ``(u, v)`` in the CSR out-adjacency.

        Edge indices give a dense id space ``0..E-1`` used by the
        activation machinery to store per-edge change flags.
        """
        row = self.out_neighbors(u)
        i = int(np.searchsorted(row, v))
        if i >= row.size or int(row[i]) != v:
            raise KeyError(f"no edge ({u}, {v})")
        return int(self._out_offsets[u]) + i

    def out_edge_range(self, u: int) -> tuple[int, int]:
        """Half-open range of edge indices for ``u``'s out-edges."""
        return int(self._out_offsets[u]), int(self._out_offsets[u + 1])

    def out_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The forward CSR arrays ``(offsets, targets)``, read-only.

        ``targets[offsets[u]:offsets[u + 1]]`` are ``u``'s children, and
        the positions in ``targets`` are the dense edge indices. A whole
        graph walk indexes :meth:`out_lists` instead of calling
        :meth:`out_neighbors` per node.
        """
        return self._out_offsets, self._out_adj

    def out_lists(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """:meth:`out_csr` as two tuples of ints, built once per graph.

        What a per-node walk indexes: a tuple item is a plain ``int``,
        where reading a numpy scalar boxes a new one every time. Kept
        under :meth:`derived`, so every run over this object shares one
        build, and tuples cannot be written through.
        """
        return self.derived(
            "out_lists",
            lambda d: (tuple(d._out_offsets.tolist()),
                       tuple(d._out_adj.tolist())),
        )

    def in_lists(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The reverse CSR as tuples of ints ``(offsets, sources)``.

        ``sources[offsets[v]:offsets[v + 1]]`` are ``v``'s parents,
        sorted — :meth:`in_neighbors` without a numpy scalar per
        parent. Built once per graph, like :meth:`out_lists`.
        """
        return self.derived(
            "in_lists",
            lambda d: (tuple(d._in_offsets.tolist()),
                       tuple(d._in_adj.tolist())),
        )

    def in_degree_list(self) -> tuple[int, ...]:
        """:meth:`in_degrees` as a tuple of ints, built once per graph."""
        return self.derived(
            "in_degree_list", lambda d: tuple(d.in_degrees().tolist())
        )

    # ------------------------------------------------------------------
    # pre-computation
    # ------------------------------------------------------------------
    def derived(self, key: str, build: Callable[[Dag], Any]) -> Any:
        """``build(self)``, computed on first use and kept under ``key``.

        The paper's per-DAG pre-computation (Section II-C): levels, the
        ancestor interval lists — anything that is a function of the
        graph alone — is built once for every scheduler, simulated run
        and served round over this object. ``build`` must be pure; two
        threads racing on a cold key may both run it, and both get the
        value that was stored first. The value is shared: a numpy array
        is handed out read-only, and callers must not mutate anything
        else they get. Derived values are not part of ``==`` / ``hash``
        and a copy built from :meth:`edge_array` starts with none.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = build(self)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            return self._derived.setdefault(key, value)

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dag(n_nodes={self._n}, n_edges={self.n_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._out_offsets, other._out_offsets)
            and np.array_equal(self._out_adj, other._out_adj)
        )

    def __hash__(self) -> int:
        return hash((self._n, self.n_edges))
