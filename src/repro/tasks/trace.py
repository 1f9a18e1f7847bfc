"""Job traces: the experiment input format (Table I's rows).

A :class:`JobTrace` bundles everything the paper's C++ simulator read
from a LogicBlox trace file:

* the structure of the computation DAG ``G``;
* per-task metadata — processing time (work), span, execution model,
  and whether the node is a *task* or a plumbing *predicate node*
  ("nodes used to collect inputs and outputs", Figure 1);
* the update: which initial tasks were dirtied, and the realized
  change outcome per edge.

Traces are value objects: loading one precomputes the ground-truth
propagation (the realized active graph ``H``) once; simulations can then
be re-run against the same trace with different schedulers.

Serialization is a single JSON document (schema version 1) so the
synthetic release trace — the paper's job trace #11 analogue — can be
shipped and diffed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Any, NamedTuple

import numpy as np

from ..dag.graph import Dag
from ..dag.levels import compute_levels, num_levels
from .activation import ActivationState, PropagationResult, propagate_changes
from .model import ExecutionModel

__all__ = ["JobTrace"]

_SCHEMA_VERSION = 1


class NodeLists(NamedTuple):
    """A trace's per-node task data as int and float tuples (see
    :attr:`JobTrace.node_lists`)."""

    work: tuple[float, ...]
    span: tuple[float, ...]
    models: tuple[int, ...]


@dataclass
class JobTrace:
    """A scheduling workload: DAG + task metadata + one update.

    Parameters
    ----------
    dag:
        The computation DAG ``G``.
    work:
        Per-node work (processing time on one processor), shape ``(V,)``.
        Plumbing predicate nodes should carry 0.
    initial_tasks:
        Node ids dirtied by the update (execute unconditionally).
    changed_edges:
        Boolean per dense edge index: does this edge deliver a changed
        output *if its source executes*?
    span:
        Per-node span; defaults to ``work`` (sequential tasks).
    models:
        Per-node :class:`ExecutionModel` codes; defaults to SEQUENTIAL.
    is_task:
        Per-node flag distinguishing activatable tasks from plumbing
        predicate nodes; defaults to all-True.
    name / metadata:
        Free-form labeling for reports.
    """

    dag: Dag
    work: np.ndarray
    initial_tasks: np.ndarray
    changed_edges: np.ndarray
    span: np.ndarray | None = None
    models: np.ndarray | None = None
    is_task: np.ndarray | None = None
    name: str = "trace"
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n, e = self.dag.n_nodes, self.dag.n_edges
        self.work = np.asarray(self.work, dtype=np.float64)
        # sorted and unique, as np.unique would make them: a handful of
        # ids go through a set faster (every served round builds a
        # trace), and np.unique's first call maps ≈ 1.7 MB of numpy
        initial = sorted(set(
            np.asarray(self.initial_tasks, dtype=np.int64).ravel().tolist()
        ))
        self.initial_tasks = np.array(initial, dtype=np.int64)
        self.changed_edges = np.asarray(self.changed_edges, dtype=bool)
        if self.span is None:
            self.span = self.work.copy()
        else:
            self.span = np.asarray(self.span, dtype=np.float64)
        if self.models is None:
            self.models = np.full(n, ExecutionModel.SEQUENTIAL, dtype=np.int8)
        else:
            self.models = np.asarray(self.models, dtype=np.int8)
        if self.is_task is None:
            self.is_task = np.ones(n, dtype=bool)
        else:
            self.is_task = np.asarray(self.is_task, dtype=bool)

        if self.work.shape != (n,):
            raise ValueError(f"work must have shape ({n},), got {self.work.shape}")
        if self.span.shape != (n,):
            raise ValueError(f"span must have shape ({n},)")
        if self.models.shape != (n,):
            raise ValueError(f"models must have shape ({n},)")
        if self.is_task.shape != (n,):
            raise ValueError(f"is_task must have shape ({n},)")
        if self.changed_edges.shape != (e,):
            raise ValueError(
                f"changed_edges must have shape ({e},), got "
                f"{self.changed_edges.shape}"
            )
        if (self.work < 0).any() or (self.span < 0).any():
            raise ValueError("work/span must be non-negative")
        if initial and (initial[0] < 0 or initial[-1] >= n):
            raise ValueError("initial task id out of range")

        self._propagation: PropagationResult | None = None
        self._node_lists: NodeLists | None = None

    # ------------------------------------------------------------------
    # derived, cached views
    # ------------------------------------------------------------------
    @property
    def levels(self) -> np.ndarray:
        """Longest-path levels of ``G`` — built once per ``Dag``, read-only."""
        return self.dag.derived("levels", compute_levels)

    @property
    def n_levels(self) -> int:
        """The ``L`` of Table I."""
        return num_levels(self.levels)

    @property
    def propagation(self) -> PropagationResult:
        """Ground-truth realized active graph ``H`` (cached)."""
        if self._propagation is None:
            self._propagation = propagate_changes(
                self.dag, self.initial_tasks, self.changed_edges
            )
        return self._propagation

    @property
    def active_nodes(self) -> np.ndarray:
        """Ids of nodes that will (re-)execute — the set ``W``."""
        return np.flatnonzero(self.propagation.executed)

    @property
    def n_active(self) -> int:
        """``|W|`` over all nodes (tasks and plumbing)."""
        return self.propagation.n_active

    @property
    def n_active_jobs(self) -> int:
        """Activated *task* nodes — Table I's "No. active jobs"."""
        return int(np.sum(self.propagation.executed & self.is_task))

    @property
    def total_active_work(self) -> float:
        """``w``: total work over all nodes that execute."""
        return float(self.work[self.propagation.executed].sum())

    @property
    def node_lists(self) -> NodeLists:
        """``work``, ``span`` and ``models`` as tuples (cached).

        What the simulator reads once per task: a tuple item is a plain
        ``float`` / ``int``, where a numpy scalar read boxes a new one.
        Built on first use; the arrays stay the trace's data.
        """
        if self._node_lists is None:
            self._node_lists = NodeLists(
                tuple(self.work.tolist()),
                tuple(self.span.tolist()),
                tuple(self.models.tolist()),
            )
        return self._node_lists

    def fresh_activation_state(self) -> ActivationState:
        """A new event-driven ground-truth tracker for one simulation."""
        return ActivationState(
            dag=self.dag,
            initial=self.initial_tasks,
            changed_edges=self.changed_edges,
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict[str, Any]:
        """Schema-v1 plain-dict form (lists, not arrays)."""
        return {
            "schema": _SCHEMA_VERSION,
            "name": self.name,
            "metadata": self.metadata,
            "n_nodes": self.dag.n_nodes,
            "edges": self.dag.edge_array().tolist(),
            "node_names": (
                list(self.dag.node_names) if self.dag.node_names else None
            ),
            "work": self.work.tolist(),
            "span": self.span.tolist(),
            "models": self.models.tolist(),
            "is_task": self.is_task.astype(int).tolist(),
            "initial_tasks": self.initial_tasks.tolist(),
            "changed_edges": self.changed_edges.astype(int).tolist(),
        }

    def dump(self, fh: IO[str]) -> None:
        """Write the schema-v1 JSON form to an open text file."""
        json.dump(self.to_json_dict(), fh)

    @classmethod
    def from_json_dict(cls, d: dict[str, Any]) -> "JobTrace":
        """Rebuild a trace from :meth:`to_json_dict` output."""
        if d.get("schema") != _SCHEMA_VERSION:
            raise ValueError(f"unsupported trace schema {d.get('schema')!r}")
        dag = Dag(d["n_nodes"], np.asarray(d["edges"], dtype=np.int64),
                  node_names=d.get("node_names"))
        return cls(
            dag=dag,
            work=np.asarray(d["work"], dtype=np.float64),
            span=np.asarray(d["span"], dtype=np.float64),
            models=np.asarray(d["models"], dtype=np.int8),
            is_task=np.asarray(d["is_task"], dtype=bool),
            initial_tasks=np.asarray(d["initial_tasks"], dtype=np.int64),
            changed_edges=np.asarray(d["changed_edges"], dtype=bool),
            name=d.get("name", "trace"),
            metadata=d.get("metadata", {}),
        )

    @classmethod
    def load(cls, fh: IO[str]) -> "JobTrace":
        """Read a schema-v1 JSON trace from an open text file."""
        return cls.from_json_dict(json.load(fh))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobTrace({self.name!r}, V={self.dag.n_nodes}, "
            f"E={self.dag.n_edges}, initial={self.initial_tasks.size}, "
            f"L={self.n_levels})"
        )
