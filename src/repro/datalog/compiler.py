"""Compile a Datalog update into a computation-DAG job trace.

This closes the loop the paper describes: *"The materialization of the
recursive rules of a Datalog program is represented as a directed
acyclic graph"* whose nodes are tasks and predicate nodes (Figure 1),
and an update to the base data activates some of them.

Construction
------------
There is one DAG model. :func:`build_round_structure` builds the
program's *static* DAG ``G`` from the program alone, whatever the
facts:

* ``("edb", p)`` — a source node per base predicate;
* ``("task", si, ri)`` — rule ``ri`` of the non-recursive stratum
  ``si``;
* ``("pred", p, si)`` — the value of predicate ``p`` once its stratum
  is done — the "predicate nodes used to collect inputs and outputs" of
  Figure 1 (zero work, ``is_task=False``);
* ``("fix", si)`` — the recursive SCC ``si`` as one node, its whole
  semi-naive fixpoint, between the predicates it reads and its own
  predicates' nodes.

:func:`stage_update` stamps a round onto ``G`` without evaluating
anything: the touched EDB nodes are the initial tasks, every task is
charged one unit of work, and the change flags are left for execution
to observe. That staged round is what the plan cache serves and
:mod:`repro.datalog.units` runs.

Activation
----------
A compiled trace is the engine's round with its observed flags.
:func:`compile_update` runs the update through the library engine
(:class:`~repro.datalog.incremental.IncrementalEngine`): a node runs iff
it is an initial task or an input's Z-set was non-empty, and a node
whose Z-set comes out empty stops the cascade. What the round observed
is stamped onto its trace — every out-edge of a node that ran and
changed carries a change flag — so
:func:`repro.tasks.activation.propagate_changes` reveals exactly the
nodes the round ran, including activated tasks whose output turned out
unchanged (they run but stop the cascade).

Task work is ``work_per_derivation × (1 + rows of its value)``, so heavy
joins and deep fixpoints dominate the schedule the way they dominate
real maintenance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..dag.builder import DagBuilder
from ..dag.graph import Dag
from ..tasks.model import ExecutionModel
from ..tasks.trace import JobTrace
from .ast import Program
from .database import Database
from .zset import (
    Delta,
    ZSetDelta,
    apply_zdelta,
    check_program_update,
    effective_zdelta,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..verify.program import ProgramAnalysis

__all__ = [
    "compile_update",
    "prepare_update",
    "RoundStructure",
    "build_round_structure",
    "stage_update",
    "CompiledUpdate",
]


@dataclass
class CompiledUpdate:
    """One round staged onto the static ``G``: its job trace, the program
    and the two EDB snapshots.

    ``node_keys[i]`` is the builder key of DAG node ``i`` — an
    ``("edb", p)``, ``("task", si, ri)``, ``("pred", p, si)`` or
    ``("fix", si)`` tuple. ``structure`` is the static half ``trace``
    was stamped onto, what :mod:`repro.datalog.units` runs. Nothing here
    holds a materialization: a staged round evaluated nothing, and
    :func:`compile_update` returns the engine's round with only its
    observed flags and work stamped on.

    ``edb_old`` is ``None`` once a served round has committed: the
    service releases it there, so the previous EDB generation is freed
    inside the round rather than whenever the caller drops the round's
    report.
    """

    trace: JobTrace
    program: Program
    edb_old: Database | None
    edb_new: Database
    structure: "RoundStructure"

    @property
    def node_keys(self) -> list:
        return self.structure.node_keys


def prepare_update(
    program: Program,
    edb_old: Database,
    delta: "Delta | ZSetDelta",
    apply: Callable[[Database, ZSetDelta], Database] = apply_zdelta,
) -> tuple[ZSetDelta, Database, Database]:
    """What the plan cache's ``compile`` — every round, hence
    :func:`compile_update`'s too — does before anything runs:
    ``(zdelta, edb_old, edb_new)``.

    The update is refused by
    :func:`~repro.datalog.zset.check_program_update`: a fact of a
    derived predicate, or one whose length is not its predicate's
    arity in ``program``, else in ``edb_old``. A
    :class:`Delta` is clamped to its effective weights — redundant ops (inserting a
    present fact, deleting an absent one) and coalesced insert/retract
    pairs cancel here, so a self-cancelling delta compiles exactly like
    an empty one; a :class:`ZSetDelta` is taken as already clamped
    against ``edb_old``. ``apply`` produces ``edb_new`` from it.
    """
    check_program_update(program, edb_old, delta)
    zdelta = (
        delta
        if isinstance(delta, ZSetDelta)
        else effective_zdelta(edb_old, delta)
    )
    return zdelta, edb_old, apply(edb_old, zdelta)


def compile_update(
    program: Program,
    edb_old: Database,
    delta: Delta,
    work_per_derivation: float = 1e-3,
    name: str = "datalog-update",
    # accepted and unused: only benchmarks/e2e/layers.py passes it
    analysis: "ProgramAnalysis | None" = None,
) -> CompiledUpdate:
    """Compile ``(program, edb_old, delta)`` into a schedulable trace:
    the library engine's round on the static ``G``.

    ``edb_old`` is materialized as a miss, then ``delta`` runs through
    :class:`~repro.datalog.incremental.IncrementalEngine`'s one round.
    The result is that round as staged, with what its execution observed
    stamped onto the trace: each node that ran and emitted a non-empty
    Z-set flags its out-edges changed, and a task or fixpoint node costs
    ``work_per_derivation × (1 + rows of its value)``. The trace's
    propagation therefore executes exactly the nodes the round ran.
    Touched predicates ``G`` has no EDB node for — mentioned by no rule
    — activate nothing.
    """
    # incremental → plancache → this module: import at call time
    from .incremental import IncrementalEngine

    plan, values = IncrementalEngine(program, edb_old)._round(delta)
    cu = plan.compiled
    structure = cu.structure
    changed = np.zeros(len(plan.units), dtype=bool)
    work = np.zeros(len(plan.units), dtype=np.float64)
    for node in range(len(plan.units)):
        changed[node] = values.computed(node) and values.changed(node)
        if structure.is_task[node]:
            value = values[node]
            rows = (
                len(value) if isinstance(value, set)
                else sum(map(len, value.values()))
            )
            work[node] = work_per_derivation * (1 + rows)
    return replace(
        cu,
        trace=_round_trace(
            structure,
            work,
            cu.trace.initial_tasks.tolist(),
            changed[structure.edge_sources],
            work_per_derivation,
            name,
        ),
    )


@dataclass
class RoundStructure:
    """The static half of a compiled round: ``G`` and what follows from it.

    A function of the program alone — never of the facts: one DAG model
    for every round. :func:`stage_update` writes one round's initial
    tasks, work and change flags onto it (and :func:`compile_update`
    the flags its execution observed); the plan cache keeps the one
    structure of each program it runs.
    """

    program: Program
    dag: Dag
    #: builder key of DAG node ``i`` (see :class:`CompiledUpdate`)
    node_keys: list
    key_to_id: dict
    is_task: np.ndarray
    models: np.ndarray
    #: source node of every dense edge index
    edge_sources: np.ndarray


def build_round_structure(program: Program) -> RoundStructure:
    """The program's dataflow as the static DAG ``G``.

    A source per EDB predicate; per non-recursive stratum a task per
    rule, reading the nodes that carry its body predicates' final
    values and writing its head's predicate node; per recursive SCC one
    ``("fix", si)`` node between the predicates its rules read outside
    the SCC and the SCC's predicate nodes, whatever depth its fixpoint
    reaches on a given EDB. Labels read ``edb:p``, ``r{ri}@{si}.0``,
    ``p@{si}.0`` and ``fix@{si}``.
    """
    strata = program.depgraph.stratify()
    recursive = program.depgraph.recursive_predicates()

    stratum_of = {p: si for si, comp in enumerate(strata) for p in comp}

    b = DagBuilder()
    edb_set = program.edb_predicates()
    for p in sorted(edb_set):
        b.node(("edb", p), f"edb:{p}")

    def out_node(p: str) -> int:
        """The node carrying ``p``'s final value for later strata."""
        if p in edb_set:
            return b.node(("edb", p))
        si = stratum_of[p]
        return b.node(("pred", p, si), f"{p}@{si}.0")

    for si, stratum_rules in enumerate(program.strata):
        stratum, stratum_set = strata[si], set(strata[si])
        if stratum_set & recursive:
            # the whole fixpoint is one node: it reads every predicate
            # the SCC's rules mention outside the SCC, writes the SCC
            fnode = b.node(("fix", si), f"fix@{si}")
            for _ri, rule in stratum_rules:
                for q, _neg in rule.body_predicates():
                    if q not in stratum_set:
                        b.add_edge(out_node(q), fnode)
            for p in stratum:
                b.add_edge(fnode, out_node(p))
            continue
        # a non-recursive stratum is one predicate its rules do not read
        for p in stratum:
            if p not in edb_set:
                out_node(p)
        for ri, rule in stratum_rules:
            tnode = b.node(("task", si, ri), f"r{ri}@{si}.0")
            for lit in rule.body:
                if lit.atom is not None:
                    b.add_edge(out_node(lit.atom.predicate), tnode)
            b.add_edge(tnode, out_node(rule.head.predicate))

    dag = b.build()
    node_keys = b.keys()
    is_task = np.array(
        [key[0] in ("task", "fix") for key in node_keys], dtype=bool  # type: ignore[index]
    )
    return RoundStructure(
        program=program,
        dag=dag,
        node_keys=node_keys,
        key_to_id={key: nid for nid, key in enumerate(node_keys)},
        is_task=is_task,
        models=np.full(dag.n_nodes, ExecutionModel.SEQUENTIAL, dtype=np.int8),
        edge_sources=np.ascontiguousarray(dag.edge_array()[:, 0]),
    )


def _edb_nodes(structure: RoundStructure, touched: set[str]) -> list[int]:
    """The EDB nodes of the touched predicates ``G`` has a node for."""
    return sorted(
        structure.key_to_id[("edb", p)]
        for p in touched
        if ("edb", p) in structure.key_to_id
    )


def _round_trace(
    structure: RoundStructure,
    work: np.ndarray,
    initial: list[int],
    changed_edges: np.ndarray,
    work_per_derivation: float,
    name: str,
) -> JobTrace:
    """One round's :class:`JobTrace` over the shared ``G``."""
    return JobTrace(
        dag=structure.dag,
        work=work,
        span=work.copy(),
        models=structure.models,
        is_task=structure.is_task,
        initial_tasks=np.array(initial, dtype=np.int64),
        changed_edges=changed_edges,
        name=name,
        metadata={
            "generator": "datalog.compile_update",
            "n_rules": len(structure.program.proper_rules),
            "n_strata": len(structure.program.strata),
            "work_per_derivation": work_per_derivation,
        },
    )


def stage_update(
    structure: RoundStructure,
    edb_old: Database | None,
    edb_new: Database,
    touched: set[str] | None,
    work_per_derivation: float = 1e-3,
    name: str = "datalog-update",
) -> CompiledUpdate:
    """Stamp one round onto the *static* ``structure``, evaluating nothing.

    The initial tasks are the EDB nodes of ``touched`` — or, with
    ``touched=None`` (no previous node values to diff against), every
    source of ``G``, so the whole graph runs. Every task is charged one
    ``work_per_derivation``; the change flags are all ``False`` here and
    observed by execution (``record_round`` stamps them onto the
    verification trace).
    """
    dag = structure.dag
    initial = (
        np.flatnonzero(dag.in_degrees() == 0).tolist()
        if touched is None
        else _edb_nodes(structure, touched)
    )
    return CompiledUpdate(
        trace=_round_trace(
            structure,
            np.where(structure.is_task, work_per_derivation, 0.0),
            initial,
            np.zeros(dag.n_edges, dtype=bool),
            work_per_derivation,
            name,
        ),
        program=structure.program,
        edb_old=edb_old,
        edb_new=edb_new,
        structure=structure,
    )
