"""Compile a Datalog update into a computation-DAG job trace.

This closes the loop the paper describes: *"The materialization of the
recursive rules of a Datalog program is represented as a directed
acyclic graph"* whose nodes are tasks and predicate nodes (Figure 1),
and an update to the base data activates some of them.

Construction
------------
Two from-scratch semi-naive materializations are recorded — one on the
old EDB, one on the updated EDB. Their union unrolls the program's
dataflow into the static DAG ``G``:

* ``("edb", p)`` — a source node per base predicate;
* ``("task", si, k, ri, pos)`` — the rule instance evaluated at
  iteration ``k`` of stratum ``si`` (``pos`` is the Δ-restricted body
  position, None at iteration 0);
* ``("pred", p, si, k)`` — the accumulated state of predicate ``p``
  after iteration ``k`` — the "predicate nodes used to collect inputs
  and outputs" of Figure 1 (zero work, ``is_task=False``).

Edges wire each task to the predicate states it reads and writes, with
pass-through edges chaining successive states of the same predicate.

Activation
----------
A node's realized output *changed* iff the recorded value differs
between the two materializations: for an EDB node, the update touches
it; for a task, its join produced a different fact set (the recorded
output is a pure function of the task's inputs); for a predicate-state
node, the accumulated relation differs. Every out-edge of a changed
node carries a change flag, and the updated EDB nodes are the initial
tasks — :func:`repro.tasks.activation.propagate_changes` then reveals
exactly the re-execution the paper's model prescribes, including
activated tasks whose output turns out unchanged (they run but stop
the cascade).

Task work is ``work_per_derivation × (1 + |join output|)``, so heavy
joins dominate the schedule the way they dominate real maintenance.

The static ``G``
----------------
The construction above derives the graph from the answer — fine for a
simulator input, backwards for a server, and nothing executes it: it is
a trace, the input of the simulator benches that reproduce the paper's
tables. :func:`build_round_structure` without iteration counts builds
the graph that runs instead, from the program alone: the same EDB, task
and predicate-state nodes for every non-recursive stratum, and one
``("fix", si)`` node per recursive SCC that runs the stratum's
semi-naive loop to fixpoint (:mod:`repro.datalog.units`).
:func:`stage_update` stamps a round onto it without evaluating anything:
the touched EDB nodes are the initial tasks and the change flags are
left for execution to observe (see :mod:`repro.datalog.plancache`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..dag.builder import DagBuilder
from ..dag.graph import Dag
from ..tasks.model import ExecutionModel
from ..tasks.trace import JobTrace
from .ast import Program
from .database import Database
from .depgraph import DependencyGraph
from .seminaive import EvaluationTrace, seminaive_evaluate
from .zset import (
    Delta,
    ZSetDelta,
    apply_zdelta,
    check_update,
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
    """The job trace plus the evaluation artifacts behind it.

    ``node_keys[i]`` is the builder key of DAG node ``i`` — an
    ``("edb", p)``, ``("task", si, k, ri, pos)``, ``("pred", p, si, k)``
    or ``("fix", si)`` tuple. ``structure`` is the static half ``trace``
    was stamped onto. A round staged onto the static ``G``
    (:func:`stage_update`) is what :mod:`repro.datalog.units` runs.

    The two materializations exist only for a round
    :func:`compile_update` unrolled from them; a staged round evaluated
    nothing and leaves them ``None``.
    """

    trace: JobTrace
    program: Program
    edb_old: Database
    edb_new: Database
    structure: "RoundStructure"
    db_old: Database | None = None
    db_new: Database | None = None

    @property
    def node_keys(self) -> list:
        return self.structure.node_keys


def _cumulative_states(
    program: Program,
    ev: EvaluationTrace,
    edb: Database,
) -> dict[tuple, frozenset]:
    """State of each predicate after each (stratum, iteration).

    Key ``(p, si, k)`` → frozen set of facts. Iteration −1 denotes the
    state a stratum starts from (facts from earlier strata / EDB).
    """
    rules = program.proper_rules
    current: dict[str, set] = {
        p: set(rel) for p, rel in edb.relations.items()
    }
    for fact_rule in program.facts:
        current.setdefault(fact_rule.head.predicate, set()).add(
            tuple(t.value for t in fact_rule.head.terms)  # type: ignore[union-attr]
        )
    states: dict[tuple, frozenset] = {}
    for si, stratum in enumerate(ev.strata):
        for p in stratum:
            states[(p, si, -1)] = frozenset(current.get(p, set()))
        for k, rec in enumerate(ev.iterations[si]):
            for (ri, _pos), produced in rec.items():
                head = rules[ri].head.predicate
                current.setdefault(head, set()).update(produced)
            for p in stratum:
                states[(p, si, k)] = frozenset(current.get(p, set()))
    return states


def prepare_update(
    program: Program,
    edb_old: Database,
    delta: "Delta | ZSetDelta",
    apply: Callable[[Database, ZSetDelta], Database] = apply_zdelta,
) -> tuple[ZSetDelta, Database, Database]:
    """What :func:`compile_update` and the plan cache's ``compile`` do
    before anything runs: ``(zdelta, edb_old, edb_new)``.

    The update is refused by :func:`~repro.datalog.zset.check_update`:
    a fact of a derived predicate, or one whose length is not its
    predicate's arity in ``program``, else in ``edb_old``. A
    :class:`Delta` is clamped to its effective weights — redundant ops (inserting a
    present fact, deleting an absent one) and coalesced insert/retract
    pairs cancel here, so a self-cancelling delta compiles exactly like
    an empty one; a :class:`ZSetDelta` is taken as already clamped
    against ``edb_old``. ``apply`` produces ``edb_new`` from it.
    """
    arities = {p: rel.arity for p, rel in edb_old.relations.items()}
    arities.update(program.arities())
    check_update(delta, program.idb_predicates(), arities.get)
    zdelta = (
        delta
        if isinstance(delta, ZSetDelta)
        else effective_zdelta(edb_old, delta)
    )
    return zdelta, edb_old, apply(edb_old, zdelta)


_NO_FACTS: frozenset = frozenset()


def compile_update(
    program: Program,
    edb_old: Database,
    delta: Delta,
    work_per_derivation: float = 1e-3,
    name: str = "datalog-update",
    analysis: "ProgramAnalysis | None" = None,
) -> CompiledUpdate:
    """Compile ``(program, edb_old, delta)`` into a schedulable trace.

    Records both materializations, unrolls each stratum to the larger of
    the two iteration counts (:func:`build_round_structure`) and stamps
    what differs between them onto that ``G``: per-node change flags
    (hence per-edge flags), task work, and the touched EDB nodes as the
    initial tasks. Touched predicates ``G`` has no EDB node for —
    mentioned by no rule — activate nothing (the EDB still carries their
    facts through the materialization).

    ``analysis`` is accepted and unused: the unrolled ``G`` is the whole
    program's, whatever the analyzer proves about it (the end-to-end
    benchmark's layer probes still pass it).
    """
    zdelta, edb_old, edb_new = prepare_update(program, edb_old, delta)
    db_old, ev_old = seminaive_evaluate(program, edb_old, record=True)
    db_new, ev_new = seminaive_evaluate(program, edb_new, record=True)
    its_old, its_new = ev_old.iterations, ev_new.iterations
    # The rule instances of an iteration follow from the program — every
    # rule of the stratum at iteration 0, one instance per positive
    # occurrence of a recursive stratum predicate afterwards — so the
    # iteration counts alone decide the structure; the evaluator records
    # no other instance (a Δ predicate is always a stratum-local head,
    # and a stratum is one SCC), which the coverage count below checks.
    structure = build_round_structure(
        program,
        tuple(max(len(a), len(b)) for a, b in zip(its_old, its_new)),
    )
    states_old = _cumulative_states(program, ev_old, edb_old)
    states_new = _cumulative_states(program, ev_new, edb_new)

    n = len(structure.node_keys)
    changed = np.zeros(n, dtype=bool)
    work = np.zeros(n, dtype=np.float64)
    covered = 0
    for nid, key in enumerate(structure.node_keys):
        kind = key[0]
        if kind == "task":
            _, si, k, ri, pos = key
            rec_old = its_old[si][k] if k < len(its_old[si]) else {}
            rec_new = its_new[si][k] if k < len(its_new[si]) else {}
            out_old = rec_old.get((ri, pos), _NO_FACTS)
            out_new = rec_new.get((ri, pos), _NO_FACTS)
            covered += ((ri, pos) in rec_old) + ((ri, pos) in rec_new)
            changed[nid] = out_old != out_new
            work[nid] = work_per_derivation * (
                1 + max(len(out_old), len(out_new))
            )
        elif kind == "pred":
            _, p, si, k = key
            # past a materialization's fixpoint, state stays at its last
            ko = min(k, len(its_old[si]) - 1)
            kn = min(k, len(its_new[si]) - 1)
            old = states_old.get((p, si, ko), states_old.get((p, si, -1)))
            new = states_new.get((p, si, kn), states_new.get((p, si, -1)))
            changed[nid] = old != new
        else:
            # an EDB node changes iff its relation actually changed
            # (deleting an absent fact, or re-inserting a present one,
            # changes nothing)
            changed[nid] = _relation_changed(edb_old, edb_new, key[1])

    if covered != ev_old.total_tasks() + ev_new.total_tasks():
        raise ValueError(
            "an evaluation trace records a rule instance the unrolled "
            "structure has no task node for"
        )
    return CompiledUpdate(
        trace=_round_trace(
            structure,
            work,
            _edb_nodes(structure, zdelta.touched_predicates()),
            changed[structure.edge_sources],
            work_per_derivation,
            name,
        ),
        program=program,
        edb_old=edb_old,
        edb_new=edb_new,
        structure=structure,
        db_old=db_old,
        db_new=db_new,
    )


@dataclass
class RoundStructure:
    """The static half of a compiled round: ``G`` and what follows from it.

    A function of the program and, for an unrolled graph, of how many
    iterations each stratum unrolls to — never of the facts.
    :func:`compile_update` / :func:`stage_update` write one round's
    initial tasks, work and change flags onto it; the plan cache keeps
    the one static structure of each program it runs.
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
    n_strata: int


def build_round_structure(
    program: Program, n_iters: tuple[int, ...] | None = None
) -> RoundStructure:
    """The program's dataflow as the DAG ``G``.

    With ``n_iters`` — iterations per stratum, in stratification order,
    as :func:`compile_update` records them — every recursive stratum is
    unrolled that many times. Without, ``G`` is *static*: one iteration
    per stratum, and a recursive stratum is a single ``("fix", si)``
    node between its inputs and its predicates' ``("pred", p, si, 0)``
    nodes, whatever depth its fixpoint reaches on a given EDB.
    """
    depgraph = DependencyGraph(program)
    strata = depgraph.stratify()
    rules = program.proper_rules
    recursive = depgraph.recursive_predicates()
    static = n_iters is None
    if n_iters is None:
        n_iters = (1,) * len(strata)

    stratum_of: dict[str, int] = {}
    for si, comp in enumerate(strata):
        for p in comp:
            stratum_of[p] = si

    b = DagBuilder()
    edb_preds = sorted(program.edb_predicates())
    for p in edb_preds:
        b.node(("edb", p), f"edb:{p}")
    edb_set = set(edb_preds)

    def out_node(p: str) -> int:
        """The node carrying ``p``'s final value for later strata."""
        if p in edb_set:
            return b.node(("edb", p), f"edb:{p}")
        si = stratum_of[p]
        last = n_iters[si] - 1
        return b.node(("pred", p, si, last), f"{p}@{si}.{last}")

    for si, stratum in enumerate(strata):
        stratum_set = set(stratum)
        stratum_rules = [
            (ri, r) for ri, r in enumerate(rules)
            if r.head.predicate in stratum_set
        ]
        if static and stratum_set & recursive:
            # the whole fixpoint is one node: it reads every predicate
            # the SCC's rules mention outside the SCC, writes the SCC
            fnode = b.node(("fix", si), f"fix@{si}")
            for _ri, rule in stratum_rules:
                for q, _neg in rule.body_predicates():
                    if q not in stratum_set:
                        b.add_edge(out_node(q), fnode)
            for p in stratum:
                b.add_edge(fnode, b.node(("pred", p, si, 0), f"{p}@{si}.0"))
            continue
        for k in range(n_iters[si]):
            # predicate-state nodes after iteration k, with pass-through
            # (EDB predicates keep their single source node instead)
            for p in stratum:
                if p in edb_set:
                    continue
                node = b.node(("pred", p, si, k), f"{p}@{si}.{k}")
                if k > 0:
                    b.add_edge(b.node(("pred", p, si, k - 1)), node)

            # task nodes: every rule of the stratum at iteration 0, then
            # one instance per Δ-restricted recursive occurrence
            if k == 0:
                keys: list[tuple[int, int | None]] = [
                    (ri, None) for ri, _ in stratum_rules
                ]
            else:
                keys = [
                    (ri, pos)
                    for ri, rule in stratum_rules
                    for pos, lit in enumerate(rule.body)
                    if lit.atom is not None
                    and not lit.negated
                    and lit.atom.predicate in stratum_set
                    and lit.atom.predicate in recursive
                ]
            for ri, pos in keys:
                rule = rules[ri]
                tnode = b.node(
                    ("task", si, k, ri, pos), f"r{ri}@{si}.{k}" +
                    (f".d{pos}" if pos is not None else ""),
                )
                # inputs
                for lit in rule.body:
                    if lit.atom is None:
                        continue
                    q = lit.atom.predicate
                    if q in stratum_set and q not in edb_set:
                        if k > 0:
                            b.add_edge(b.node(("pred", q, si, k - 1)), tnode)
                        # at k == 0 a stratum-local predicate holds only
                        # program facts — no dataflow node feeds it
                    else:
                        b.add_edge(out_node(q), tnode)
                # output
                b.add_edge(tnode, b.node(("pred", rule.head.predicate, si, k)))

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
        n_strata=len(strata),
    )


def _relation_changed(old: Database, new: Database, pred: str) -> bool:
    """Whether ``pred`` holds different facts in the two databases."""
    old_rel = old.relations.get(pred)
    new_rel = new.relations.get(pred)
    old_facts = set(old_rel) if old_rel is not None else set()
    new_facts = set(new_rel) if new_rel is not None else set()
    return old_facts != new_facts


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
            "n_strata": structure.n_strata,
            "work_per_derivation": work_per_derivation,
        },
    )


def stage_update(
    structure: RoundStructure,
    edb_old: Database,
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
