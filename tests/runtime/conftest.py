"""Shared fixtures for the runtime suite."""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.datalog import Database, Delta, seminaive_evaluate
from repro.datalog.columnar import InternPool
from repro.datalog.units import ProgramSkeleton, build_execution_plan
from repro.runtime import UpdateStreamService
from repro.schedulers import scheduler_registry
from repro.workloads.datalog_workloads import compile_workload

WORKLOADS = (
    "transitive_closure",
    "same_generation",
    "retail_rollup",
    "retail_analytics",
    "points_to",
)


def serve_rounds(
    program, edb, ticks, scheduler="hybrid", workers=2, degraded=None,
):
    """Serve each tick's batches as one verified round; yields the
    service after every round.

    ``degraded`` — tick index → bool — is the breaker's verdict for
    that tick's round in place of the health monitor's: ``True`` runs
    it serially on the service thread.
    """
    svc = UpdateStreamService(
        program, edb, scheduler_registry()[scheduler](), workers=workers
    )
    for i, batches in enumerate(ticks):
        forced = degraded is not None and degraded(i)
        if degraded is not None:
            svc.health.plan_round = lambda: forced
        for delta in batches:
            svc.submit(delta)
        rep = svc.run_round()
        assert rep.materialization_ok
        assert rep.metrics.noop or rep.metrics.degraded is forced
        yield svc


def serve_ticks(*args, **kwargs) -> UpdateStreamService:
    """The service :func:`serve_rounds` ends with."""
    svc = None
    for svc in serve_rounds(*args, **kwargs):
        pass
    return svc


def edb_is_mirror(wl, edb: Database) -> bool:
    """``edb`` holds exactly the facts the stream generator's mirror
    does: every generated batch landed, none twice."""
    facts = edb.as_dict()
    return {p: facts[p] for p in wl._mirror} == wl._mirror


@pytest.fixture(scope="session")
def compiled_workloads():
    """One compiled update per workload, shared across the suite."""
    return {name: compile_workload(name) for name in WORKLOADS}


@pytest.fixture(scope="session")
def expected_new(compiled_workloads):
    """Per workload, row ``seminaive_evaluate`` of the compiled round's
    new EDB: the oracle, independent of the engine that compiled it."""
    return {
        name: seminaive_evaluate(cu.program, cu.edb_new)[0].as_dict()
        for name, cu in compiled_workloads.items()
    }


def miss_values(cu, edb: Database, pool: InternPool) -> list:
    """Every node's value of ``cu.program``'s ``G`` run as a miss over
    ``edb`` in ``pool``: what a committed round over ``edb`` leaves in
    each node, computed without any committed state."""
    plan = build_execution_plan(
        dataclasses.replace(cu, edb_new=edb), pool=pool
    )
    values, _ = plan.execute_serial()
    return [values[node] for node in range(len(plan.units))]


def replay_executed(cu):
    """Run only the nodes ``cu.trace`` executes, over committed values.

    The committed values are :func:`miss_values` of ``cu.edb_old``; the
    round runs, in level order, exactly the nodes
    ``cu.trace.propagation`` executes, every other node keeping its
    committed value, and the EDB nodes diff their two relations rather
    than read a delta. Returns ``(plan, values, observed)``:
    ``observed`` is the set the activation rule picks from what this
    replay saw — the initial tasks and every child of a node that ran
    and emitted a non-empty Z-set.
    """
    pool = InternPool()
    committed = miss_values(cu, cu.edb_old, pool)
    plan = build_execution_plan(cu, pool=pool)
    ProgramSkeleton.stamp(plan, plan.compiled, plan.ctx.baseline, committed)
    trace = cu.trace
    offsets, targets = (a.tolist() for a in trace.dag.out_csr())
    executed = trace.propagation.executed.tolist()
    observed = set(trace.initial_tasks.tolist())
    values = plan.new_store()
    for node in np.argsort(trace.levels, kind="stable").tolist():
        if executed[node]:
            values.set(node, *plan.units[node].run(values))
            if values.changed(node):
                observed.update(targets[offsets[node]:offsets[node + 1]])
    return plan, values, observed


#: Rule shapes that stress a task unit's *read set* — the predicates it
#: materialises beside its Δ-restricted occurrence. All over ``e/2``,
#: ``src/1``, ``blocked/1`` and ``flag/1``.
READ_SET_SHAPES = {
    # the same predicate at the Δ position and at a non-Δ position
    "nonlinear": """
        p(X, Y) :- e(X, Y).
        p(X, Z) :- p(X, Y), p(Y, Z).
    """,
    # the Δ predicate of each rule is the *other* rule's head
    "mutual": """
        odd(X, Y) :- e(X, Y).
        even(X, Z) :- odd(X, Y), e(Y, Z).
        odd(X, Z) :- even(X, Y), e(Y, Z).
    """,
    # negation of a lower-stratum predicate, inside a Δ rule and outside
    "negation": """
        r(X) :- src(X).
        r(Y) :- r(X), e(X, Y), !blocked(Y).
        n(X) :- e(X, Y).
        n(Y) :- e(X, Y).
        unreached(X) :- n(X), !r(X).
    """,
    # a body atom of constants only: read, but binds nothing
    "constants": """
        p(X, Y) :- e(X, Y), flag(1).
        p(X, Z) :- p(X, Y), e(Y, Z), flag(1).
    """,
    # program facts inside a recursive predicate and inside an EDB one:
    # a fixpoint node and an EDB node start from facts no delta brought
    "facts": """
        p(7, 8).
        e(8, 0).
        p(X, Y) :- e(X, Y).
        p(X, Z) :- p(X, Y), e(Y, Z).
    """,
    # an aggregate head over a recursive predicate
    "aggregate": """
        p(X, Y) :- e(X, Y).
        p(X, Z) :- p(X, Y), e(Y, Z).
        fanout(X, count(Y)) :- p(X, Y).
    """,
}


def read_set_edb() -> Database:
    """The initial EDB the read-set shapes run over."""
    db = Database()
    db.relation("e", 2)
    db.relation("src", 1)
    db.relation("blocked", 1)
    db.relation("flag", 1)
    for t in [(0, 1), (1, 2), (2, 3), (3, 1), (4, 5)]:
        db.add_fact("e", t)
    db.add_fact("src", (0,))
    db.add_fact("blocked", (5,))
    db.add_fact("flag", (1,))
    return db


def read_set_stream(program, seed: int = 11, rounds: int = 6) -> list[Delta]:
    """Alternating insert and delete rounds over ``program``'s EDB.

    Even rounds insert, odd rounds delete what an earlier round
    inserted or the initial EDB held, so both Δ directions cross every
    shape; ``flag`` and ``blocked`` toggle along the way. Predicates
    the program never mentions are left alone.
    """
    rng = random.Random(seed)
    edges = [(0, 1), (1, 2), (2, 3), (3, 1), (4, 5)]
    mentioned = program.predicates()
    deltas = []
    for i in range(rounds):
        ops = []
        if i % 2 == 0:
            for _ in range(3):
                t = (rng.randint(0, 6), rng.randint(0, 6))
                ops.append(("insert", "e", t))
                edges.append(t)
            ops.append(("insert", "blocked", (rng.randint(0, 6),)))
            ops.append(("insert", "src", (rng.randint(0, 6),)))
            if i % 4 == 0:
                ops.append(("insert", "flag", (1,)))
        else:
            for _ in range(2):
                t = edges.pop(rng.randrange(len(edges)))
                ops.append(("delete", "e", t))
            ops.append(("delete", "blocked", (5,)))
            if i % 4 == 1:
                ops.append(("delete", "flag", (1,)))
        d = Delta()
        for op, pred, fact in ops:
            if pred in mentioned:
                getattr(d, op)(pred, fact)
        deltas.append(d)
    return deltas
