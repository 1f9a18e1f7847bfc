"""Tests for the Datalog-update → computation-DAG compiler.

A compiled trace is the engine's round on the static ``G`` with the
change flags its execution observed. The oracles here are independent
of the engine, the plan cache and :func:`compile_update`: row
:func:`seminaive_evaluate`, and the round replayed node by node over
the committed values a miss leaves (``replay_executed``).
"""

from functools import partial

import numpy as np
import pytest

from repro.datalog import Database, Delta, parse_program, seminaive_evaluate
from repro.datalog.compiler import compile_update
from repro.datalog.plancache import CompiledProgramCache
from repro.runtime.workloads_live import live_workload
from repro.schedulers import LevelBasedScheduler, scheduler_registry
from repro.sim import simulate
from repro.workloads.datalog_workloads import DATALOG_WORKLOADS
from repro.workloads.generated import UpdateStream, stratified_program

from ..runtime.conftest import (
    READ_SET_SHAPES,
    read_set_edb,
    read_set_stream,
    replay_executed,
)

TC = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
"""


def chain_edb(n):
    db = Database()
    for i in range(n - 1):
        db.add_fact("edge", (i, i + 1))
    return db


def test_updates_to_idb_rejected():
    with pytest.raises(ValueError, match="derived"):
        compile_update(
            parse_program(TC), chain_edb(3), Delta().insert("path", (0, 2))
        )


@pytest.mark.parametrize("entry", ["compile_update", "plan_cache"])
def test_a_wrong_length_fact_is_refused_at_compile_time(entry):
    """Even when the EDB holds no relation for the predicate yet, the
    program's arity refuses the fact before anything is evaluated."""
    program = parse_program(TC)
    delta = Delta().insert("edge", (2, 3, 4))
    compile = (
        partial(compile_update, program)
        if entry == "compile_update"
        else partial(CompiledProgramCache(program).compile, program)
    )
    with pytest.raises(ValueError, match="has arity 3, expected 2"):
        compile(Database(), delta)


def test_dag_is_valid_and_deep():
    cu = compile_update(
        parse_program(TC), chain_edb(8), Delta().insert("edge", (7, 8))
    )
    t = cu.trace
    # the static G: however deep the chain, the fixpoint is one node
    assert [t.dag.name_of(v) for v in range(t.dag.n_nodes)] == [
        "edb:edge", "fix@1", "path@1.0",
    ]
    # the touched EDB source is the initial task, and the grown
    # fixpoint carries the change to its predicate node
    assert t.initial_tasks.tolist() == [0]
    assert t.propagation.executed.tolist() == [True, True, True]
    # the fixpoint's work is its value's rows: 28 paths before, 36 after
    assert t.work.tolist() == [0.0, pytest.approx(1e-3 * 37), 0.0]


def test_no_change_update_activates_nothing_downstream():
    # delete a fact that was never present: EDB node runs, nothing changes
    prog = parse_program(TC)
    cu = compile_update(
        prog, chain_edb(4), Delta().delete("edge", (99, 100))
    )
    t = cu.trace
    assert t.n_active_jobs == 0  # only the EDB source node re-runs


def test_task_outputs_respect_function_of_inputs():
    """A task activated by the update but producing identical output
    must stop the cascade (the paper's central 'may or may not affect
    the output' behavior)."""
    # two chains; update touches only one of them via a shared EDB node
    prog = parse_program(
        """
        a(X) :- base(X).
        b(X) :- a(X), X < 3.
        """
    )
    edb = Database()
    edb.add_fact("base", (1,))
    edb.add_fact("base", (5,))
    cu = compile_update(prog, edb, Delta().insert("base", (7,)))
    t = cu.trace
    # rule a fires with changed output; rule b's join output is unchanged
    # (7 fails X < 3), so b's task runs but its predicate state must not
    # propagate a change
    sim = simulate(t, LevelBasedScheduler(), processors=2)
    assert sim.tasks_executed == t.n_active
    names = [t.dag.name_of(i) for i in np.flatnonzero(t.propagation.executed)]
    # the b-state predicate node is NOT re-run
    assert not any(n.startswith("b@") for n in names)


def test_schedulable_by_all(diamond=None):
    from repro.schedulers import (
        HybridScheduler,
        LogicBloxScheduler,
        OracleScheduler,
    )

    cu = compile_update(
        parse_program(TC), chain_edb(7),
        Delta().insert("edge", (2, 6)).delete("edge", (4, 5)),
    )
    t = cu.trace
    counts = set()
    for S in [LevelBasedScheduler, LogicBloxScheduler, HybridScheduler,
              OracleScheduler]:
        res = simulate(t, S(), processors=4)
        counts.add(res.tasks_executed)
    assert len(counts) == 1


# ----------------------------------------------------------------------
# a compiled trace is the engine's round
# ----------------------------------------------------------------------
SOURCES = [
    *sorted(DATALOG_WORKLOADS),
    *(f"shape-{s}" for s in sorted(READ_SET_SHAPES)),
    "gen-5",
    "gen-23",
]


def _updates(name):
    """``(program, edb, deltas)``: six chained updates of ``name``."""
    if name.startswith("gen-"):
        seed = int(name[len("gen-"):])
        gen = stratified_program(seed)
        stream = UpdateStream(gen, seed)
        return gen.program, gen.edb, [stream.batch() for _ in range(6)]
    if name.startswith("shape-"):
        program = parse_program(READ_SET_SHAPES[name[len("shape-"):]])
        return program, read_set_edb(), read_set_stream(program)
    wl = live_workload(name, seed=42)
    return wl.program, wl.edb, [wl.random_batch(2) for _ in range(6)]


@pytest.mark.parametrize("name", SOURCES)
def test_compiled_trace_is_the_engines_round(name):
    """Per chained update: (a) the trace's propagation executes exactly
    what the round's execution activates — the initial tasks and the
    children of every node that ran and changed; (b) every registered
    scheduler simulates exactly ``n_active`` nodes; (c) running only
    the executed nodes over committed values lands on row
    ``seminaive_evaluate`` of the new EDB."""
    program, edb, deltas = _updates(name)
    registry = scheduler_registry()
    for i, delta in enumerate(deltas):
        cu = compile_update(program, edb, delta)
        trace = cu.trace
        plan, values, observed = replay_executed(cu)
        ran = set(np.flatnonzero(trace.propagation.executed).tolist())
        assert ran == observed, f"{name} update {i}: (a)"
        for sched, factory in registry.items():
            res = simulate(trace, factory(), processors=2)
            assert res.tasks_executed == trace.n_active, (
                f"{name} update {i}: (b) {sched}"
            )
        assert plan.materialization(values).as_dict() == (
            seminaive_evaluate(program, cu.edb_new)[0].as_dict()
        ), f"{name} update {i}: (c)"
        edb = cu.edb_new
