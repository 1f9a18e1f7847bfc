"""Tests for the Datalog-update → computation-DAG compiler."""

from functools import partial

import numpy as np
import pytest

from repro.datalog import Database, Delta, parse_program, seminaive_evaluate
from repro.datalog.compiler import compile_update
from repro.datalog.plancache import CompiledProgramCache
from repro.schedulers import LevelBasedScheduler
from repro.sim import simulate

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
    assert t.dag.n_nodes > 10
    # fixpoint unrolling makes the DAG at least as deep as the chain
    assert t.n_levels >= 7
    # EDB sources exist and the touched one is the initial task
    assert t.initial_tasks.size == 1
    assert t.dag.name_of(int(t.initial_tasks[0])) == "edb:edge"


def test_activation_reaches_every_affected_iteration():
    cu = compile_update(
        parse_program(TC), chain_edb(6), Delta().insert("edge", (0, 99))
    )
    t = cu.trace
    # inserting at the head cascades through every unrolled iteration
    assert t.n_active_jobs >= 4


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


def test_eval_artifacts_exposed():
    cu = compile_update(
        parse_program(TC), chain_edb(4), Delta().insert("edge", (3, 4))
    )
    assert cu.db_old.count("path") == 6
    assert cu.db_new.count("path") == 10


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
