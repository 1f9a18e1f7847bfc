"""Execution plans reproduce the row evaluator's materialization.

The central purity claim of the runtime: executing every unit of the
static plan in any precedence-respecting order rebuilds the new
materialization exactly — row :func:`seminaive_evaluate` of the new EDB,
the oracle. A round :func:`compile_update` returns is the engine's
round on that plan; its change flags are checked against each node's
value on both sides of the round, each side run as a miss.
"""

from __future__ import annotations

import pytest

from repro.datalog import (
    CompiledProgramCache,
    compile_update,
    parse_program,
    seminaive_evaluate,
)
from repro.datalog.columnar import InternPool
from repro.datalog.units import ProgramSkeleton, build_execution_plan
from repro.workloads.datalog_workloads import DATALOG_WORKLOADS

from .conftest import (
    READ_SET_SHAPES,
    WORKLOADS,
    miss_values,
    read_set_edb,
    read_set_stream,
    replay_executed,
)


@pytest.mark.parametrize("name", WORKLOADS)
class TestSerialReference:
    def test_materialization_matches_db_new(
        self, compiled_workloads, expected_new, name
    ):
        cu = compiled_workloads[name]
        plan = build_execution_plan(cu)
        values, diffs = plan.execute_serial()
        assert plan.materialization(values).as_dict() == expected_new[name]
        # a miss: nothing to diff against, every node reads as changed
        assert len(diffs) == len(plan.units) and all(diffs.values())

    def test_diffs_match_compiled_flags(self, compiled_workloads, name):
        """The compiled flag of every node == whether its value differs
        between the round's two sides, each run as a miss in one id
        space."""
        cu = compiled_workloads[name]
        pool = InternPool()
        old = miss_values(cu, cu.edb_old, pool)
        new = miss_values(cu, cu.edb_new, pool)
        dag = cu.trace.dag
        mismatches = []
        for node in range(dag.n_nodes):
            lo, hi = dag.out_edge_range(node)
            if hi == lo:
                continue  # sink: the compiled flag is not observable
            if bool(cu.trace.changed_edges[lo]) != (old[node] != new[node]):
                mismatches.append(node)
        assert mismatches == []

    def test_executed_set_is_sufficient(
        self, compiled_workloads, expected_new, name
    ):
        """Running only ``W`` (skipped nodes keep their committed
        values) still lands exactly on the new materialization — the
        soundness property incremental maintenance rests on."""
        plan, values, _observed = replay_executed(compiled_workloads[name])
        assert plan.materialization(values).as_dict() == expected_new[name]


def test_value_store_falls_back_to_old_values(compiled_workloads):
    cu = compiled_workloads["transitive_closure"]
    plan = build_execution_plan(cu)
    values, _ = plan.execute_serial()
    committed = [values[n] for n in range(len(plan.units))]
    baseline = plan.ctx.baseline
    ProgramSkeleton.stamp(plan, plan.compiled, baseline, committed)
    store = plan.new_store()
    assert not store.computed(0)
    assert store[0] is plan.old_values[0] is committed[0]
    assert store.zset(0) == {}
    store.set(0, frozenset({("x",)}), {"x": ({("x",)}, set())})
    assert store.computed(0) and store.changed(0)
    assert store[0] == frozenset({("x",)})
    assert store.zset(0) == {"x": ({("x",)}, set())}


@pytest.mark.parametrize("name", sorted(DATALOG_WORKLOADS))
def test_build_execution_plan_is_the_served_plan(name):
    """What ``build_execution_plan`` binds for a compiled round is the
    ``G`` the plan cache serves for the same program, staged as the
    cache stages a first round."""
    program, edb, delta = DATALOG_WORKLOADS[name]()
    cu = compile_update(program, edb, delta)
    plan = build_execution_plan(cu)
    cache = CompiledProgramCache(program)
    served = cache.plan(cache.compile(program, edb, delta))
    assert served.compiled.program.rules == cu.program.rules
    assert (
        plan.compiled.structure.node_keys
        == served.compiled.structure.node_keys
    )
    assert [u.label for u in plan.units] == [u.label for u in served.units]
    assert plan.final_nodes == served.final_nodes
    assert (
        plan.compiled.trace.initial_tasks.tolist()
        == served.compiled.trace.initial_tasks.tolist()
    )
    values, _ = plan.execute_serial()
    assert plan.materialization(values).as_dict() == (
        seminaive_evaluate(program, cu.edb_new)[0].as_dict()
    )


# ----------------------------------------------------------------------
# read sets: a task materialises only what it scans
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", sorted(READ_SET_SHAPES))
def test_read_set_shapes_match_seminaive_under_both_storages(shape):
    """Insert and delete rounds over each adversarial shape land on the
    row from-scratch materialization on the static plan, columnar."""
    program = parse_program(READ_SET_SHAPES[shape])
    edb = read_set_edb()
    for i, delta in enumerate(read_set_stream(program)):
        cu = compile_update(program, edb, delta)
        expected = seminaive_evaluate(program, cu.edb_new)[0].as_dict()
        plan = build_execution_plan(cu)
        values, _ = plan.execute_serial()
        got = plan.materialization(values).as_dict()
        assert got == expected, f"{shape} round {i}, static plan"
        edb = cu.edb_new
