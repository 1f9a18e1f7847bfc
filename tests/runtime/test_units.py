"""Execution plans reproduce the compiler's ground truth.

The central purity claim of the runtime: executing every unit of the
static plan in any precedence-respecting order rebuilds the new
materialization exactly. The compiler's own activation flags — those of
the DAG :func:`compile_update` unrolls for the simulator — are checked
against that DAG replayed on both sides of the round
(:mod:`tests.datalog.unrolled_replay`).
"""

from __future__ import annotations

import pytest

from repro.datalog import (
    CompiledProgramCache,
    compile_update,
    parse_program,
    seminaive_evaluate,
)
from repro.datalog.units import ProgramSkeleton, build_execution_plan
from repro.verify.program import analyze_program
from repro.workloads.datalog_workloads import DATALOG_WORKLOADS

from ..datalog.unrolled_replay import UnrolledReplay
from .conftest import (
    READ_SET_SHAPES,
    WORKLOADS,
    read_set_edb,
    read_set_stream,
)


@pytest.mark.parametrize("name", WORKLOADS)
class TestSerialReference:
    def test_materialization_matches_db_new(self, compiled_workloads, name):
        cu = compiled_workloads[name]
        plan = build_execution_plan(cu)
        values, diffs = plan.execute_serial()
        assert plan.materialization(values).as_dict() == cu.db_new.as_dict()
        # a miss: nothing to diff against, every node reads as changed
        assert len(diffs) == len(plan.units) and all(diffs.values())

    def test_diffs_match_compiled_flags(self, compiled_workloads, name):
        """Real per-node change flags == the compiler's precomputed ones."""
        cu = compiled_workloads[name]
        flags = UnrolledReplay(cu).change_flags()
        dag = cu.trace.dag
        mismatches = []
        for node, changed in enumerate(flags):
            lo, hi = dag.out_edge_range(node)
            if hi == lo:
                continue  # sink: the compiled flag is not observable
            if bool(cu.trace.changed_edges[lo]) != changed:
                mismatches.append(node)
        assert mismatches == []

    def test_executed_set_is_sufficient(self, compiled_workloads, name):
        """Running only ``W`` (skipped nodes keep their old values)
        still lands exactly on the new materialization — the soundness
        property incremental maintenance rests on."""
        cu = compiled_workloads[name]
        replay = UnrolledReplay(cu)
        sparse = replay.values(
            cu.edb_new,
            executed=cu.trace.propagation.executed,
            skipped=replay.values(cu.edb_old),
        )
        assert replay.materialization(sparse) == cu.db_new.as_dict()


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
    analysis = analyze_program(program)
    cu = compile_update(program, edb, delta, analysis=analysis)
    plan = build_execution_plan(
        cu, join_orders=analysis.join_orders_for(cu.program)
    )
    cache = CompiledProgramCache(program, analysis=analysis)
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
    assert plan.materialization(values).as_dict() == cu.db_new.as_dict()


# ----------------------------------------------------------------------
# read sets: a task materialises only what it scans
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", sorted(READ_SET_SHAPES))
def test_read_set_shapes_match_seminaive_under_both_storages(shape):
    """Insert and delete rounds over each adversarial shape land on the
    row from-scratch materialization twice over: on the static plan,
    columnar, and on the unrolled DAG replayed row by row."""
    program = parse_program(READ_SET_SHAPES[shape])
    edb = read_set_edb()
    for i, delta in enumerate(read_set_stream(program)):
        cu = compile_update(program, edb, delta)
        expected = seminaive_evaluate(program, cu.edb_new)[0].as_dict()
        plan = build_execution_plan(cu)
        values, _ = plan.execute_serial()
        got = plan.materialization(values).as_dict()
        assert got == expected, f"{shape} round {i}, static plan"
        replay = UnrolledReplay(cu)
        got = replay.materialization(replay.values(cu.edb_new))
        assert got == expected, f"{shape} round {i}, unrolled replay"
        edb = cu.edb_new
