"""Execution plans reproduce the compiler's ground truth.

The central purity claim of the runtime: executing every unit in any
precedence-respecting order rebuilds the new materialization exactly,
and the per-node output diffs reproduce the compiled activation flags.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datalog import compile_update, parse_program, seminaive_evaluate
from repro.datalog.columnar import InternPool
from repro.datalog.units import build_execution_plan

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
        values, _ = plan.execute_serial()
        assert plan.materialization(values).as_dict() == cu.db_new.as_dict()

    def test_diffs_match_compiled_flags(self, compiled_workloads, name):
        """Real per-node change flags == the compiler's precomputed ones."""
        cu = compiled_workloads[name]
        plan = build_execution_plan(cu)
        _, diffs = plan.execute_serial()
        dag = cu.trace.dag
        mismatches = []
        for node, changed in diffs.items():
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
        plan = build_execution_plan(cu)
        executed = cu.trace.propagation.executed
        sparse = plan.new_store()
        for node in np.argsort(cu.trace.levels, kind="stable"):
            if executed[int(node)]:
                unit = plan.units[int(node)]
                sparse.set(unit.node, unit.execute(sparse))
        assert plan.materialization(sparse).as_dict() == cu.db_new.as_dict()


def test_value_store_falls_back_to_old_values(compiled_workloads):
    cu = compiled_workloads["transitive_closure"]
    plan = build_execution_plan(cu)
    store = plan.new_store()
    assert not store.computed(0)
    assert store[0] == plan.old_values[0]
    store.set(0, frozenset({("x",)}))
    assert store.computed(0)
    assert store[0] == frozenset({("x",)})


# ----------------------------------------------------------------------
# read sets: a task materialises only what it scans outside its Δ
# ----------------------------------------------------------------------
def _both_storages(cu):
    return {
        "row": build_execution_plan(cu),
        "columnar": build_execution_plan(cu, pool=InternPool()),
    }


@pytest.mark.parametrize("shape", sorted(READ_SET_SHAPES))
def test_read_set_shapes_match_seminaive_under_both_storages(shape):
    """Insert and delete rounds over each adversarial shape land on the
    from-scratch materialization, row and columnar alike, and the two
    storages wire the same read set and Δ window for every task."""
    program = parse_program(READ_SET_SHAPES[shape])
    edb = read_set_edb()
    for i, delta in enumerate(read_set_stream(program)):
        cu = compile_update(program, edb, delta)
        expected = seminaive_evaluate(program, cu.edb_new)[0].as_dict()
        plans = _both_storages(cu)
        for storage, plan in plans.items():
            values, _ = plan.execute_serial()
            got = plan.materialization(values).as_dict()
            assert got == expected, f"{shape} round {i} under {storage}"
        row, col = plans["row"].skeleton, plans["columnar"].skeleton
        assert row.task_wiring.keys() == col.task_wiring.keys()
        for nid, wiring in row.task_wiring.items():
            other = col.task_wiring[nid]
            assert wiring.sources == other.sources
            assert (wiring.delta_cur, wiring.delta_prev) == (
                other.delta_cur, other.delta_prev
            )
        edb = cu.edb_new


@pytest.mark.parametrize("storage", ["row", "columnar"])
def test_delta_only_predicate_is_not_in_the_read_set(storage):
    """``path(x,z) :- Δpath(x,y), edge(y,z)`` reads ``edge`` and the two
    Δ-window states — never a ``path`` relation."""
    program = parse_program(READ_SET_SHAPES["aggregate"])
    cu = compile_update(program, read_set_edb(), read_set_stream(program)[0])
    skeleton = _both_storages(cu)[storage].skeleton
    delta_tasks = [
        (nid, w) for nid, w in skeleton.task_wiring.items()
        if w.pos is not None
    ]
    assert delta_tasks
    for nid, w in delta_tasks:
        assert set(w.sources) == {"e"}
        window = {w.delta_cur} | (
            {w.delta_prev} if w.delta_prev is not None else set()
        )
        assert w.sources["e"] not in window
        for node in window:
            assert skeleton.node_keys[node][:2] == ("pred", w.dq)


@pytest.mark.parametrize("storage", ["row", "columnar"])
def test_predicate_at_delta_and_other_position_stays_in_the_read_set(
    storage,
):
    """``p(x,z) :- Δp(x,y), p(y,z)`` still scans the full ``p``."""
    program = parse_program(READ_SET_SHAPES["nonlinear"])
    cu = compile_update(program, read_set_edb(), read_set_stream(program)[0])
    skeleton = _both_storages(cu)[storage].skeleton
    for w in skeleton.task_wiring.values():
        if w.pos is not None:
            assert w.sources == {"p": w.delta_cur}
