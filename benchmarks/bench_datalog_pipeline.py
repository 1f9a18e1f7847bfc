"""End-to-end bench — the Datalog pipeline the paper motivates.

For each Datalog workload family: materialize the program, apply a base
update, compile the maintenance computation into a job trace, and run
all three Table-III schedulers over it. Verifies that the incremental
engine lands on the full-recompute database and reports per-workload
trace shapes and scheduler outcomes.
"""

from __future__ import annotations

import pytest
from conftest import run_once

from repro.analysis import format_seconds, render_table
from repro.datalog import IncrementalEngine, seminaive_evaluate
from repro.schedulers import (
    HybridScheduler,
    LevelBasedScheduler,
    LogicBloxScheduler,
)
from repro.sim import simulate
from repro.tasks import trace_stats
from repro.workloads.datalog_workloads import DATALOG_WORKLOADS, compile_workload

PARAMS = {
    "transitive_closure": dict(n=80, extra_edges=40),
    "retail_analytics": dict(n_products=50, n_stores=12, n_sales=250),
    "retail_flat": dict(n_products=50, n_stores=12),
    "same_generation": dict(depth=6, fanout=2),
    "retail_rollup": dict(n_products=60, n_stores=18),
    "points_to": dict(n_vars=40, n_stmts=90),
}
assert set(PARAMS) == set(DATALOG_WORKLOADS), "a workload has no bench sizes"


@pytest.mark.parametrize("name", sorted(DATALOG_WORKLOADS))
def test_datalog_pipeline(benchmark, emit, name):
    def run():
        cu = compile_workload(name, **PARAMS[name])
        results = {
            s.name: simulate(cu.trace, s, processors=8)
            for s in (
                LevelBasedScheduler(),
                LogicBloxScheduler(),
                HybridScheduler(),
            )
        }
        return cu, results

    cu, results = run_once(benchmark, run)
    trace = cu.trace
    st = trace_stats(trace)

    # the incremental engine must agree with the from-scratch compile
    prog, edb, delta = DATALOG_WORKLOADS[name](**PARAMS[name])
    eng = IncrementalEngine(prog, edb)
    eng.apply(delta)
    assert eng.snapshot() == cu.db_new.as_dict(), (
        "incremental maintenance diverged from recompute"
    )

    for res in results.values():
        assert res.tasks_executed == trace.n_active

    rows = [
        [n, format_seconds(r.makespan), r.scheduling_ops]
        for n, r in results.items()
    ]
    emit(
        f"datalog_{name}",
        render_table(
            ["scheduler", "makespan", "ops"],
            rows,
            title=(
                f"Datalog pipeline — {name}: V={st.n_nodes}, "
                f"E={st.n_edges}, L={st.n_levels}, "
                f"active jobs={st.n_active_jobs} of {st.n_task_nodes} tasks"
            ),
        ),
    )
