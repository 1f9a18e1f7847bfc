#!/usr/bin/env python3
"""Retail incremental maintenance — the paper's motivating use case.

LogicBlox served retail customers who "issue updates to the database
with the expectation that queries can still be answered quickly". This
example walks the whole pipeline on a retail-style Datalog program:

1. materialize a program with category/region hierarchies, availability
   joins, and promotion eligibility (stratified negation);
2. move a product between categories (an EDB update);
3. maintain the database incrementally — the program's static DAG run
   over the values its nodes committed: only nodes whose inputs changed
   run, a rule task applies the change to its derivation counts — and
   verify against a from-scratch recompute;
4. compile the maintenance computation into a computation DAG and show
   what each scheduler does with it.

Run:  python examples/retail_incremental.py
"""

from repro.analysis import format_seconds, render_table
from repro.datalog import Delta, IncrementalEngine, compile_update
from repro.schedulers import (
    HybridScheduler,
    LevelBasedScheduler,
    LogicBloxScheduler,
)
from repro.sim import simulate
from repro.tasks import trace_stats
from repro.workloads.datalog_workloads import retail_rollup


def main() -> None:
    program, edb, delta = retail_rollup(n_products=80, n_stores=24, seed=7)
    print("program:")
    for rule in program.proper_rules:
        print(f"  {rule!r}")

    # 1–3: materialize and maintain incrementally
    engine = IncrementalEngine(program, edb)
    before = {p: len(s) for p, s in engine.snapshot().items()}
    trace = engine.apply(delta)
    after = {p: len(s) for p, s in engine.snapshot().items()}
    print("\nupdate:", _describe(delta))
    print(
        render_table(
            ["predicate", "facts before", "facts after"],
            [[p, before.get(p, 0), after.get(p, 0)] for p in sorted(after)],
            title="\nmaterialized database",
        )
    )
    ran = ", ".join(f"{label} {mode}" for label, mode, _rows in trace.events)
    print(f"\nincremental maintenance changed {trace.net.op_count()} facts "
          f"(EDB and derived) running {len(trace.events)} node(s): {ran}")

    # 4: compile the same update into a computation DAG and schedule it
    compiled = compile_update(program, edb, delta, name="retail-update")
    st = trace_stats(compiled.trace)
    print(
        f"\ncomputation DAG: {st.n_nodes} nodes ({st.n_task_nodes} tasks), "
        f"{st.n_levels} levels; the update activates "
        f"{st.n_active_jobs} task(s)"
    )
    rows = []
    for scheduler in (
        LevelBasedScheduler(),
        LogicBloxScheduler(),
        HybridScheduler(),
    ):
        res = simulate(compiled.trace, scheduler, processors=4)
        rows.append(
            [res.scheduler_name, format_seconds(res.makespan),
             res.scheduling_ops]
        )
    print(render_table(["scheduler", "makespan", "ops"], rows, title=""))


def _describe(delta: Delta) -> str:
    parts = []
    for pred, facts in delta.deletions.items():
        parts += [f"-{pred}{f}" for f in sorted(facts)]
    for pred, facts in delta.insertions.items():
        parts += [f"+{pred}{f}" for f in sorted(facts)]
    return ", ".join(parts)


if __name__ == "__main__":
    main()
