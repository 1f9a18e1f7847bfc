"""Regenerate the golden results under tests/sim/golden/.

The goldens pin the engine's exact numeric output (makespan, schedule,
op counts) for a fixed set of (trace, scheduler) pairs. The fault layer
must be a strict superset of the original engine: simulating with an
empty :class:`~repro.sim.faults.FaultPlan` — or none at all — must
reproduce these files byte for byte. The ``faulted/`` set pins the
fault path the same way: ``rand23`` and ``mixed`` under every
scheduler and one :data:`FAULTED_PLAN` that injects every fault kind,
serialized with its ``fault_log``. Regenerate only when an
*intentional* engine behavior change lands, and say so in the commit.

Usage::

    PYTHONPATH=src python scripts/make_golden_results.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.dag import Dag
from repro.schedulers import scheduler_registry
from repro.sim import FaultPlan, simulate
from repro.tasks import JobTrace

OUT_DIR = Path(__file__).parents[1] / "tests" / "sim" / "golden"

#: task failures with a one-retry budget that degrades on exhaustion,
#: stragglers and processor churn: over the faulted set the log holds
#: every kind (straggler, task-fail, task-retry, quarantine, proc-fail,
#: proc-kill, proc-recover)
FAULTED_PLAN = FaultPlan(
    seed=1,
    task_fail_prob=0.2,
    max_retries=1,
    backoff_base=0.25,
    on_exhaustion="degrade",
    proc_fail_rate=0.4,
    proc_downtime=(0.5, 2.0),
    straggler_prob=0.15,
)

FACTORIES = scheduler_registry()


def diamond_trace() -> JobTrace:
    dag = Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    return JobTrace(
        dag=dag,
        work=np.ones(4),
        initial_tasks=np.array([0]),
        changed_edges=np.ones(dag.n_edges, dtype=bool),
        name="diamond",
    )


def random_trace(seed: int) -> JobTrace:
    from repro.dag import layered_dag

    rng = np.random.default_rng(seed)
    dag = layered_dag([3, 5, 8, 8, 5, 3], edge_prob=0.3, rng=rng,
                      skip_prob=0.3)
    n_init = 1 + int(rng.integers(0, min(3, dag.sources().size)))
    return JobTrace(
        dag=dag,
        work=rng.uniform(0.5, 3.0, dag.n_nodes),
        initial_tasks=dag.sources()[:n_init],
        changed_edges=rng.random(dag.n_edges) < 0.6,
        name=f"rand{seed}",
    )


def mixed_trace(seed: int = 11) -> JobTrace:
    """A random trace whose nodes draw UNIT, SEQUENTIAL and MALLEABLE
    models, with ``span <= work``: the engine's malleable allotment and
    idle re-allotment run on it."""
    from repro.dag import layered_dag

    rng = np.random.default_rng(seed)
    dag = layered_dag([3, 5, 8, 8, 5, 3], edge_prob=0.3, rng=rng,
                      skip_prob=0.3)
    work = rng.uniform(0.5, 3.0, dag.n_nodes)
    n_init = 1 + int(rng.integers(0, min(3, dag.sources().size)))
    return JobTrace(
        dag=dag,
        work=work,
        span=work * rng.uniform(0.1, 1.0, dag.n_nodes),
        models=rng.integers(0, 3, dag.n_nodes).astype(np.int8),
        initial_tasks=dag.sources()[:n_init],
        changed_edges=rng.random(dag.n_edges) < 0.6,
        name="mixed",
    )


DLOG_PROGRAM = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
"""

DLOG_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4)]


def dlog_deltas():
    from repro.datalog import Delta

    return [
        Delta().insert("edge", (4, 5)).delete("edge", (1, 2)),
        Delta().insert("edge", (1, 2)).insert("edge", (5, 6)),
    ]


def datalog_trace() -> JobTrace:
    """A real compiled-update trace: the stream's second round as
    ``compile_update`` returns it — the engine's round on the static
    DAG (``edb:edge → fix@1 → path@1.0``) with the change flags its
    execution observed — the same trace tests/sim/test_faults.py checks
    the goldens against."""
    from repro.datalog import Database, compile_update, parse_program

    program = parse_program(DLOG_PROGRAM)
    edb = Database()
    edb.relation("edge", 2)
    for t in DLOG_EDGES:
        edb.add_fact("edge", t)
    cu = None
    for delta in dlog_deltas():
        cu = compile_update(program, edb, delta, name="dlog")
        edb = cu.edb_new
    assert cu is not None
    return cu.trace


def write_set(out_dir: Path, traces, faults: FaultPlan | None) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for trace in traces:
        for label, factory in FACTORIES.items():
            res = simulate(
                trace, factory(), processors=4, record_schedule=True,
                faults=faults,
            )
            path = out_dir / f"{trace.name}__{label}.json"
            path.write_text(
                json.dumps(res.to_json_dict(), sort_keys=True) + "\n"
            )
            print(f"wrote {path}")


def main() -> None:
    write_set(OUT_DIR, [
        diamond_trace(),
        random_trace(7),
        random_trace(23),
        datalog_trace(),
        mixed_trace(),
    ], None)
    write_set(
        OUT_DIR / "faulted", [random_trace(23), mixed_trace()], FAULTED_PLAN
    )


if __name__ == "__main__":
    main()
