"""Compiler correctness under repeated updates.

The service recompiles the activation set every round against the
accumulated EDB. These properties drive compile → apply → compile again
over random update sequences and check, at every step, that

* the compiled databases chain (round *i*'s new state is round
  *i+1*'s old state),
* the compiled activation flags equal the *real* per-node output diffs
  of the unrolled DAG replayed on both sides of the round
  (:mod:`tests.datalog.unrolled_replay` — the :mod:`repro.tasks.activation`
  ground truth the simulator propagates is derived from exactly these
  flags),
* the propagated executed set ``W`` is *sufficient*: replaying only its
  nodes, with every skipped node keeping its old value, reproduces the
  new materialization byte-identically, and
* the static plan a served round runs lands on the same materialization.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import apply_delta, seminaive_evaluate
from repro.datalog.compiler import compile_update
from repro.datalog.units import build_execution_plan
from repro.runtime.workloads_live import live_workload

from .unrolled_replay import UnrolledReplay


def check_round(cu):
    """One compiled round against its replayed ground truth."""
    replay = UnrolledReplay(cu)
    old = replay.values(cu.edb_old)
    new = replay.values(cu.edb_new)
    assert replay.materialization(new) == cu.db_new.as_dict()
    dag = cu.trace.dag
    for node in range(dag.n_nodes):
        lo, hi = dag.out_edge_range(node)
        if hi > lo:
            assert bool(cu.trace.changed_edges[lo]) == (old[node] != new[node])
    # sufficiency of W: a node the propagation deactivates may still
    # have a changed *potential* output (e.g. a boundary-iteration task
    # whose old evaluation stopped one fixpoint round earlier), but
    # skipping it must not change where the round lands
    sparse = replay.values(
        cu.edb_new, executed=cu.trace.propagation.executed, skipped=old
    )
    assert replay.materialization(sparse) == cu.db_new.as_dict()
    plan = build_execution_plan(cu)
    values, _ = plan.execute_serial()
    assert plan.materialization(values).as_dict() == cu.db_new.as_dict()


def run_sequence(workload_name: str, seed: int, sizes: list[int]) -> None:
    wl = live_workload(workload_name, seed=seed)
    edb = wl.edb
    prev_db_new = None
    for size in sizes:
        delta = wl.random_batch(size)
        cu = compile_update(wl.program, edb, delta)
        # EDB chaining: compiled new state == delta applied to old state
        assert cu.edb_new.as_dict() == apply_delta(edb, delta).as_dict()
        if prev_db_new is not None:
            assert cu.db_old.as_dict() == prev_db_new.as_dict()
        # agreement with from-scratch evaluation of the new EDB
        scratch, _ = seminaive_evaluate(wl.program, cu.edb_new)
        assert cu.db_new.as_dict() == scratch.as_dict()
        check_round(cu)
        edb = cu.edb_new
        prev_db_new = cu.db_new


@given(
    seed=st.integers(0, 2**16),
    sizes=st.lists(st.integers(1, 4), min_size=2, max_size=4),
)
@settings(max_examples=10, deadline=None)
def test_repeated_updates_retail(seed, sizes):
    run_sequence("retail", seed, sizes)


@given(
    seed=st.integers(0, 2**16),
    sizes=st.lists(st.integers(1, 4), min_size=2, max_size=4),
)
@settings(max_examples=10, deadline=None)
def test_repeated_updates_tc(seed, sizes):
    run_sequence("tc", seed, sizes)


def test_long_sequence_smoke():
    """A longer deterministic chain on the aggregate-heavy workload."""
    run_sequence("analytics", seed=42, sizes=[2] * 6)
