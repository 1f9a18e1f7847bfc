"""The list-walking invariant checker against the numpy body it replaced.

``reference_invariants.reference_check_invariants`` is the old checker,
verbatim but for its own propagation sweep. On every input here the
shipped :func:`check_invariants` must report the same violations — as a
multiset of ``(kind, node)`` — and the same bounds within 1e-9
relative, or raise where the old one raised. Inputs: random DAGs with
random schedules and fault logs, strict simulator schedules, the
mutations of ``test_strict_property.py``, simulated fault runs
(quarantines, churn, stragglers), and the served rounds of the six
shipped programs, healthy and under chaos. No record time here is NaN:
the shipped checker reports a non-finite record on purpose, where the
old one let it hide a dispatch (``test_invariants.py`` pins that).
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dag import Dag, random_dag
from repro.runtime import ChaosPlan, UpdateStreamService, live_workload
from repro.runtime import service as service_module
from repro.schedulers import scheduler_registry
from repro.sim import (
    DispatchRecord,
    FaultEvent,
    FaultPlan,
    SimulationResult,
    TaskFailedPermanentlyError,
    simulate,
)
from repro.tasks import ExecutionModel, JobTrace, propagate_changes
from repro.verify import check_invariants
from repro.workloads.datalog_workloads import DATALOG_WORKLOADS
from tests.conftest import random_job_trace
from tests.schedulers.test_validity_properties import (
    SCHEDULER_FACTORIES,
    build_trace,
)
from tests.verify.test_strict_property import IDS

from .reference_invariants import (
    reference_check_invariants,
    reference_propagate_changes,
)

ALL_SCHEDULERS = sorted(scheduler_registry())


def assert_same_report(trace, result, **kwargs) -> None:
    try:
        ref = reference_check_invariants(trace, result, **kwargs)
    except ValueError:
        with pytest.raises(ValueError, match="no recorded schedule"):
            check_invariants(trace, result, **kwargs)
        return
    new = check_invariants(trace, result, **kwargs)
    assert Counter((v.kind, v.node) for v in new.violations) == Counter(
        (v.kind, v.node) for v in ref.violations
    ), (new.summary(), ref.summary())
    assert new.bounds.keys() == ref.bounds.keys()
    for key, value in ref.bounds.items():
        assert math.isclose(new.bounds[key], value, rel_tol=1e-9), key


def relabelled(dag: Dag, seed: int) -> Dag:
    """``dag`` under a random renaming, so ids are no topological order."""
    perm = np.random.default_rng(seed).permutation(dag.n_nodes)
    return Dag(dag.n_nodes, perm[dag.edge_array()])


# ----------------------------------------------------------------------
# random graphs, schedules and fault logs
# ----------------------------------------------------------------------
FAULT_KINDS = (
    "task-fail", "proc-kill", "quarantine", "proc-fail", "proc-recover",
    "straggler", "task-retry",
)


@st.composite
def random_cases(draw):
    n = draw(st.integers(0, 12))
    seed = draw(st.integers(0, 10**6))
    rng = np.random.default_rng(seed)
    dag = relabelled(
        random_dag(n, edge_prob=draw(st.floats(0.0, 0.5)), rng=seed), seed
    )
    work = rng.uniform(0.0, 3.0, n)
    trace = JobTrace(
        dag=dag,
        work=work,
        span=work * rng.uniform(0.0, 1.0, n),
        models=rng.integers(0, 3, n).astype(np.int8),
        initial_tasks=rng.choice(n, size=int(rng.integers(0, n + 1)),
                                 replace=False) if n else [],
        changed_edges=rng.random(dag.n_edges) < rng.uniform(0, 1),
        name=f"rand{seed}",
    )
    P = draw(st.integers(1, 4))
    executed = np.flatnonzero(trace.propagation.executed).tolist()
    # mostly the active set, plus strays, repeats and unknown ids
    nodes = [v for v in executed if rng.random() < 0.85]
    nodes += draw(st.lists(st.integers(-1, n), max_size=3))
    rng.shuffle(nodes)
    schedule = []
    for v in nodes:
        s = float(rng.uniform(-0.5, 8.0))
        schedule.append(DispatchRecord(
            node=int(v),
            start=s,
            finish=s + float(rng.uniform(-0.2, 3.0)),
            processors=int(rng.integers(0, P + 2)),
        ))
    fault_log = []
    if draw(st.booleans()):
        t = 0.0
        for _ in range(draw(st.integers(1, 6))):
            t += float(rng.uniform(0.0, 2.0))
            kind = FAULT_KINDS[int(rng.integers(0, len(FAULT_KINDS)))]
            fault_log.append(FaultEvent(
                kind=kind,
                time=t,
                node=int(rng.integers(-1, n + 1)),
                data={
                    "start": t - float(rng.uniform(-0.1, 1.0)),
                    "alloc": float(rng.integers(1, P + 1)),
                    "lost": float(rng.uniform(0, 1)),
                    "backoff": float(rng.uniform(0, 0.5)),
                    "applied": float(rng.integers(0, 2)),
                    "downtime": float(rng.uniform(0, 1)),
                    "factor": float(rng.uniform(1, 3)),
                },
            ))
    finishes = [r.finish for r in schedule]
    makespan = max(finishes, default=0.0) + float(rng.uniform(-0.5, 1.0))
    result = SimulationResult(
        scheduler_name="random",
        trace_name=trace.name,
        processors=P,
        makespan=makespan,
        execution_makespan=makespan * float(rng.uniform(0.0, 1.2)),
        scheduling_overhead=0.0,
        scheduling_ops=0,
        precompute_ops=0,
        precompute_memory_cells=0,
        runtime_peak_memory_cells=0,
        tasks_executed=len(schedule) + int(rng.integers(-1, 2)),
        total_work=float(trace.work[executed].sum())
        + float(rng.choice([0.0, 0.0, 1.0])),
        utilization=float(rng.uniform(0.0, 1.1)),
        schedule=schedule,
        fault_log=fault_log,
    )
    reallot = draw(st.sampled_from([None, True, False]))
    return trace, result, reallot


@given(case=random_cases())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_schedules(case):
    trace, result, reallot = case
    assert_same_report(trace, result, reallot=reallot)


@given(case=random_cases())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_propagation_matches_the_old_sweep(case):
    trace, _, _ = case
    new = propagate_changes(trace.dag, trace.initial_tasks,
                            trace.changed_edges)
    old = reference_propagate_changes(trace.dag, trace.initial_tasks,
                                      trace.changed_edges)
    for field in ("executed", "active_edges", "activated"):
        assert np.array_equal(getattr(new, field), getattr(old, field))


# ----------------------------------------------------------------------
# the simulator's schedules, clean and mutated
# ----------------------------------------------------------------------
@pytest.mark.parametrize("factory", SCHEDULER_FACTORIES, ids=IDS)
@given(seed=st.integers(0, 10**6), processors=st.integers(1, 6),
       reallot=st.booleans(), mixed=st.booleans())
@settings(max_examples=10, deadline=None)
def test_strict_simulations(factory, seed, processors, reallot, mixed):
    trace = build_trace(seed)
    if mixed:
        rng = np.random.default_rng(seed)
        n = trace.dag.n_nodes
        trace = dataclasses.replace(
            trace,
            span=trace.work * rng.uniform(0.0, 1.0, n),
            models=rng.choice(
                [ExecutionModel.UNIT, ExecutionModel.SEQUENTIAL,
                 ExecutionModel.MALLEABLE], size=n,
            ).astype(np.int8),
        )
    res = simulate(trace, factory(), processors=processors, strict=True,
                   reallot=reallot)
    assert_same_report(trace, res, reallot=reallot)
    assert_same_report(trace, res)


@given(seed=st.integers(0, 10**6), victim=st.integers(0, 10**6),
       how=st.sampled_from(["drop", "duplicate", "warp", "narrow",
                            "late", "early", "recount"]))
@settings(max_examples=150, deadline=None)
def test_mutated_simulations(seed, victim, how):
    trace = build_trace(seed)
    res = simulate(trace, SCHEDULER_FACTORIES[0](), processors=3,
                   record_schedule=True)
    sched = list(res.schedule)
    i = victim % len(sched)
    r = sched[i]
    changes: dict = {}
    if how == "drop":
        changes["schedule"] = sched[:i] + sched[i + 1:]
    elif how == "duplicate":
        changes["schedule"] = sched + [r]
    elif how == "warp":
        sched[i] = dataclasses.replace(
            r, start=-10.0, finish=-10.0 + (r.finish - r.start)
        )
        changes["schedule"] = sched
    elif how == "narrow":
        sched[i] = dataclasses.replace(r, finish=r.start + 0.01)
        changes["schedule"] = sched
    elif how == "late":
        changes["execution_makespan"] = res.execution_makespan + 1e6
    elif how == "early":
        changes["makespan"] = 1e-9
    else:
        changes["tasks_executed"] = res.tasks_executed + 1
        changes["processors"] = 1
    assert_same_report(trace, dataclasses.replace(res, **changes),
                       reallot=True)


# ----------------------------------------------------------------------
# fault runs: quarantines, churn, stragglers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_SCHEDULERS)
@given(trace_seed=st.integers(0, 10**6), plan_seed=st.integers(0, 2**16),
       fail=st.sampled_from([0.0, 0.3, 0.9]),
       churn=st.sampled_from([0.0, 0.5, 1.0]),
       straggle=st.sampled_from([0.0, 0.4]), drop=st.booleans())
@settings(max_examples=8, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_fault_runs(name, trace_seed, plan_seed, fail, churn, straggle,
                    drop):
    trace = random_job_trace(trace_seed, layers=(2, 4, 5, 4, 2))
    plan = FaultPlan(
        seed=plan_seed,
        task_fail_prob=fail,
        max_retries=1,
        on_exhaustion="degrade",
        backoff_base=0.25,
        proc_fail_rate=churn,
        proc_downtime=(0.2, 1.0),
        straggler_prob=straggle,
    )
    try:
        res = simulate(trace, scheduler_registry()[name](), processors=3,
                       faults=plan, record_schedule=True)
    except TaskFailedPermanentlyError:  # pragma: no cover - degrade mode
        return
    for reallot in (None, True):
        assert_same_report(trace, res, reallot=reallot)
    if drop and res.schedule:
        assert_same_report(
            trace, dataclasses.replace(res, schedule=res.schedule[1:])
        )


# ----------------------------------------------------------------------
# served rounds of the shipped programs
# ----------------------------------------------------------------------
def served_artifacts(monkeypatch, program: str, chaos: ChaosPlan | None):
    recorded = []
    real = service_module.record_round

    def recording(outcome, trace, *args, **kwargs):
        artifacts = real(outcome, trace, *args, **kwargs)
        recorded.append(artifacts)
        return artifacts

    monkeypatch.setattr(service_module, "record_round", recording)
    wl = live_workload(program, seed=3)
    svc = UpdateStreamService(
        wl.program, wl.edb, scheduler_registry()["hybrid"](), workers=2,
        chaos=chaos, unit_retries=8 if chaos is not None else 0,
    )
    for _ in range(8):
        svc.submit(wl.random_batch(2, delete_frac=0.3))
        svc.run_round()
    return recorded, svc


@pytest.mark.parametrize("chaotic", [False, True], ids=["healthy", "chaos"])
@pytest.mark.parametrize("program", sorted(DATALOG_WORKLOADS))
def test_served_rounds(monkeypatch, program, chaotic):
    chaos = ChaosPlan(
        seed=11, unit_fail_prob=0.2, fail_units=(0, 1, 2, 3), fail_round=2,
    ) if chaotic else None
    recorded, svc = served_artifacts(monkeypatch, program, chaos)
    assert recorded
    # the chaos plan bit: some unit died and was retried
    assert chaotic == (sum(m.unit_retries for m in svc.metrics.rounds) > 0)
    for artifacts in recorded:
        trace, res = artifacts.trace, artifacts.result
        assert_same_report(trace, res, reallot=False)
        if res.schedule:
            assert_same_report(
                trace, dataclasses.replace(res, schedule=res.schedule[:-1]),
                reallot=False,
            )
            assert_same_report(
                trace,
                dataclasses.replace(res, schedule=res.schedule * 2),
                reallot=False,
            )
