"""The cached LogicBlox scan's two passes are one scan.

A queue whose candidates hold at most ``SCALAR_SCAN_MAX`` ancestor
intervals between them is walked in Python; a heavier one takes the
vectorized pass. Which one runs must not show: from one state both
return the same ready order, the same blocked queue and the same
probes, and a whole simulated run forced onto either pass is the same
run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag import layered_dag, random_dag
from repro.schedulers import HybridScheduler, LogicBloxScheduler, logicblox
from repro.schedulers.base import ReadinessOracle, SchedulerContext
from repro.sim import simulate
from repro.tasks import JobTrace


def _trace(dag, rng) -> JobTrace:
    return JobTrace(
        dag=dag,
        work=rng.uniform(0.1, 3.0, dag.n_nodes),
        initial_tasks=dag.sources(),
        changed_edges=rng.random(dag.n_edges) < 0.8,
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_both_passes_read_one_state_alike(seed, data):
    """A random ``Dag``, a random activation and completion order, and a
    queue drawn from the activated, uncompleted nodes."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 48))
    dag = random_dag(n, edge_prob=float(rng.uniform(0.02, 0.4)), rng=rng)
    sched = LogicBloxScheduler("cached")
    sched.prepare(SchedulerContext(
        trace=_trace(dag, rng), processors=4,
        oracle=ReadinessOracle(lambda v: False),
    ))
    order = data.draw(st.permutations(range(n)))
    activated = order[: data.draw(st.integers(1, n))]
    for v in activated:
        sched.on_activate(v, 0.0)
    done = data.draw(st.lists(
        st.sampled_from(activated), unique=True,
        max_size=len(activated) - 1,
    ))
    for v in done:
        sched.on_complete(v, 0.0)
    live = [v for v in activated if v not in done]
    queue = data.draw(st.permutations(live))
    queue = queue[: data.draw(st.integers(1, len(queue)))]
    walked = sched._walk(queue)
    assert walked == sched._sweep(queue)
    ready, blocked, _ = walked
    assert sorted(ready + blocked) == sorted(queue)


@pytest.mark.parametrize(
    "factory",
    [HybridScheduler, lambda: LogicBloxScheduler("cached")],
    ids=["hybrid", "logicblox-cached"],
)
@pytest.mark.parametrize("seed", range(4))
def test_a_run_forced_onto_either_pass_is_one_run(monkeypatch, factory, seed):
    """Dispatch order, times, ops and memory are the same whichever
    pass every scan of the run takes."""
    rng = np.random.default_rng(seed)
    dag = layered_dag(
        [int(rng.integers(2, 9)) for _ in range(int(rng.integers(4, 9)))],
        edge_prob=0.3, rng=rng, skip_prob=0.4,
    )
    trace = _trace(dag, rng)
    runs = []
    for bound in (-1, 10**9):  # every scan vectorized, every scan walked
        monkeypatch.setattr(logicblox, "SCALAR_SCAN_MAX", bound)
        runs.append(simulate(
            trace, factory(), processors=3, record_schedule=True
        ).to_json_dict())
    assert runs[0] == runs[1]
    assert runs[0]["scheduling_ops"] > 0
