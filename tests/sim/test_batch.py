"""Tests for the batch comparison runner."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.dag import Dag
from repro.schedulers import (
    HybridScheduler,
    LevelBasedScheduler,
    LogicBloxScheduler,
    LookaheadScheduler,
)
from repro.sim import simulate
from repro.sim.batch import compare
from repro.tasks import JobTrace
from repro.workloads import theorem9_example
from repro.workloads.tables import make_trace


def small_traces():
    dag = Dag(4, [(0, 1), (2, 3)])
    t1 = JobTrace(
        dag=dag,
        work=np.array([10.0, 1.0, 1.0, 1.0]),
        initial_tasks=np.array([0, 2]),
        changed_edges=np.ones(2, dtype=bool),
        name="two-chains",
    )
    t2 = theorem9_example(6)
    return [t1, t2]


def test_grid_structure():
    grid = compare(
        small_traces(),
        [LevelBasedScheduler, HybridScheduler],
        processors=4,
    )
    assert set(grid.results) == {"two-chains", "theorem9(L=6)"}
    assert grid.schedulers() == ["LevelBased", "Hybrid"]
    for row in grid.results.values():
        assert set(row) == {"LevelBased", "Hybrid"}


def test_accepts_instances_and_factories():
    grid = compare(
        small_traces()[:1],
        [LevelBasedScheduler(), lambda: LogicBloxScheduler("cached")],
        processors=2,
    )
    assert set(grid.results["two-chains"]) == {
        "LevelBased",
        "LogicBlox(cached)",
    }


def test_best_and_win_counts():
    grid = compare(
        small_traces(),
        [LevelBasedScheduler, HybridScheduler],
        processors=8,
    )
    # the hybrid never loses on these instances (ties go to list order)
    assert grid.best("theorem9(L=6)") == "Hybrid"
    wins = grid.win_counts()
    assert sum(wins.values()) == 2
    for trace_name in grid.results:
        ms = grid.makespans(trace_name)
        # tolerance covers the hybrid's slightly higher charged overhead
        assert ms["Hybrid"] <= ms["LevelBased"] + 1e-4


def test_render_quantities():
    grid = compare(
        small_traces()[:1], [LevelBasedScheduler], processors=2
    )
    assert "makespan" in grid.render()
    assert "overhead" in grid.render("overhead")
    assert "ops" in grid.render("ops")
    with pytest.raises(ValueError):
        grid.render("latency")


def test_second_sweep_over_shared_precomputation_equals_the_first():
    """A sweep's schedulers share one levels / interval-list build per
    ``Dag`` (the first sweep builds, the second reads); nothing the
    model reports may notice. Job trace #5's shape, the deep cell of the
    ``sim_sched`` benchmark row."""
    trace = make_trace(5)
    specs = [
        LogicBloxScheduler,
        LogicBloxScheduler("cached"),
        HybridScheduler,
        LevelBasedScheduler,
        LookaheadScheduler(3),
    ]
    first = compare([trace], specs).results[trace.name]
    second = compare([trace], specs).results[trace.name]
    assert len(first) == len(specs)
    assert {name: asdict(res) for name, res in second.items()} == {
        name: asdict(res) for name, res in first.items()
    }
    for res in first.values():
        assert res.scheduling_ops > 0 and res.makespan > 0
    assert first["LevelBased"].precompute_memory_cells > 0
    assert first["LogicBlox"].precompute_ops > trace.dag.n_nodes

    # …and the schedules themselves, each accepted by the strict check
    for spec in specs:
        runs = [
            simulate(
                trace, spec() if isinstance(spec, type) else spec,
                strict=True, record_schedule=True,
            )
            for _ in range(2)
        ]
        assert runs[0].schedule and asdict(runs[0]) == asdict(runs[1])
        assert asdict(runs[0]) | {"schedule": []} == asdict(
            first[runs[0].scheduler_name]
        )
