"""Tests for the discrete-event simulation engine."""

import numpy as np
import pytest

from repro.dag import Dag, chain
from repro.schedulers import (
    LevelBasedScheduler,
    OracleScheduler,
    Scheduler,
)
from repro.sim import (
    InvalidDispatchError,
    OverheadModel,
    SchedulerStallError,
    simulate,
)
from repro.tasks import ExecutionModel, JobTrace


def full_trace(dag, work=None, **over):
    work = np.ones(dag.n_nodes) if work is None else np.asarray(work, float)
    kwargs = dict(
        dag=dag,
        work=work,
        initial_tasks=dag.sources(),
        changed_edges=np.ones(dag.n_edges, dtype=bool),
    )
    kwargs.update(over)
    return JobTrace(**kwargs)


class TestBasicRuns:
    def test_single_chain_serializes(self):
        trace = full_trace(chain(5))
        res = simulate(trace, LevelBasedScheduler(), processors=4)
        assert res.makespan == pytest.approx(5.0, abs=1e-4)
        assert res.tasks_executed == 5
        assert res.total_work == 5.0

    def test_parallel_tasks_use_processors(self):
        dag = Dag(4, [])  # four independent unit tasks
        trace = full_trace(dag)
        res = simulate(trace, LevelBasedScheduler(), processors=4)
        assert res.execution_makespan == pytest.approx(1.0, abs=1e-4)
        res1 = simulate(trace, LevelBasedScheduler(), processors=1)
        assert res1.execution_makespan == pytest.approx(4.0, abs=1e-4)

    def test_empty_update_is_noop(self, diamond):
        trace = JobTrace(
            dag=diamond,
            work=np.ones(4),
            initial_tasks=np.array([], dtype=np.int64),
            changed_edges=np.ones(4, dtype=bool),
        )
        res = simulate(trace, LevelBasedScheduler())
        assert res.makespan == 0.0
        assert res.tasks_executed == 0

    def test_only_activated_tasks_run(self, diamond):
        flags = np.zeros(4, dtype=bool)
        flags[diamond.edge_index(0, 1)] = True
        trace = JobTrace(
            dag=diamond,
            work=np.ones(4),
            initial_tasks=np.array([0]),
            changed_edges=flags,
        )
        res = simulate(trace, LevelBasedScheduler())
        assert res.tasks_executed == 2  # 0 and 1 only

    def test_zero_duration_plumbing(self, diamond):
        trace = full_trace(diamond, work=[0.0, 1.0, 1.0, 0.0])
        res = simulate(trace, LevelBasedScheduler(), processors=2)
        assert res.tasks_executed == 4
        assert res.execution_makespan == pytest.approx(1.0, abs=1e-4)

    def test_invalid_processor_count(self, diamond_trace):
        with pytest.raises(ValueError):
            simulate(diamond_trace, LevelBasedScheduler(), processors=0)

    def test_schedule_recording(self, diamond_trace):
        res = simulate(
            diamond_trace, LevelBasedScheduler(), record_schedule=True
        )
        assert len(res.schedule) == 4
        by_node = {r.node: r for r in res.schedule}
        # node 3 starts only after both parents finish
        assert by_node[3].start >= max(by_node[1].finish, by_node[2].finish)

    def test_result_summary_text(self, diamond_trace):
        res = simulate(diamond_trace, LevelBasedScheduler())
        text = res.summary()
        assert "LevelBased" in text and "makespan" in text


class TestMalleableTasks:
    def test_fully_parallel_splits_across_processors(self):
        dag = Dag(1, [])
        trace = JobTrace(
            dag=dag,
            work=np.array([8.0]),
            span=np.array([0.0]),
            models=np.array([ExecutionModel.MALLEABLE], dtype=np.int8),
            initial_tasks=np.array([0]),
            changed_edges=np.zeros(0, dtype=bool),
        )
        res = simulate(trace, LevelBasedScheduler(), processors=4)
        assert res.execution_makespan == pytest.approx(2.0, abs=1e-4)

    def test_span_floor_respected(self):
        dag = Dag(1, [])
        trace = JobTrace(
            dag=dag,
            work=np.array([8.0]),
            span=np.array([5.0]),
            models=np.array([ExecutionModel.MALLEABLE], dtype=np.int8),
            initial_tasks=np.array([0]),
            changed_edges=np.zeros(0, dtype=bool),
        )
        res = simulate(trace, LevelBasedScheduler(), processors=8)
        assert res.execution_makespan == pytest.approx(5.0, abs=1e-4)

    def test_reallot_joins_running_task(self):
        # a unit task and a big divisible task start together; when the
        # unit task finishes its processor must join the divisible one
        dag = Dag(2, [])
        trace = JobTrace(
            dag=dag,
            work=np.array([1.0, 9.0]),
            span=np.array([1.0, 0.0]),
            models=np.array(
                [ExecutionModel.SEQUENTIAL, ExecutionModel.MALLEABLE],
                dtype=np.int8,
            ),
            initial_tasks=np.array([0, 1]),
            changed_edges=np.zeros(0, dtype=bool),
        )
        res = simulate(trace, OracleScheduler(), processors=2)
        # work 9 at rate 1 until t=1 (8 left), then rate 2 → 1 + 4 = 5
        assert res.execution_makespan == pytest.approx(5.0, abs=1e-4)
        res_off = simulate(
            trace, OracleScheduler(), processors=2, reallot=False
        )
        assert res_off.execution_makespan == pytest.approx(9.0, abs=1e-4)

    def test_unit_model(self):
        dag = chain(3)
        trace = JobTrace(
            dag=dag,
            work=np.array([5.0, 5.0, 5.0]),  # ignored by UNIT
            models=np.full(3, ExecutionModel.UNIT, dtype=np.int8),
            initial_tasks=np.array([0]),
            changed_edges=np.ones(2, dtype=bool),
        )
        res = simulate(trace, LevelBasedScheduler(), processors=1)
        assert res.execution_makespan == pytest.approx(3.0, abs=1e-4)


class _Misbehaving(Scheduler):
    """Dispatches newest activations first, violating precedence."""

    name = "misbehaving"

    def prepare(self, ctx):
        self._all = []

    def on_activate(self, v, t):
        self._all.append(v)

    def on_complete(self, v, t):
        pass

    def select(self, max_tasks, t):
        out = self._all[-max_tasks:][::-1]
        self._all = self._all[: -len(out)] if out else self._all
        return out


class _Lazy(Scheduler):
    """Never dispatches anything."""

    name = "lazy"

    def prepare(self, ctx):
        pass

    def on_activate(self, v, t):
        pass

    def on_complete(self, v, t):
        pass

    def select(self, max_tasks, t):
        return []


class TestValidation:
    def test_unsafe_dispatch_aborts(self, diamond):
        # LIFO dispatch on one processor tries to run node 3 while its
        # activated parent 2 is still waiting
        trace = full_trace(diamond)
        with pytest.raises(InvalidDispatchError):
            simulate(trace, _Misbehaving(), processors=1)

    def test_stall_detected(self, diamond_trace):
        with pytest.raises(SchedulerStallError):
            simulate(diamond_trace, _Lazy())

    def test_over_dispatch_rejected(self):
        class Greedy(_Misbehaving):
            name = "greedy"

            def select(self, max_tasks, t):
                return list(self._all)  # ignores max_tasks

        dag = Dag(5, [])
        trace = full_trace(dag)
        with pytest.raises(InvalidDispatchError, match="idle"):
            simulate(trace, Greedy(), processors=2)

    def test_premature_dispatch_of_unactivated_task_rejected(self, diamond):
        class Eager(_Misbehaving):
            name = "eager"

            def select(self, max_tasks, t):
                return [3]  # node 3 has not even been activated yet

        with pytest.raises(InvalidDispatchError, match="dispatched task 3"):
            simulate(full_trace(diamond), Eager(), processors=2)

    def test_duplicate_dispatch_rejected(self):
        class Echo(_Misbehaving):
            name = "echo"

            def select(self, max_tasks, t):
                return [0]  # keeps re-dispatching the running task

        dag = Dag(2, [])
        with pytest.raises(InvalidDispatchError):
            simulate(full_trace(dag), Echo(), processors=2)

    def test_negative_processor_count(self, diamond_trace):
        with pytest.raises(ValueError, match="positive"):
            simulate(diamond_trace, LevelBasedScheduler(), processors=-3)

    def test_stall_error_names_pending_count(self, diamond_trace):
        with pytest.raises(SchedulerStallError, match="pending"):
            simulate(diamond_trace, _Lazy())

    @pytest.mark.parametrize(
        "limit",
        [
            dict(processors=0),
            dict(deadline=0),
            dict(deadline=-1),
            dict(watchdog=0),
            dict(watchdog=-5),
        ],
        ids=lambda d: "{}={}".format(*next(iter(d.items()))),
    )
    def test_limits_no_run_can_honour_are_refused(self, diamond_trace, limit):
        """Refused before the run starts: a deadline of 0 used to run and
        then report itself exceeded, a watchdog of 0 to call a fault-free
        run an unbounded retry loop."""
        (name, value), = limit.items()
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            simulate(diamond_trace, LevelBasedScheduler(), **limit)


class TestOverheadCharging:
    def test_inline_overhead_extends_makespan(self, diamond_trace):
        cheap = simulate(
            diamond_trace,
            LevelBasedScheduler(),
            overhead=OverheadModel(op_cost=0.0),
        )
        dear = simulate(
            diamond_trace,
            LevelBasedScheduler(),
            overhead=OverheadModel(op_cost=0.5),
        )
        assert dear.makespan > cheap.makespan
        assert dear.scheduling_overhead > 0
        assert dear.execution_makespan == pytest.approx(
            cheap.execution_makespan, abs=1e-6
        )

    def test_tally_mode_does_not_delay(self, diamond_trace):
        res = simulate(
            diamond_trace,
            LevelBasedScheduler(),
            overhead=OverheadModel(op_cost=0.5, charge_inline=False),
        )
        assert res.scheduling_overhead > 0
        assert res.makespan == pytest.approx(
            res.execution_makespan, abs=1e-6
        )

    def test_ops_recorded(self, diamond_trace):
        res = simulate(diamond_trace, LevelBasedScheduler())
        assert res.scheduling_ops > 0
        assert res.precompute_ops > 0
        assert res.extras["select_calls"] >= 1
