"""Tests for the JobTrace container and its JSON round-trip."""

import io

import numpy as np
import pytest

from repro.dag import Dag
from repro.tasks import ExecutionModel, JobTrace


def make_trace(**over):
    dag = Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    kwargs = dict(
        dag=dag,
        work=np.array([1.0, 2.0, 3.0, 4.0]),
        initial_tasks=np.array([0]),
        changed_edges=np.ones(4, dtype=bool),
        name="t",
    )
    kwargs.update(over)
    return JobTrace(**kwargs)


class TestValidation:
    def test_defaults(self):
        t = make_trace()
        assert np.array_equal(t.span, t.work)
        assert (t.models == ExecutionModel.SEQUENTIAL).all()
        assert t.is_task.all()

    def test_work_shape_checked(self):
        with pytest.raises(ValueError, match="work"):
            make_trace(work=np.ones(3))

    def test_span_shape_checked(self):
        with pytest.raises(ValueError, match="span"):
            make_trace(span=np.ones(2))

    def test_changed_edges_shape_checked(self):
        with pytest.raises(ValueError, match="changed_edges"):
            make_trace(changed_edges=np.ones(7, dtype=bool))

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_trace(work=np.array([1.0, -1.0, 1.0, 1.0]))

    def test_initial_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            make_trace(initial_tasks=np.array([99]))

    def test_initial_tasks_deduped(self):
        t = make_trace(initial_tasks=np.array([0, 0, 0]))
        assert list(t.initial_tasks) == [0]


class TestDerived:
    def test_levels_cached(self):
        t = make_trace()
        assert list(t.levels) == [0, 1, 1, 2]
        assert t.n_levels == 3
        assert t.levels is t.levels  # cached object

    def test_propagation_counts(self):
        t = make_trace()
        assert t.n_active == 4
        assert t.n_active_jobs == 4
        assert sorted(t.active_nodes) == [0, 1, 2, 3]
        assert t.total_active_work == 10.0

    def test_active_jobs_excludes_plumbing(self):
        t = make_trace(is_task=np.array([True, False, True, True]))
        assert t.n_active == 4
        assert t.n_active_jobs == 3

    def test_fresh_activation_state_independent(self):
        t = make_trace()
        s1 = t.fresh_activation_state()
        s1.bootstrap()
        s1.mark_dispatched(0)
        s2 = t.fresh_activation_state()
        s2.bootstrap()
        assert s2.is_ready(0)  # unaffected by s1

        # a state run to completion leaves nothing behind on the Dag: the
        # next one copies untouched counters and bootstraps the same way
        dag = t.dag
        offsets, targets = dag.out_csr()
        done = t.fresh_activation_state()
        first = done.bootstrap()
        ready = list(first[0])
        while ready:
            v = ready.pop()
            done.mark_dispatched(v)
            ready.extend(done.complete(v)[0])
        assert done.all_done()
        assert done.unresolved_parents == [0, 0, 0, 0]
        again = t.fresh_activation_state()
        assert again.bootstrap() == first
        assert again.unresolved_parents == [0, 1, 1, 2]
        assert dag.in_degree_list() == (0, 1, 1, 2)
        assert dag.out_lists() == (
            tuple(offsets.tolist()), tuple(targets.tolist())
        )


class TestSerialization:
    def test_json_roundtrip(self):
        t = make_trace(metadata={"k": 1})
        buf = io.StringIO()
        t.dump(buf)
        buf.seek(0)
        t2 = JobTrace.load(buf)
        assert t2.dag == t.dag
        assert np.array_equal(t2.work, t.work)
        assert np.array_equal(t2.changed_edges, t.changed_edges)
        assert np.array_equal(t2.initial_tasks, t.initial_tasks)
        assert t2.name == "t"
        assert t2.metadata == {"k": 1}
        assert t2.n_active == t.n_active

    def test_node_names_roundtrip(self):
        dag = Dag(2, [(0, 1)], node_names=["a", "b"])
        t = JobTrace(
            dag=dag,
            work=np.ones(2),
            initial_tasks=np.array([0]),
            changed_edges=np.ones(1, dtype=bool),
        )
        buf = io.StringIO()
        t.dump(buf)
        buf.seek(0)
        assert JobTrace.load(buf).dag.node_names == ("a", "b")

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            JobTrace.from_json_dict({"schema": 999})
