"""Tests for the CSR-backed Dag core."""

import sys
import threading

import numpy as np
import pytest

from repro.dag import Dag, IntervalIndex, compute_levels
from repro.schedulers.logicblox import _ancestor_index
from repro.tasks import JobTrace


class TestConstruction:
    def test_empty_graph(self):
        dag = Dag(0, [])
        assert dag.n_nodes == 0
        assert dag.n_edges == 0
        assert dag.sources().size == 0
        assert dag.sinks().size == 0

    def test_nodes_without_edges(self):
        dag = Dag(3, [])
        assert dag.n_nodes == 3
        assert list(dag.sources()) == [0, 1, 2]
        assert list(dag.sinks()) == [0, 1, 2]

    def test_diamond(self, diamond):
        assert diamond.n_nodes == 4
        assert diamond.n_edges == 4
        assert list(diamond.out_neighbors(0)) == [1, 2]
        assert list(diamond.in_neighbors(3)) == [1, 2]
        assert list(diamond.sources()) == [0]
        assert list(diamond.sinks()) == [3]

    def test_edges_as_numpy_array(self):
        edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
        dag = Dag(3, edges)
        assert dag.n_edges == 2
        assert dag.has_edge(0, 1)

    def test_negative_n_nodes_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Dag(-1, [])

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Dag(2, [(0, 5)])
        with pytest.raises(ValueError):
            Dag(2, [(-1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Dag(2, [(1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Dag(2, [(0, 1), (0, 1)])

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            Dag(3, [(0, 1), (1, 2), (2, 0)])

    def test_two_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            Dag(2, [(0, 1), (1, 0)])

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(ValueError, match="shaped"):
            Dag(3, np.array([[0, 1, 2]]))

    def test_validate_false_skips_checks(self):
        # cyclic input accepted when validation is off (trusted caller)
        dag = Dag(2, [(0, 1), (1, 0)], validate=False)
        assert dag.n_edges == 2


class TestAccessors:
    def test_degrees(self, diamond):
        assert diamond.out_degree(0) == 2
        assert diamond.in_degree(0) == 0
        assert diamond.in_degree(3) == 2
        assert list(diamond.out_degrees()) == [2, 1, 1, 0]
        assert list(diamond.in_degrees()) == [0, 1, 1, 2]

    def test_has_edge(self, diamond):
        assert diamond.has_edge(0, 1)
        assert diamond.has_edge(2, 3)
        assert not diamond.has_edge(1, 2)
        assert not diamond.has_edge(3, 0)

    def test_edges_iterator(self, diamond):
        assert sorted(diamond.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_edge_array_roundtrip(self, diamond):
        arr = diamond.edge_array()
        rebuilt = Dag(diamond.n_nodes, arr)
        assert rebuilt == diamond

    def test_edge_index_dense_and_unique(self, diamond):
        indexes = {diamond.edge_index(u, v) for u, v in diamond.edges()}
        assert indexes == set(range(diamond.n_edges))

    def test_edge_index_missing_edge(self, diamond):
        with pytest.raises(KeyError):
            diamond.edge_index(1, 2)

    def test_out_edge_range_covers_neighbors(self, diamond):
        lo, hi = diamond.out_edge_range(0)
        assert hi - lo == diamond.out_degree(0)

    def test_neighbors_sorted(self):
        dag = Dag(4, [(0, 3), (0, 1), (0, 2)])
        assert list(dag.out_neighbors(0)) == [1, 2, 3]

    def test_len(self, diamond):
        assert len(diamond) == 4

    def test_equality(self, diamond):
        other = Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert diamond == other
        assert diamond != Dag(4, [(0, 1), (0, 2), (1, 3)])
        assert diamond.__eq__(42) is NotImplemented


class TestNames:
    def test_default_names(self, diamond):
        assert diamond.name_of(2) == "n2"
        assert diamond.node_names is None

    def test_custom_names(self):
        dag = Dag(2, [(0, 1)], node_names=["src", "dst"])
        assert dag.name_of(0) == "src"
        assert dag.node_names == ("src", "dst")

    def test_name_count_mismatch(self):
        with pytest.raises(ValueError, match="entries"):
            Dag(2, [(0, 1)], node_names=["only-one"])


class TestDerived:
    """Per-DAG pre-computation kept on the ``Dag`` (``Dag.derived``)."""

    def test_built_once_and_kept(self, diamond):
        calls = []

        def build(dag):
            calls.append(dag)
            return {"n": dag.n_nodes}

        first = diamond.derived("probe", build)
        assert diamond.derived("probe", build) is first
        assert calls == [diamond]
        # another key is another value
        assert diamond.derived("other", lambda d: 7) == 7

    def test_outside_eq_and_hash(self, diamond):
        twin = Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        before = hash(diamond)
        diamond.derived("levels", compute_levels)
        assert diamond == twin and twin == diamond
        assert hash(diamond) == before == hash(twin)

    def test_copy_from_edge_array_starts_with_none(self, diamond):
        kept = diamond.derived("levels", compute_levels)
        copy = Dag(diamond.n_nodes, diamond.edge_array())
        assert copy == diamond

        def rebuilt(dag):
            rebuilt.called = True
            return compute_levels(dag)

        again = copy.derived("levels", rebuilt)
        assert rebuilt.called
        assert again is not kept and np.array_equal(again, kept)

    def test_arrays_are_handed_out_read_only(self, diamond):
        levels = JobTrace(
            dag=diamond, work=np.ones(4), initial_tasks=[0],
            changed_edges=np.ones(4, dtype=bool),
        ).levels
        assert not levels.flags.writeable
        with pytest.raises(ValueError):
            levels[0] = 9
        index = IntervalIndex(diamond)
        columns = [index.offsets, index.lo, index.hi, index.postorders(),
                   index.interval_array(0)]
        shared = _ancestor_index(diamond)
        columns += [shared.offsets, shared.lo, shared.hi, shared.postorders()]
        for arr in columns:
            assert not arr.flags.writeable

    def test_racing_threads_get_equal_values(self):
        """Eight threads on a cold key at a 1 µs switch interval: the
        build may run more than once (it is pure), every caller gets
        the one value that was stored."""
        dag = Dag(60, [(i, j) for i in range(60) for j in (i + 1, i + 7)
                       if j < 60])
        expected = compute_levels(dag)
        barrier = threading.Barrier(8, timeout=30)
        got = []

        def ask():
            barrier.wait()
            got.append(dag.derived("levels", compute_levels))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 8
        assert all(g is got[0] for g in got)
        assert np.array_equal(got[0], expected)
