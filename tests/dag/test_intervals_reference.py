"""The one-pass interval build against the build it replaced.

``reference_intervals.ReferenceIntervalIndex`` is the old construction,
verbatim. The shipped :class:`IntervalIndex` must number the nodes the
same way and end up with the same lists — the scheduler's modelled
``ops`` / ``precompute_ops`` / ``memory_cells`` are functions of both.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag import (
    Dag,
    IntervalIndex,
    chain,
    diamond_mesh,
    layered_dag,
    random_dag,
    transitive_closure_sets,
)
from repro.workloads.pathological import interval_fragmenter, logicblox_killer
from repro.workloads.tables import make_trace

from .reference_intervals import ReferenceIntervalIndex


def reversed_dag(dag: Dag) -> Dag:
    return Dag(dag.n_nodes, dag.edge_array()[:, ::-1])


def relabelled(dag: Dag, seed: int) -> Dag:
    """``dag`` under a random node renaming: ids stop being a
    topological order, so the DFS meets children in arbitrary order."""
    perm = np.random.default_rng(seed).permutation(dag.n_nodes)
    return Dag(dag.n_nodes, perm[dag.edge_array()])


def assert_same_index(dag: Dag, queries: bool) -> None:
    new, old = IntervalIndex(dag), ReferenceIntervalIndex(dag)
    n = dag.n_nodes
    assert [new.postorder(u) for u in range(n)] == [
        old.postorder(u) for u in range(n)
    ]
    for u in range(n):
        assert new.intervals(u) == old.intervals(u), u
        assert np.array_equal(new.interval_array(u), old.interval_array(u))
    assert np.array_equal(new.list_lengths(), old.list_lengths())
    assert new.memory_cells == old.memory_cells
    assert new.total_intervals == old.total_intervals
    assert new.max_list_length() == old.max_list_length()
    if not queries:
        return
    closure = transitive_closure_sets(dag)
    for scan in (True, False):
        new.reset_ops()
        old.reset_ops()
        for a in range(n):
            for d in range(n):
                expected = a != d and d in closure[a]
                assert new.is_ancestor(a, d, scan=scan) == expected, (a, d)
                assert old.is_ancestor(a, d, scan=scan) == expected, (a, d)
                assert new.ops == old.ops, (a, d, scan)


def both_directions(dag: Dag, queries: bool = True) -> None:
    assert_same_index(dag, queries)
    assert_same_index(reversed_dag(dag), queries)


class TestAgainstTheOldBuild:
    @given(
        st.integers(0, 60),
        st.floats(0.0, 0.35),
        st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_dags(self, n, p, seed):
        # p = 0 is a forest of isolated sources; small p, several trees
        dag = random_dag(n, edge_prob=p, rng=seed)
        both_directions(dag)
        both_directions(relabelled(dag, seed))

    @given(
        st.lists(st.integers(1, 7), min_size=1, max_size=7),
        st.floats(0.0, 1.0),
        st.floats(0.0, 0.8),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_layered_dags(self, sizes, p, skip, seed):
        dag = layered_dag(sizes, edge_prob=p, rng=seed, skip_prob=skip)
        both_directions(dag)
        both_directions(relabelled(dag, seed))

    @pytest.mark.parametrize(
        "dag",
        [
            Dag(0, []),
            Dag(1, []),
            Dag(6, []),
            chain(9),
            diamond_mesh(1, 5),
            diamond_mesh(5, 4),
            # several sources feeding one sink, and the other way round
            Dag(5, [(0, 4), (1, 4), (2, 4), (3, 4)]),
            # a child reached first through a non-tree edge
            Dag(4, [(0, 2), (0, 3), (1, 2), (2, 3)]),
        ],
        ids=lambda d: f"V{d.n_nodes}E{d.n_edges}",
    )
    def test_small_shapes(self, dag):
        both_directions(dag)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_two_hundred_nodes(self, seed):
        both_directions(random_dag(200, edge_prob=0.03, rng=seed))
        both_directions(
            layered_dag([20] * 10, edge_prob=0.5, rng=seed, skip_prob=0.3),
            queries=False,
        )

    @pytest.mark.parametrize(
        "trace",
        [
            interval_fragmenter(12, 6),
            logicblox_killer(40),
            logicblox_killer(25, width_per_step=2, compact_index=True),
        ],
        ids=lambda t: t.name,
    )
    def test_pathological_families(self, trace):
        both_directions(trace.dag)

    @pytest.mark.parametrize("index, scale", [(5, 1.0), (6, 1 / 512)])
    def test_table_one_shapes(self, index, scale):
        """Job trace #5 and #6 divided by 512 — the deep and the wide
        shape the ``sim_sched`` benchmark row simulates."""
        both_directions(make_trace(index, scale).dag, queries=False)
