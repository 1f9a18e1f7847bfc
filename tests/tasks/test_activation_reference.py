"""The list-based activation tracker against the numpy body it replaced.

``reference_activation.ReferenceActivationState`` is the old tracker,
verbatim. Both are driven through the same random sequence of
``mark_dispatched``, ``complete``, ``clear_dispatch`` and
``fail_permanently`` calls on random layered DAGs — legal calls mostly,
illegal ones often enough to reach every error — and after every call
they must agree on the returned lists (in order), the error raised and
its message, readiness of every node, ``all_done``, ``pending_count``
and every per-node and per-edge field.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag import layered_dag
from repro.tasks import ActivationState

from .reference_activation import ReferenceActivationState

OPS = ("mark_dispatched", "complete", "clear_dispatch", "fail_permanently")
FIELDS = (
    "unresolved_parents", "activated", "will_execute", "executed",
    "resolved", "dispatched", "quarantined", "changed_edges",
)


def _call(state, op: str, node: int):
    try:
        return ("ok", getattr(state, op)(node))
    except Exception as exc:  # the error is the answer
        return ("raised", type(exc), str(exc))


def _assert_same(new: ActivationState, ref: ReferenceActivationState):
    n = new.dag.n_nodes
    for name in FIELDS:
        assert type(getattr(new, name)) is list, name
        assert getattr(new, name) == getattr(ref, name).tolist(), name
    assert [new.is_ready(v) for v in range(n)] == [
        bool(ref.is_ready(v)) for v in range(n)
    ]
    assert new.all_done() == ref.all_done()
    assert new.pending_count() == ref.pending_count()


def _candidates(ref: ReferenceActivationState, op: str) -> list[int]:
    """Nodes on which ``op`` is legal in ``ref``'s state."""
    if op == "mark_dispatched":
        mask = ref.will_execute & ~ref.dispatched
        mask &= ref.unresolved_parents == 0
    else:
        mask = ref.dispatched & ~ref.executed & ~ref.quarantined
    return np.flatnonzero(mask).tolist()


@given(
    seed=st.integers(0, 10_000),
    script=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 10_000)),
        max_size=80,
    ),
)
@settings(max_examples=150, deadline=None)
def test_same_answers_as_the_numpy_tracker(seed, script):
    rng = np.random.default_rng(seed)
    dag = layered_dag([3, 5, 6, 5, 3], edge_prob=0.35, rng=rng,
                      skip_prob=0.3)
    n = dag.n_nodes
    flags = rng.random(dag.n_edges) < rng.uniform(0.2, 0.9)
    # sources, plus now and then an inner node or a repeated id
    initial = np.concatenate((
        dag.sources()[: 1 + int(rng.integers(0, 3))],
        rng.integers(0, n, int(rng.integers(0, 3))),
    ))
    new = ActivationState(dag, initial, flags)
    ref = ReferenceActivationState(dag, initial, flags)
    assert new.bootstrap() == ref.bootstrap()
    _assert_same(new, ref)

    for op, pick in script:
        legal = _candidates(ref, op)
        if legal and pick % 5:
            node = legal[pick % len(legal)]
        else:
            node = pick % n
        assert _call(new, op, node) == _call(ref, op, node), (op, node)
        _assert_same(new, ref)

    # finish the run the same way on both (after an illegal call, such
    # as completing a quarantined task, the run may not settle at all)
    while True:
        ready = _candidates(ref, "mark_dispatched")
        running = _candidates(ref, "complete")
        if not (ready or running):
            break
        for v in ready:
            assert _call(new, "mark_dispatched", v) == _call(
                ref, "mark_dispatched", v
            )
        for v in running:
            assert _call(new, "complete", v) == _call(ref, "complete", v)
        _assert_same(new, ref)
