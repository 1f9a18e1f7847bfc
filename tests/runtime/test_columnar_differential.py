"""Pins on what a served round builds and probes, on the chain ``tc``.

The differential half of this file — every scheduler, stream kind, cache
temperature and read-set shape served and compared with row evaluation —
is ``test_differential.py``'s contract a; what stays here are two pins
on how a continued fixpoint round is built and scheduled.
"""

from __future__ import annotations

import functools

import pytest

from repro.datalog import Database, Delta, parse_program, seminaive_evaluate

from .conftest import serve_ticks


def canonical_bytes(db) -> bytes:
    """Canonical byte serialization of a database's materialization."""
    rows = [
        (name, sorted(facts))
        for name, facts in sorted(db.as_dict().items())
    ]
    return repr(rows).encode()


def row_bytes(program, svc) -> bytes:
    """The row evaluator's from-scratch answer for ``svc``'s EDB."""
    scratch, _ = seminaive_evaluate(program, svc.database())
    return canonical_bytes(scratch)


#: ``columnar_probes`` of rounds 2–5 below, read off the commit before
#: the fixpoint moved into id space (chain of 8 / of 32 edges)
PARENT_PROBES = {8: [132, 156, 182, 210], 32: [1260, 1332, 1406, 1482]}


@functools.cache
def _chain_rounds(depth: int, degraded: bool = False):
    """Five rounds that each append one edge to a chain of ``depth``:
    the service after the last, and the four warm rounds' metrics.
    ``degraded`` rounds run serially and read no committed node value:
    their fixpoint node recomputes, as every round's did at the parent."""
    program = parse_program(
        "path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z)."
    )
    edb = Database()
    for i in range(depth):
        edb.add_fact("edge", (i, i + 1))
    ticks = [
        [Delta().insert("edge", (depth + k, depth + k + 1))]
        for k in range(5)
    ]
    svc = serve_ticks(
        program, edb, ticks, degraded=(lambda i: True) if degraded else None
    )
    return program, svc, svc.metrics.rounds[1:]


@pytest.mark.parametrize("depth", sorted(PARENT_PROBES))
def test_builds_do_not_scale_with_fixpoint_depth(depth):
    """``columnar_builds`` counts mirror and index constructions only.

    Each round appends one edge to a chain, so the ``path`` fixpoint is
    one iteration deeper than the round before. A warm round builds the
    same whatever the depth — ``edge``'s mirror and index are patched,
    the committed ``path`` is cloned, a wave's Δ is a wrap of rows that
    already are id-rows, and the one build is the index on the round's
    Δ``edge`` itself (one row) that the seed plan probes — where it used
    to build two mirrors per iteration (20 and 68 builds on round 2
    here). A round that recomputes (here: degraded) builds nothing and
    probes exactly as often as it did when every Δ was re-interned: the
    pin as it stood before a round could continue.

    A continued round's probes: the check is the from-scratch
    evaluation, half of what the recomputing round probes; the body
    continues, ``1`` for Δ``edge`` through the base rule, ``2`` for the
    seed plan — it scans the one-row Δ first and probes the committed
    ``path`` through its index, where it used to scan all ``|path|``
    rows to probe the Δ (``1 + |path|``) — and ``1 + n`` for the
    iteration after it, over the chain's ``n`` edges. The continuation
    is the evaluator's loop seeded with Δ``edge``, so it has snapshot
    semantics: the base rule's new row joins the next iteration's Δ.
    """
    program, svc, warm = _chain_rounds(depth)
    builds = [m.columnar_builds for m in warm]
    assert max(builds) <= 1
    assert all(
        builds == [m.columnar_builds for m in _chain_rounds(other)[2]]
        for other in PARENT_PROBES
    )
    recomputed = _chain_rounds(depth, degraded=True)[2]
    assert [m.columnar_builds for m in recomputed] == [0] * 4
    assert [m.columnar_probes for m in recomputed] == PARENT_PROBES[depth]
    assert [m.continued_nodes for m in recomputed] == [0] * 4
    n = [depth + k + 1 for k in range(1, 5)]  # edges after each warm round
    assert [m.columnar_probes for m in warm] == [
        parent // 2 + 1 + 2 + 1 + edges
        for parent, edges in zip(PARENT_PROBES[depth], n)
    ]
    assert [m.continued_nodes for m in warm] == [1] * 4
    assert canonical_bytes(svc.materialization()) == row_bytes(program, svc)


@pytest.mark.parametrize("depth", sorted(PARENT_PROBES))
def test_a_continued_round_is_scheduled_like_a_recomputed_one(depth):
    """The twin of the pin above: the schedule does not change, only the
    fixpoint node's body. Every warm insert round activates and executes
    the three nodes of ``tc``'s chain, as it did when the node
    recomputed."""
    _program, _svc, warm = _chain_rounds(depth)
    assert [m.tasks_executed for m in warm] == [3] * 4
    assert [m.n_active for m in warm] == [3] * 4
    assert [m.n_nodes for m in warm] == [3] * 4
