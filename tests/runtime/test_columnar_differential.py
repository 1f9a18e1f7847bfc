"""Differential harness: the columnar service vs row evaluation.

The service has one runtime cell — columnar batch joins on worker
threads — and the row evaluator (:func:`seminaive_evaluate` with no
intern pool, the per-tuple joins of :mod:`repro.datalog.unify`) stays as
the reference. Whatever scheduler, maintenance oracle, cache setting and
stream shape serves an update stream, the final materialization must be
**byte-identical** to a from-scratch row evaluation of the accumulated
EDB — same relations, same tuples, same canonical serialization.
"""

from __future__ import annotations

import pytest

from repro.datalog import parse_program, seminaive_evaluate
from repro.runtime import UpdateStreamService, live_workload, make_stream
from repro.schedulers import scheduler_registry

from .conftest import READ_SET_SHAPES, read_set_edb, read_set_stream

REGISTRY = scheduler_registry()
ALL_SCHEDULERS = sorted(REGISTRY)


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


def serve(
    name,
    kind,
    *,
    scheduler="hybrid",
    plan_cache=True,
    maintenance=None,
    rounds=3,
    seed=5,
    workers=3,
    **wl_kwargs,
):
    """Serve ``rounds`` ticks; canonical (columnar, row) materializations."""
    wl = live_workload(name, seed=seed, **wl_kwargs)
    svc = UpdateStreamService(
        wl.program,
        wl.edb,
        REGISTRY[scheduler](),
        workers=workers,
        plan_cache=plan_cache,
        maintenance=maintenance,
    )
    for batches in make_stream(wl, kind, rounds=rounds, batch_size=2):
        for delta in batches:
            svc.submit(delta)
        rep = svc.run_round()
        if rep is not None:
            assert not rep.metrics.degraded
    return canonical_bytes(svc.materialization()), row_bytes(
        wl.program, svc
    )


@pytest.mark.parametrize("sched", ALL_SCHEDULERS)
def test_columnar_matches_row_all_schedulers(sched):
    """Columnar storage is invisible to every registered scheduler."""
    col, row = serve("tc", "steady", scheduler=sched)
    assert col == row


@pytest.mark.parametrize("cache", [True, False], ids=["cache", "cold"])
@pytest.mark.parametrize("strategy", ["dred", "bf", "counting"])
def test_maintenance_oracles_columnar_vs_row(strategy, cache):
    """Every maintenance-strategy oracle passes over the columnar rounds.

    The oracle replays each round through the named engine (row joins)
    and insists it matches from-scratch evaluation — a per-round
    tripwire on top of the final byte-compare. Counting rejects
    recursion, so it runs over the non-recursive retail_flat workload;
    dred/bf get the closure.
    """
    workload = "flat" if strategy == "counting" else "tc"
    col, row = serve(
        workload, "mixed", maintenance=strategy, plan_cache=cache
    )
    assert col == row


@pytest.mark.parametrize("kind", ["steady", "bursty", "deletions", "mixed"])
def test_stream_kinds_columnar_vs_row(kind):
    """Byte-identity holds across the seeded stream shapes."""
    col, row = serve("sg", kind, depth=4, fanout=2)
    assert col == row


def test_points_to_columnar_vs_row():
    """Recursive three-way joins land on the row evaluator's bytes."""
    col, row = serve("pt", "steady", n_vars=12, n_stmts=24)
    assert col == row


def test_cache_on_off_columnar_agree():
    """The columnar plan cache changes cost, never bytes."""
    cold = serve("tc", "bursty", plan_cache=False)
    warm = serve("tc", "bursty", plan_cache=True)
    assert cold == warm
    assert cold[0] == cold[1]


@pytest.mark.parametrize("cache", [True, False], ids=["cache", "cold"])
@pytest.mark.parametrize("shape", sorted(READ_SET_SHAPES))
def test_read_set_shapes_columnar_vs_row(shape, cache):
    """Units that materialise only their read set serve every
    adversarial shape to the row evaluator's from-scratch bytes, whether
    or not relations come from the cross-round cache."""
    program = parse_program(READ_SET_SHAPES[shape])
    svc = UpdateStreamService(
        program,
        read_set_edb(),
        REGISTRY["hybrid"](),
        workers=3,
        plan_cache=cache,
    )
    for delta in read_set_stream(program):
        svc.submit(delta)
        rep = svc.run_round()
        assert rep is None or rep.materialization_ok
    assert canonical_bytes(svc.materialization()) == row_bytes(program, svc)
