"""Differential harness for the columnar/process executor matrix.

The PR's acceptance bar: whatever combination of storage layout
(row vs columnar) and executor backend (thread vs process) serves an
update stream, the final materialization must be **byte-identical** —
same relations, same tuples, same canonical serialization. The round
pipeline (scheduler contract, verify invariants, maintenance
strategies) is storage- and backend-blind; these tests pin that down
across every registered scheduler, every maintenance oracle, cache on
and off, and the seeded stream shapes.
"""

from __future__ import annotations

import pytest

from repro.datalog import parse_program, seminaive_evaluate
from repro.runtime import (
    UpdateStreamService,
    live_workload,
    make_stream,
    process_backend_available,
)
from repro.schedulers import scheduler_registry

from .conftest import READ_SET_SHAPES, read_set_edb, read_set_stream

REGISTRY = scheduler_registry()
ALL_SCHEDULERS = sorted(REGISTRY)

needs_fork = pytest.mark.skipif(
    not process_backend_available(),
    reason="process backend needs fork-capable multiprocessing",
)


def canonical_bytes(db) -> bytes:
    """Canonical byte serialization of a database's materialization."""
    rows = [
        (name, sorted(facts))
        for name, facts in sorted(db.as_dict().items())
    ]
    return repr(rows).encode()


def serve(
    name,
    kind,
    *,
    scheduler="hybrid",
    executor="thread",
    storage="columnar",
    plan_cache=True,
    maintenance=None,
    rounds=3,
    seed=5,
    workers=3,
    **wl_kwargs,
):
    """Serve ``rounds`` ticks; return canonical (materialization, edb)."""
    wl = live_workload(name, seed=seed, **wl_kwargs)
    svc = UpdateStreamService(
        wl.program,
        wl.edb,
        REGISTRY[scheduler](),
        workers=workers,
        plan_cache=plan_cache,
        maintenance=maintenance,
        executor=executor,
        storage=storage,
    )
    for batches in make_stream(wl, kind, rounds=rounds, batch_size=2):
        for delta in batches:
            svc.submit(delta)
        rep = svc.run_round()
        if rep is not None:
            assert rep.metrics.backend == executor
    return canonical_bytes(svc.materialization()), canonical_bytes(
        svc.database()
    )


@pytest.mark.parametrize("sched", ALL_SCHEDULERS)
def test_columnar_matches_row_all_schedulers(sched):
    """Columnar storage is invisible to every registered scheduler."""
    row = serve("tc", "steady", scheduler=sched, storage="row")
    col = serve("tc", "steady", scheduler=sched, storage="columnar")
    assert row == col


@needs_fork
@pytest.mark.parametrize("sched", ALL_SCHEDULERS)
def test_process_matches_thread_all_schedulers(sched):
    """The process backend is invisible to every registered scheduler."""
    thread = serve(
        "tc", "steady", scheduler=sched, executor="thread",
        n=24, extra_edges=10,
    )
    proc = serve(
        "tc", "steady", scheduler=sched, executor="process",
        n=24, extra_edges=10,
    )
    assert thread == proc


@pytest.mark.parametrize("cache", [True, False], ids=["cache", "cold"])
@pytest.mark.parametrize("strategy", ["dred", "bf", "counting"])
def test_maintenance_oracles_columnar_vs_row(strategy, cache):
    """Every maintenance-strategy oracle passes under both layouts.

    The oracle replays each round through the named engine and insists
    it matches from-scratch evaluation — a per-round tripwire on top of
    the final byte-compare. Counting rejects recursion, so it runs over
    the non-recursive retail_flat workload; dred/bf get the closure.
    """
    workload = "flat" if strategy == "counting" else "tc"
    row = serve(
        workload, "mixed", storage="row",
        maintenance=strategy, plan_cache=cache,
    )
    col = serve(
        workload, "mixed", storage="columnar",
        maintenance=strategy, plan_cache=cache,
    )
    assert row == col


@pytest.mark.parametrize("kind", ["steady", "bursty", "deletions", "mixed"])
def test_stream_kinds_columnar_vs_row(kind):
    """Byte-identity holds across the seeded stream shapes."""
    row = serve("sg", kind, storage="row", depth=4, fanout=2)
    col = serve("sg", kind, storage="columnar", depth=4, fanout=2)
    assert row == col


@needs_fork
@pytest.mark.parametrize("kind", ["steady", "deletions", "mixed"])
def test_stream_kinds_process_vs_thread(kind):
    """Process-backend byte-identity holds under churny streams too."""
    thread = serve(
        "retail", kind, executor="thread", storage="columnar",
    )
    proc = serve(
        "retail", kind, executor="process", storage="columnar",
    )
    assert thread == proc


@needs_fork
def test_full_matrix_one_cell_agrees_everywhere():
    """All four executor×storage combinations land on the same bytes."""
    results = {
        (ex, st): serve(
            "pt", "steady", executor=ex, storage=st,
            n_vars=12, n_stmts=24,
        )
        for ex in ("thread", "process")
        for st in ("row", "columnar")
    }
    baseline = results[("thread", "row")]
    assert all(v == baseline for v in results.values())


def test_cache_on_off_columnar_agree():
    """The columnar plan cache changes cost, never bytes."""
    cold = serve("tc", "bursty", plan_cache=False)
    warm = serve("tc", "bursty", plan_cache=True)
    assert cold == warm


def serve_shape(shape, *, storage, executor="thread", plan_cache=True):
    """Serve one read-set shape's stream; canonical materialization."""
    program = parse_program(READ_SET_SHAPES[shape])
    svc = UpdateStreamService(
        program,
        read_set_edb(),
        REGISTRY["hybrid"](),
        workers=3,
        plan_cache=plan_cache,
        executor=executor,
        storage=storage,
    )
    for delta in read_set_stream(program):
        svc.submit(delta)
        rep = svc.run_round()
        assert rep is None or rep.materialization_ok
    scratch, _ = seminaive_evaluate(program, svc.database())
    return canonical_bytes(svc.materialization()), canonical_bytes(scratch)


@pytest.mark.parametrize("cache", [True, False], ids=["cache", "cold"])
@pytest.mark.parametrize("shape", sorted(READ_SET_SHAPES))
def test_read_set_shapes_columnar_vs_row(shape, cache):
    """Units that materialise only their read set serve every
    adversarial shape to the from-scratch bytes, whichever the storage
    and whether or not relations come from the cross-round cache."""
    row, scratch = serve_shape(shape, storage="row", plan_cache=cache)
    col, _ = serve_shape(shape, storage="columnar", plan_cache=cache)
    assert row == col == scratch


@needs_fork
@pytest.mark.parametrize("shape", sorted(READ_SET_SHAPES))
def test_read_set_shapes_process_vs_thread(shape):
    """The process backend ships exactly a node's ``input_nodes`` —
    now the read set plus the Δ window — and must still agree."""
    thread, scratch = serve_shape(shape, storage="columnar")
    proc, _ = serve_shape(shape, storage="columnar", executor="process")
    assert thread == proc == scratch
