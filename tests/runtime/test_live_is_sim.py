"""With one worker, the live executor is the simulator.

Both loops drive the same four scheduler hooks the same way, so a round
served by ``RoundExecutor(workers=1)`` and the same round replayed
through ``simulate(..., processors=1)`` must agree: the same dispatch
order, the same ``scheduling_ops``, the same ``select`` count, and the
same ops on each of the three hook counters — the live ones on an
``execute`` span opened around ``RoundExecutor.run``, the simulated ones
on the ``sim-run`` span.

The replay is the compiled round with the change flags execution
observed. It keeps the compiled ``work``: ``record_round``'s
verification trace carries measured durations instead, and a scheduler
whose priorities read ``work`` (``critical-path``) orders a round by
them differently.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.datalog import CompiledProgramCache
from repro.obs import TraceRecorder
from repro.runtime import (
    RoundExecutor,
    live_workload,
    make_stream,
    record_round,
)
from repro.schedulers import scheduler_registry
from repro.sim import simulate
from repro.workloads.generated import UpdateStream, stratified_program

REGISTRY = scheduler_registry()
COUNTERS = ("activate_ops", "ready_scan_ops", "complete_ops")
PROGRAMS = ("tc", "sg", "pt", "retail", "analytics", "flat")
ROUNDS = 8


def serve_and_replay(program, edb, deltas, sched_name: str) -> int:
    """Serve ``deltas`` one round each at ``workers=1`` under one
    scheduler, replaying every round through the simulator with that
    scheduler; returns the number of rounds that ran a task."""
    scheduler = REGISTRY[sched_name]()
    cache = CompiledProgramCache(program)
    ran = 0
    for i, delta in enumerate(deltas):
        cu = cache.compile(program, edb, delta, name=f"r{i}")
        live = TraceRecorder()
        with live.span("execute", "phase"):
            outcome = RoundExecutor(
                cache.plan(cu), scheduler, workers=1, sink=live
            ).run()
        (execute,) = [r for r in live.records() if r.name == "execute"]
        replay = dataclasses.replace(
            cu.trace,
            changed_edges=record_round(outcome, cu.trace).trace.changed_edges,
        )
        sim = TraceRecorder()
        res = simulate(
            replay, scheduler, processors=1, record_schedule=True, sink=sim
        )
        (run,) = [r for r in sim.records() if r.cat == "sim-run"]

        where = f"{sched_name} round {i}"
        live_order = sorted(outcome.records, key=lambda v: outcome.records[v])
        sim_order = [r.node for r in sorted(res.schedule, key=lambda r: r.start)]
        assert sim_order == live_order, where
        assert res.scheduling_ops == outcome.scheduler_ops, where
        assert res.extras["select_calls"] == outcome.select_calls, where
        assert {c: run.args[c] for c in COUNTERS} == {
            c: execute.args.get(c, 0) for c in COUNTERS
        }, where
        ran += bool(live_order)
        cache.commit(cu, outcome.values)
        edb = cu.edb_new
    return ran


@pytest.mark.parametrize("program", PROGRAMS)
@pytest.mark.parametrize("sched_name", sorted(REGISTRY))
def test_shipped_program_rounds_replay_identically(sched_name, program):
    wl = live_workload(program, seed=3)
    deltas = [
        delta
        for batches in make_stream(wl, "steady", rounds=ROUNDS)
        for delta in batches
    ]
    assert serve_and_replay(wl.program, wl.edb, deltas, sched_name) > 0


@pytest.mark.parametrize("sched_name", sorted(REGISTRY))
def test_generated_program_rounds_replay_identically(sched_name):
    gen = stratified_program(5, n_edb=8, levels=6, preds_per_level=8)
    stream = UpdateStream(gen, 5)
    deltas = [stream.batch(3) for _ in range(ROUNDS)]
    assert serve_and_replay(gen.program, gen.edb, deltas, sched_name) > 0
