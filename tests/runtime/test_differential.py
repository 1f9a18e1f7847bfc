"""One differential harness: every served round against one contract.

The paper's contract — a task runs only after all its activated
ancestors, exactly once, and the maintained materialization equals
from-scratch evaluation — is :data:`CONTRACTS`. Every cell of
:data:`CELLS`, a pairwise covering array of mode × scheduler × chaos ×
cache × workers (DESIGN §7), serves its sources and holds every round
to every row that applies to it. A degraded cell opens the breaker
through the health monitor's own API; a cold one builds a new service
from the last one's database before every tick, so every round is a
plan-cache miss. A failure names the cell, source, seed, round and row.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import NamedTuple

import pytest

from repro.datalog import (
    IncrementalEngine,
    apply_zdelta,
    effective_zdelta,
    merge_deltas,
    parse_program,
    seminaive_evaluate,
)
from repro.obs import NULL_SINK, TraceRecorder
from repro.runtime import (
    ChaosError,
    ChaosPlan,
    HealthPolicy,
    MaterializationDivergenceError,
    RoundVerificationError,
    ServiceUnavailableError,
    UnitExecutionError,
    UpdateStreamService,
    live_workload,
    make_stream,
)
from repro.schedulers import scheduler_registry
from repro.sim import simulate
from repro.sim.faults import DeadlineExceededError
from repro.workloads.generated import (
    UpdateStream,
    recursive_program,
    stratified_program,
)

from .conftest import READ_SET_SHAPES, read_set_edb, read_set_stream
from .test_fix_continuation import _as_miss
from .test_static_dag import _install_liar

REGISTRY = scheduler_registry()
ROUNDS = 6
FACTORS = {
    "mode": ("healthy", "degraded"),
    "scheduler": tuple(sorted(REGISTRY)),
    "chaos": (False, True),
    "cache": ("warm", "cold"),
    "workers": (1, 2),
}


class Cell(NamedTuple):
    mode: str
    scheduler: str
    chaos: bool
    cache: str
    workers: int

    @property
    def quiet(self) -> bool:
        """Healthy, chaos off, one worker: the live loop is the
        simulator."""
        return self.mode == "healthy" and not self.chaos and self.workers == 1

    def __str__(self) -> str:
        chaos = "chaos" if self.chaos else "calm"
        return "-".join(
            (self.mode, self.scheduler, chaos, self.cache, f"w{self.workers}")
        )


#: row → (what every served round is held to, the cells it applies to)
CONTRACTS = {
    "a": ("materialization ≡ row seminaive_evaluate of the accumulated "
          "EDB", lambda cell: True),
    "b": ("database() ≡ the stream's mirror", lambda cell: True),
    "c": ("the strict schedule check passed: ancestors first, exactly "
          "once", lambda cell: cell.mode == "healthy"),
    "d": ("each fix node's rows ≡ the same round staged as a miss",
          lambda cell: True),
    "e": ("IncrementalEngine fed the same stream is on the same "
          "materialization, its net set-normal, carrying the EDB delta "
          "and moving the last one onto it", lambda cell: True),
    "f": ("dispatch order, scheduler_ops, select_calls and the hook "
          "counters ≡ simulate(P=1) on the recorded trace",
          lambda cell: cell.quiet),
    "g": ("final state ≡ the chaos-off run of the same stream, or a "
          "typed error with the queue intact", lambda cell: cell.chaos),
}
HOOK_COUNTERS = ("activate_ops", "ready_scan_ops", "complete_ops")
#: what a chaos round may fail with; anything else breaks a row
CHAOS_ERRORS = (ChaosError, UnitExecutionError, DeadlineExceededError)
#: maintain attempts a chaos tick may take before it counts as lost
MAX_ATTEMPTS = 40
SHIPPED_SIZES = {
    "analytics": {}, "flat": {}, "pt": {"n_vars": 12, "n_stmts": 24},
    "retail": {}, "sg": {"depth": 4, "fanout": 2},
    "tc": {"n": 20, "extra_edges": 10},
}
KINDS = ("steady", "bursty", "deletions", "mixed")


@functools.cache
def source(key: str):
    """``(program, EDB, seed, [(batches, mirror)] per tick)`` for
    ``<shipped>:<kind>/<seed>``, ``rec:<seed>`` / ``strat:<seed>``
    (generated, recursive or not) or ``shape:<read-set shape>``; the
    mirror holds the EDB's facts once the tick landed. Built once;
    nothing serving it writes it."""
    family, _, arg = key.partition(":")
    if family == "shape":
        program, edb = parse_program(READ_SET_SHAPES[arg]), read_set_edb()
        seed = 11  # read_set_stream's
        mirror = {p: set(rel) for p, rel in edb.relations.items()}

        def land(delta):
            for p, gone in delta.deletions.items():
                mirror[p] -= gone
            for p, new in delta.insertions.items():
                mirror[p] |= new
            return [delta]

        stream = map(land, read_set_stream(program, rounds=ROUNDS))
    elif family in ("rec", "strat"):
        seed = int(arg)
        make = recursive_program if family == "rec" else stratified_program
        gen = make(seed)
        program, edb, updates = gen.program, gen.edb, UpdateStream(gen, seed)
        mirror = updates.mirror
        stream = ([updates.batch(3)] for _ in range(ROUNDS))
    else:
        kind, seed = arg.split("/")
        wl = live_workload(family, seed=int(seed), **SHIPPED_SIZES[family])
        program, edb, seed, mirror = wl.program, wl.edb, int(seed), wl._mirror
        stream = make_stream(wl, kind, rounds=ROUNDS, batch_size=2)
    ticks = [(list(b), {p: set(f) for p, f in mirror.items()}) for b in stream]
    return program, edb, seed, ticks


def _sources(s: int) -> tuple[str, ...]:
    """Scheduler ``s``'s sources: a shipped workload under one of the
    four stream kinds, a read-set shape, and a generated program."""
    shipped = sorted(SHIPPED_SIZES)[s % len(SHIPPED_SIZES)]
    return (
        f"{shipped}:{KINDS[s % len(KINDS)]}/{s}",
        f"shape:{sorted(READ_SET_SHAPES)[s % len(READ_SET_SHAPES)]}",
        f"rec:{s}" if s % 2 == 0 else f"strat:{s}",
    )


#: the covering array, three cells per scheduler: a quiet one (row f), a
#: healthy chaos one that complements it in chaos, cache and workers,
#: and a degraded one whose chaos, cache and workers vary by turns — all
#: three serving the same sources, so each source meets both levels of
#: every two-level factor
_CACHE = FACTORS["cache"]
CELLS = [
    (cell, _sources(s))
    for s, name in enumerate(FACTORS["scheduler"])
    for cell in (
        Cell("healthy", name, False, _CACHE[s % 2], 1),
        Cell("healthy", name, True, _CACHE[1 - s % 2], 2),
        Cell("degraded", name, s % 2 == 1, _CACHE[s // 2 % 2], 2 - s % 2),
    )
]


def test_the_cells_cover_every_pair():
    """Every pair of levels of any two factors occurs; every scheduler
    runs in a quiet cell and a chaos cell; every row applies somewhere;
    every source meets both levels of every two-level factor."""
    cells = [cell for cell, _keys in CELLS]
    for (i, a), (j, b) in itertools.combinations(
        enumerate(FACTORS.values()), 2
    ):
        for x, y in itertools.product(a, b):
            assert any(c[i] == x and c[j] == y for c in cells), (x, y)
    for name in FACTORS["scheduler"]:
        assert any(c.scheduler == name and c.quiet for c in cells), name
        assert any(c.scheduler == name and c.chaos for c in cells), name
    for row, (_what, applies) in CONTRACTS.items():
        assert any(map(applies, cells)), row
    for key in {key for _cell, keys in CELLS for key in keys}:
        met = [cell for cell, keys in CELLS if key in keys]
        for i, levels in enumerate(FACTORS.values()):
            assert len(levels) > 2 or {c[i] for c in met} == set(levels), key


def expect(ok: bool, where: tuple, row: str, detail: str = "") -> None:
    if not ok:
        cell, key, seed, i = where
        raise AssertionError(
            f"cell {cell}, source {key}, seed {seed}, round {i}: contract "
            f"{row} ({CONTRACTS[row][0]}) broken"
            + (f": {detail}" if detail else "")
        )


def _service(cell: Cell, program, edb, seed: int) -> UpdateStreamService:
    degraded = cell.mode == "degraded"
    svc = UpdateStreamService(
        program,
        edb,
        REGISTRY[cell.scheduler](),
        workers=cell.workers,
        chaos=ChaosPlan.from_seed(seed) if cell.chaos else None,
        unit_retries=1 if cell.chaos else 0,
        unit_backoff_s=0.0005,
        max_round_retries=8,
        # degraded: open at the first failure, never probe back
        health=HealthPolicy(
            degrade_after=1 if degraded else 3, fail_after=16,
            probe_after=10**6 if degraded else 1,
        ),
        sink=TraceRecorder() if cell.quiet else NULL_SINK,
    )
    if degraded:
        svc.health.record_failure(-1, "opened by the harness")
    return svc


def _run_tick(svc: UpdateStreamService, where: tuple):
    """Maintain what the tick submitted: one round, or under chaos as
    many as it takes; a dropped delta is surfaced, and re-submitted."""
    cell = where[0]
    for _ in range(MAX_ATTEMPTS):
        try:
            return svc.run_round()
        except MaterializationDivergenceError as exc:
            expect(False, where, "a", repr(exc))
        except RoundVerificationError as exc:
            expect(False, where, "c", repr(exc))
        except ServiceUnavailableError as exc:
            expect(cell.chaos and svc.pending_batches() > 0, where, "g",
                   repr(exc))
            svc.health.reset()
            if cell.mode == "degraded":
                svc.health.record_failure(-1, "opened by the harness")
        except CHAOS_ERRORS as exc:
            expect(cell.chaos and exc.failed_delta is not None, where, "g",
                   repr(exc))
            if not exc.delta_requeued:
                svc.submit(exc.failed_delta)
    expect(False, where, "g", f"not maintained in {MAX_ATTEMPTS} attempts")


def _replays_identically(svc: UpdateStreamService, rep) -> bool:
    """Row f: the round replayed through ``simulate(P=1)`` with the
    change flags execution observed and the compiled ``work``."""
    live = rep.artifacts.result
    execute = next(
        r for r in reversed(svc.sink.records()) if r.name == "execute"
    )
    replay = dataclasses.replace(
        rep.compiled.trace, changed_edges=rep.artifacts.trace.changed_edges
    )
    sim = TraceRecorder()
    res = simulate(
        replay, svc.scheduler, processors=1, record_schedule=True, sink=sim
    )
    (run,) = [r for r in sim.records() if r.cat == "sim-run"]
    return (
        [r.node for r in sorted(res.schedule, key=lambda r: r.start)]
        == [r.node for r in live.schedule]
        and res.scheduling_ops == live.scheduling_ops
        and res.extras["select_calls"] == live.extras["select_calls"]
        and {c: run.args[c] for c in HOOK_COUNTERS}
        == {c: execute.args.get(c, 0) for c in HOOK_COUNTERS}
    )


def _check_round(svc, rep, program, edb_old, batches, mirror, where):
    cell = where[0]
    db = svc.database()
    want = seminaive_evaluate(program, db)[0].as_dict()
    expect(rep.materialization_ok
           and svc.materialization().as_dict() == want, where, "a")
    facts = db.as_dict()
    expect({p: facts.get(p, set()) for p in mirror} == mirror, where, "b")
    if rep.metrics.noop:
        return
    assert cell.chaos or rep.metrics.degraded == (cell.mode == "degraded"), (
        f"cell {cell}: round {where[3]} ran in the wrong mode"
    )
    assert cell.cache == "warm" or svc.plan_cache.hits == 0, cell
    if not rep.metrics.degraded:
        expect(rep.verification is not None and rep.verification.ok,
               where, "c")
    # white box: the plan the round ran and the values it committed
    plan, committed = svc.plan_cache._plan, svc.plan_cache._prev.values
    fixes = [u.node for u in plan.units if u.kind == "fix"]
    if fixes:
        miss = _as_miss(program, edb_old, merge_deltas(batches))
        expect(committed is not None and all(
            {p: set(rel) for p, rel in committed[node].items()}
            == {p: miss.get(p) for p in committed[node]}
            for node in fixes
        ), where, "d")
    if cell.quiet:
        expect(_replays_identically(svc, rep), where, "f")


@functools.cache
def _chaos_off_final(key: str) -> tuple[dict, dict]:
    """``key``'s stream served with chaos off: final (database,
    materialization)."""
    program, edb, _seed, ticks = source(key)
    svc = UpdateStreamService(program, edb, REGISTRY["hybrid"](), workers=2)
    for batches, _mirror in ticks:
        for delta in batches:
            svc.submit(delta)
        svc.run_round()
    svc.close()
    return svc.database().as_dict(), svc.materialization().as_dict()


def serve(cell: Cell, key: str, on_service=lambda svc: None) -> None:
    """Serve ``key``'s stream under ``cell``, every round held to every
    row that applies to the cell; ``on_service`` sees each service the
    cell builds before it serves."""
    program, edb, seed, ticks = source(key)
    engine = IncrementalEngine(program, edb)
    before, svc = engine.db.copy(), None
    try:
        for i, (batches, mirror) in enumerate(ticks):
            where = (cell, key, seed, i)
            if svc is None or cell.cache == "cold":
                last = edb if svc is None else svc.database()
                if svc is not None:
                    svc.close()
                svc = _service(cell, program, last, seed)
                on_service(svc)
            edb_old = svc.database()
            for delta in batches:
                svc.submit(delta)
            rep = _run_tick(svc, where)
            _check_round(svc, rep, program, edb_old, batches, mirror, where)
            zdelta = effective_zdelta(edb, merge_deltas(batches))
            net = engine.apply(zdelta).net
            edb, before = apply_zdelta(edb, zdelta), apply_zdelta(before, net)
            expect(
                engine.snapshot() == before.as_dict()
                == svc.materialization().as_dict()
                and {w for _p, _f, w in net.items()} <= {-1, 1}
                and all(net.weight(p, f) == w for p, f, w in zdelta.items()),
                where, "e",
            )
        if cell.chaos:
            final = svc.database().as_dict(), svc.materialization().as_dict()
            expect(final == _chaos_off_final(key), where, "g")
    finally:
        if svc is not None:
            svc.close()


@pytest.mark.parametrize(
    "cell, key", [(c, key) for c, keys in CELLS for key in keys], ids=str
)
def test_cell_serves_the_contract(cell, key):
    serve(cell, key)


@pytest.mark.parametrize("mode", FACTORS["mode"])
def test_a_lying_unit_breaks_the_contract(mode):
    """The harness catches what it is for: a fixpoint unit that drops a
    fact once fails row a, healthy or degraded."""
    cell = next(cell for cell, _keys in CELLS if cell.mode == mode)
    with pytest.raises(AssertionError, match="contract a "):
        serve(cell, "tc:steady/0", lambda svc: _install_liar(svc, "fix"))
