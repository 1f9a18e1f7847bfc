"""The closed-loop drivers and the output checks.

One client: round *i+1* is submitted only after ``run_round()`` of
round *i* returned. A round's time is ``submit(...)×k + run_round()``
(serve) or the eight ``simulate`` calls of one table row, summed
(``sim_sched``), read from outside the program. The stream generator
and the reference loops run between rounds — and between the
``simulate`` calls of a row, so each call is scaled by the box speed
around it — outside every timed region.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter, process_time

from repro.datalog import seminaive_evaluate
from repro.datalog.database import Database
from repro.obs import NULL_SINK, TraceSink
from repro.runtime import UpdateStreamService
from repro.schedulers import HybridScheduler, scheduler_registry
from repro.sim import simulate
from repro.sim.result import SimulationResult
from repro.tasks import JobTrace

from timing import SpeedLog
from workloads import (
    SERVE_WORKERS,
    SIM_PAIRS,
    SIM_PROCESSORS,
    SIM_SCHEDULERS,
    SIM_SHAPES,
    ServeWorkload,
    build_sim_trace,
)

#: every this-many-th traced round is kept as input for the layer
#: probes; coprime to agg_burst's four-round and tc_deep's two-round
#: cycle, so every kind of round is captured
CAPTURE_EVERY = 9
#: rounds a timed loop runs at least, so each of five segments has one
MIN_ROUNDS = 5


#: one timed region: ``perf_counter`` before and after it, and the
#: process CPU seconds (user + system, all threads) it used
Part = tuple[float, float, float]


@dataclass
class RoundLog:
    """What the harness read off each round of one loop."""

    kinds: list[str] = field(default_factory=list)
    #: per round its timed regions: the whole of a serve round, each of
    #: the eight ``simulate`` calls of a ``sim_sched`` row (the
    #: reference loops run between them, so each is scaled on its own)
    parts: list[list[Part]] = field(default_factory=list)
    failed: int = 0

    def add(self, kind: str, parts: list[Part]) -> None:
        self.kinds.append(kind)
        self.parts.append(parts)

    def __len__(self) -> int:
        return len(self.kinds)

    def wall(self) -> list[float]:
        """Round times as read, in seconds."""
        return [sum(t1 - t0 for t0, t1, _ in ps) for ps in self.parts]

    def elapsed(self) -> float:
        """Seconds from the start of the first round to the end of the
        last, with everything the harness did in between."""
        return self.parts[-1][-1][1] - self.parts[0][0][0]

    def at_reference_speed(
        self, speed: SpeedLog
    ) -> tuple[list[float], list[float]]:
        """Round wall and CPU seconds scaled to the reference box speed."""
        wall, cpu = [], []
        for ps in self.parts:
            fs = [speed.factor(t0, t1) for t0, t1, _ in ps]
            wall.append(sum((t1 - t0) * f for (t0, t1, _), f in zip(ps, fs)))
            cpu.append(sum(c * f for (_, _, c), f in zip(ps, fs)))
        return wall, cpu

    def factors(self, speed: SpeedLog) -> list[float]:
        """Per round, the scale to the reference box speed."""
        scaled, _ = self.at_reference_speed(speed)
        return [s / w for s, w in zip(scaled, self.wall())]


def _more(done: int, rounds: int | None, deadline: float | None) -> bool:
    if rounds is not None:
        return done < rounds
    return done < MIN_ROUNDS or perf_counter() < deadline


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def new_service(
    wl: ServeWorkload, sink: TraceSink = NULL_SINK
) -> UpdateStreamService:
    """The shipped ``repro serve`` configuration at the box's width."""
    return UpdateStreamService(
        wl.program,
        wl.edb,
        HybridScheduler(),
        workers=SERVE_WORKERS,
        executor="thread",
        storage="columnar",
        plan_cache=True,
        analyze=True,
        verify=True,
        strict=True,
        sink=sink,
        name=wl.name,
    )


def run_serve(
    wl: ServeWorkload,
    svc: UpdateStreamService,
    speed: SpeedLog,
    start: int,
    rounds: int | None = None,
    seconds: float | None = None,
    sink: TraceSink = NULL_SINK,
    captured: list | None = None,
) -> RoundLog:
    """Drive rounds ``start, start+1, …`` for a count or a duration.

    A round that raises or reports ``materialization_ok=False`` counts
    as failed (the service re-queues its delta). With ``captured``,
    every ``CAPTURE_EVERY``-th round's ``(EDB before, batches)`` is
    appended to it.
    """
    log = RoundLog()
    deadline = None if seconds is None else perf_counter() + seconds
    i = start
    speed.sample()
    while _more(i - start, rounds, deadline):
        kind, batches = wl.next_round(i)
        if captured is not None and (i - start) % CAPTURE_EVERY == 0:
            captured.append((svc.database(), batches))
        tag = {"round": i}
        c0 = process_time()
        t0 = perf_counter()
        try:
            for delta in batches:
                with sink.span("bench.submit", "bench", tag):
                    svc.submit(delta)
            with sink.span("bench.run_round", "bench", tag):
                report = svc.run_round()
            ok = report is not None and report.materialization_ok
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        t1 = perf_counter()
        log.add(kind, [(t0, t1, process_time() - c0)])
        log.failed += not ok
        speed.sample()
        i += 1
    return log


def _nonempty(relations: dict[str, set]) -> dict[str, set]:
    return {p: facts for p, facts in relations.items() if facts}


def check_serve(
    wl: ServeWorkload, svc: UpdateStreamService, corrupt: bool = False
) -> dict[str, bool]:
    """The service's final state against the two references.

    ``corrupt`` drops one fact from the expected materialization, for
    the self-test that a mismatch is caught.
    """
    edb = svc.database()
    expected, _ = seminaive_evaluate(wl.program, edb)
    if corrupt:
        rel = max(expected.relations.values(), key=len)
        rel.discard(next(iter(rel)))
    got = svc.materialization() or Database()
    return {
        "materialization": _nonempty(expected.as_dict())
        == _nonempty(got.as_dict()),
        "edb_mirror": _nonempty(edb.as_dict())
        == _nonempty(wl.stream.mirror()),
    }


# ----------------------------------------------------------------------
# sim_sched
# ----------------------------------------------------------------------
#: (shape, scheduler)
Cell = tuple[str, str]


@dataclass
class SimTraces:
    """The trace pairs of one ``sim_sched`` run."""

    by_shape: dict[str, list[JobTrace]]
    #: seconds at reference speed to build one trace, per shape
    build_s: dict[str, list[float]]


def build_sim_traces(seed: int, speed: SpeedLog) -> SimTraces:
    """``SIM_PAIRS`` deep and wide traces, on seeds no other ``seed``
    shares."""
    by_shape: dict[str, list[JobTrace]] = {}
    build_s: dict[str, list[float]] = {}
    for shape in SIM_SHAPES:
        by_shape[shape], build_s[shape] = [], []
        for k in range(SIM_PAIRS):
            trace, took = speed.timed(
                build_sim_trace, shape, seed * SIM_PAIRS + k
            )
            by_shape[shape].append(trace)
            build_s[shape].append(took)
    return SimTraces(by_shape, build_s)


@dataclass
class CellRun:
    """One measured ``simulate`` call."""

    pair: int
    t0: float
    t1: float
    result: SimulationResult


def run_sim(
    traces: SimTraces,
    speed: SpeedLog,
    start: int,
    rounds: int | None = None,
    seconds: float | None = None,
    sink: TraceSink = NULL_SINK,
) -> tuple[RoundLog, dict[Cell, list[CellRun]]]:
    """Simulate table rows ``start, start+1, …``: row *i* runs every
    scheduler on the deep and the wide trace of pair ``i mod SIM_PAIRS``.
    """
    registry = scheduler_registry()
    log = RoundLog()
    cells: dict[Cell, list[CellRun]] = {
        (shape, s): [] for shape in SIM_SHAPES for s in SIM_SCHEDULERS
    }
    deadline = None if seconds is None else perf_counter() + seconds
    i = start
    speed.sample()
    while _more(i - start, rounds, deadline):
        pair = i % SIM_PAIRS
        parts: list[Part] = []
        ok = True
        for shape in SIM_SHAPES:
            trace = traces.by_shape[shape][pair]
            for name in SIM_SCHEDULERS:
                tag = {"round": i, "shape": shape, "scheduler": name}
                result = None
                c0 = process_time()
                t0 = perf_counter()
                try:
                    with sink.span("bench.simulate", "bench", tag):
                        result = simulate(
                            trace,
                            registry[name](),
                            processors=SIM_PROCESSORS,
                            sink=sink,
                        )
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    ok = False
                t1 = perf_counter()
                parts.append((t0, t1, process_time() - c0))
                if result is not None:
                    cells[shape, name].append(CellRun(pair, t0, t1, result))
                speed.sample()
        log.add("row", parts)
        log.failed += not ok
        i += 1
    return log, cells


def check_sim(
    traces: SimTraces,
    cells: dict[Cell, list[CellRun]],
    speed: SpeedLog,
) -> tuple[dict[str, bool], dict[str, list[float]]]:
    """Re-run every (trace, scheduler) cell once under ``strict=True``.

    Requires that the invariant checker accepts each schedule, that the
    four schedulers executed the same number of tasks per trace, and
    that every measured run of a cell counted exactly the operations
    the strict run counts. Also returns the strict runs' seconds at
    reference speed, per shape.
    """
    registry = scheduler_registry()
    checks = {"strict": True, "same_tasks": True, "same_ops": True}
    strict_s: dict[str, list[float]] = {shape: [] for shape in SIM_SHAPES}
    for shape in SIM_SHAPES:
        for pair, trace in enumerate(traces.by_shape[shape]):
            tasks = set()
            for name in SIM_SCHEDULERS:
                try:
                    ref, took = speed.timed(
                        simulate, trace, registry[name](),
                        processors=SIM_PROCESSORS, strict=True,
                    )
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    checks["strict"] = False
                    continue
                strict_s[shape].append(took)
                tasks.add(ref.tasks_executed)
                for run in cells[shape, name]:
                    if run.pair == pair and (
                        run.result.scheduling_ops != ref.scheduling_ops
                        or run.result.precompute_ops != ref.precompute_ops
                        or run.result.tasks_executed != ref.tasks_executed
                    ):
                        checks["same_ops"] = False
            if len(tasks) != 1:
                checks["same_tasks"] = False
    return checks, strict_s
