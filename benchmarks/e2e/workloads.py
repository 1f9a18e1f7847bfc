"""The four workloads: what they run, why, and how long.

Every length the benchmark uses is a constant in this file, so two
commits measured with it do the same amount of set-up and trace the
same rounds. The measured section of an untraced run is bounded by
time (``--seconds``); everything else is a count from ``LENGTHS``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from repro.datalog.ast import Program
from repro.datalog.database import Database
from repro.datalog.incremental import Delta
from repro.tasks import JobTrace
from repro.workloads import make_synthetic_trace
from repro.workloads.datalog_workloads import (
    points_to,
    retail_analytics,
    transitive_closure,
)

from streams import StationaryStream, premix

#: ``repro serve`` default configuration, at the box's core count
SERVE_WORKERS = 2
SIM_PROCESSORS = 8
SIM_SCHEDULERS = ("logicblox", "levelbased", "lbl3", "hybrid")
SIM_SHAPES = ("deep", "wide")
#: trace pairs a ``sim_sched`` row cycles through
SIM_PAIRS = 4

#: fresh subprocesses per untraced run: each sets up on its own
#: sub-seed and measures ``seconds / REPEATS``; set-up time and memory
#: are medians over them and round times are pooled
REPEATS = 3
#: the run length ``traced_rounds`` below are sized for
NOMINAL_SECONDS = 20


@dataclass(frozen=True)
class Lengths:
    """Round counts of one workload."""

    #: rounds before the first measured one (cold compile, index builds)
    warmup_rounds: int
    #: rounds of the traced run and of its untraced twin — a quarter of
    #: what ``NOMINAL_SECONDS`` measure at the commit that added this
    traced_rounds: int


LENGTHS = {
    "pt_join": Lengths(warmup_rounds=28, traced_rounds=200),
    "tc_deep": Lengths(warmup_rounds=18, traced_rounds=128),
    "agg_burst": Lengths(warmup_rounds=36, traced_rounds=280),
    "sim_sched": Lengths(warmup_rounds=4, traced_rounds=24),
}

SERVE_WORKLOADS = ("pt_join", "tc_deep", "agg_burst")
WORKLOADS = (*SERVE_WORKLOADS, "sim_sched")

#: scale of ``--quick`` runs, which are never a source of numbers
QUICK_DIVISOR = 20


def lengths(workload: str, seconds: float, quick: bool) -> Lengths:
    """The workload's round counts for a run of ``seconds``: the traced
    rounds scale with the run length, ``--quick`` shortens the warm-up."""
    full = LENGTHS[workload]
    return Lengths(
        warmup_rounds=(
            max(1, full.warmup_rounds // QUICK_DIVISOR)
            if quick else full.warmup_rounds
        ),
        # never so few that the probes capture fewer than three rounds
        traced_rounds=max(
            20, round(full.traced_rounds * seconds / NOMINAL_SECONDS)
        ),
    )


# ----------------------------------------------------------------------
# serve workloads
# ----------------------------------------------------------------------
#: a round of a serve workload: its kind and the batches to submit
Round = tuple[str, list[Delta]]


@dataclass
class ServeWorkload:
    """A program, its pre-mixed EDB, and the generator of its rounds."""

    name: str
    program: Program
    edb: Database
    stream: StationaryStream
    next_round: Callable[[int], Round]


#: tc_deep's graph: TC_LAYERS layers of TC_WIDTH nodes, edges only from
#: one layer to the next, so every fixpoint runs TC_LAYERS iterations
#: whatever the seed (the depth of a chain with random shortcuts, and
#: with it the round time, varies by ±40 % from seed to seed)
TC_LAYERS = 20
TC_WIDTH = 3
TC_EDGES = 114
#: edges a tc_deep round inserts or deletes: the whole graph is replaced
#: every 57 rounds, so a run averages over many graphs
TC_OPS = 4


def _layered_edge(rng: random.Random) -> tuple:
    layer = rng.randrange(TC_LAYERS - 1)
    return (
        layer * TC_WIDTH + rng.randrange(TC_WIDTH),
        (layer + 1) * TC_WIDTH + rng.randrange(TC_WIDTH),
    )


def _tc_deep(seed: int) -> tuple[Program, Database, dict]:
    program, _, _ = transitive_closure(n=4, extra_edges=1)
    # not the stream's own generator state, whose first draws would
    # then all be edges already present
    rng = random.Random(f"edb:{seed}")
    edb = Database()
    while edb.count("edge") < TC_EDGES:
        edb.add_fact("edge", _layered_edge(rng))
    return program, edb, {"edge": _layered_edge}


def _pt_join(seed: int) -> tuple[Program, Database, dict]:
    program, edb, _ = points_to(n_vars=40, n_stmts=100, seed=seed)
    return program, edb, {}


def _agg_burst(seed: int) -> tuple[Program, Database, dict]:
    program, edb, _ = retail_analytics(
        n_products=200, n_stores=24, n_sales=1500, seed=seed
    )
    return program, edb, {}


def _pt_rounds(s: StationaryStream) -> Callable[[int], Round]:
    return lambda i: ("replace", [s.replace_batch(12)])


def _tc_rounds(s: StationaryStream) -> Callable[[int], Round]:
    def next_round(i: int) -> Round:
        if i % 2 == 0:
            return "insert", [s.insert_batch(TC_OPS)]
        return "delete", [s.delete_batch(TC_OPS)]

    return next_round


def _agg_rounds(s: StationaryStream) -> Callable[[int], Round]:
    def next_round(i: int) -> Round:
        phase = i % 4
        if phase == 1:
            return "noop", s.churn_pair(2)
        if phase == 3:
            burst = [s.replace_batch(4) for _ in range(5)]
            return "burst", burst + s.churn_pair(2)
        return "single", [s.replace_batch(1)]

    return next_round


_SERVE = {
    "pt_join": (_pt_join, _pt_rounds),
    "tc_deep": (_tc_deep, _tc_rounds),
    "agg_burst": (_agg_burst, _agg_rounds),
}


def build_serve(name: str, seed: int) -> ServeWorkload:
    """The named serve workload, EDB pre-mixed, stream at round 0."""
    make, rounds = _SERVE[name]
    program, edb, samplers = make(seed)
    stream = StationaryStream(program, edb, seed, samplers=samplers)
    edb = premix(stream, edb)
    return ServeWorkload(name, program, edb, stream, rounds(stream))


# ----------------------------------------------------------------------
# sim_sched
# ----------------------------------------------------------------------
#: job trace #5 has 296 active jobs; grown from six initial tasks most
#: generated traces dry up far short of that (21 to 292 over 16 seeds,
#: their simulation cost differing 2×), so a deep trace is redrawn
#: until it reaches this many
DEEP_MIN_ACTIVE = 250


def build_sim_trace(shape: str, seed: int) -> JobTrace:
    """One Table-I-shaped trace: ``deep`` is job trace #5's shape,
    ``wide`` job trace #6's divided by 512."""
    if shape == "deep":
        for attempt in itertools.count():
            trace = make_synthetic_trace(
                1719, 2430, 39, 6, 296,
                mean_work=0.63, sigma=0.6, frac_task=0.31, depth_bias=0.8,
                seed=seed * 1000 + attempt, name=f"deep-{seed}",
            )
            if trace.n_active_jobs >= DEEP_MIN_ACTIVE:
                return trace
    return make_synthetic_trace(
        740, 1090, 11, 245, 248,
        mean_work=3.1e-5, sigma=0.5, frac_task=0.6,
        level_profile="wide-top", seed=seed, name=f"wide-{seed}",
    )
