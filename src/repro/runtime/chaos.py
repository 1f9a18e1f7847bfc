"""Deterministic chaos injection for the *live* runtime.

:mod:`repro.sim.faults` describes adversity for the discrete-event
simulator; this module adapts the same counter-based scheme to the real
concurrent path — :class:`~repro.runtime.executor.RoundExecutor` and
:class:`~repro.runtime.service.UpdateStreamService` — so the fault
semantics the sim chaos suite pinned can be exercised against actual
threads.

A :class:`ChaosPlan` is a seeded, JSON-serializable description of

* **unit failures** — a dispatched work-unit attempt raises
  :class:`InjectedUnitFault` instead of executing (plus a one-shot
  targeted list, ``fail_units``, for surgical tests);
* **unit latency** — an attempt sleeps a seeded uniform delay before
  executing, manufacturing stragglers for the executor's watchdog;
* **worker kills** — the lane thread running the attempt dies, and the
  executor's supervision must replace it and re-dispatch the unit;
* **phase failures** — the service's compile or verify phase raises
  :class:`InjectedPhaseFault` before doing any work.

Determinism is counter-based exactly as in the sim: every decision is
drawn from ``default_rng([seed, kind, round, node, attempt])`` and so
depends only on its coordinates, never on thread interleaving. The
:class:`ChaosInjector` records every injection as a
:class:`~repro.sim.faults.FaultEvent` (and as a ``chaos:*`` trace
instant when a sink is attached); :meth:`ChaosInjector.canonical`
strips the wall-clock timestamps and orders events by coordinates, so
two runs of the same plan compare bit-identically even though real
threads finish in nondeterministic order.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from numpy.random import default_rng

from ..obs.trace import NULL_SINK, TraceSink
from ..sim.faults import FaultLog

__all__ = [
    "ChaosError",
    "ChaosInjector",
    "ChaosPlan",
    "InjectedPhaseFault",
    "InjectedUnitFault",
    "UnitChaos",
]

# rng sub-stream tags; disjoint from sim.faults' 1..4 so a ChaosPlan
# and a FaultPlan sharing a seed never share draws
_K_UNIT_FAIL = 11
_K_UNIT_LATENCY = 12
_K_WORKER_KILL = 13
_K_PHASE = 14

#: phase name → coordinate for the phase-failure sub-stream
_PHASE_CODES = {"compile": 1, "verify": 2}


class ChaosError(RuntimeError):
    """Base class for injected runtime faults."""


class InjectedUnitFault(ChaosError):
    """Chaos made this work-unit attempt fail."""

    def __init__(self, node: int, attempt: int) -> None:
        super().__init__(
            f"injected fault: unit {node} attempt {attempt} killed by chaos"
        )
        self.node = node
        self.attempt = attempt


class InjectedPhaseFault(ChaosError):
    """Chaos made a service phase (compile/verify) fail."""

    def __init__(self, phase: str, round_index: int) -> None:
        super().__init__(
            f"injected fault: {phase} phase of round {round_index} "
            "killed by chaos"
        )
        self.phase = phase
        self.round_index = round_index


@dataclass(frozen=True)
class UnitChaos:
    """The injector's decision for one work-unit attempt."""

    fail: bool = False
    latency_s: float = 0.0
    kill_worker: bool = False


@dataclass(frozen=True)
class ChaosPlan:
    """Seeded description of every live-runtime fault source.

    The default-constructed plan injects nothing: executing under
    ``ChaosPlan()`` must be byte-identical to executing with no chaos
    at all.

    Parameters
    ----------
    seed:
        Root of every rng sub-stream; equal plans produce equal
        decisions and (canonically) equal fault logs.
    unit_fail_prob:
        Per-attempt probability that a dispatched unit raises
        :class:`InjectedUnitFault` instead of executing.
    unit_latency_prob / unit_latency_s:
        Per-attempt probability of an injected pre-execution sleep, and
        the uniform ``(lo, hi)`` bounds of its duration in seconds —
        the live analog of the sim's stragglers.
    worker_kill_prob / max_kills_per_unit:
        Per-attempt probability that the lane thread running the unit
        dies before executing it. Kills are capped per node (stateful
        in the injector) so supervision always wins eventually even at
        ``worker_kill_prob=1``.
    compile_fail_prob / verify_fail_prob:
        Per-round probability that the service's compile / verify
        phase raises :class:`InjectedPhaseFault` before doing any work.
    fail_units:
        Targeted one-shot injection: each listed node's *first*
        matching dispatch raises, once, on the round selected by
        ``fail_round``. Surgical tool for the plan-cache rollback
        matrix.
    fail_round:
        The injector round epoch (see :meth:`ChaosInjector.begin_round`)
        on which ``fail_units`` fire; other rounds ignore the list.
    """

    seed: int = 0
    unit_fail_prob: float = 0.0
    unit_latency_prob: float = 0.0
    unit_latency_s: tuple[float, float] = (0.001, 0.005)
    worker_kill_prob: float = 0.0
    max_kills_per_unit: int = 2
    compile_fail_prob: float = 0.0
    verify_fail_prob: float = 0.0
    fail_units: tuple[int, ...] = ()
    fail_round: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in (
            "unit_fail_prob",
            "unit_latency_prob",
            "worker_kill_prob",
            "compile_fail_prob",
            "verify_fail_prob",
        ):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        lo, hi = self.unit_latency_s
        if lo < 0.0 or lo > hi:
            raise ValueError(
                "unit_latency_s must be an ordered non-negative (lo, hi) pair"
            )
        object.__setattr__(self, "unit_latency_s", (float(lo), float(hi)))
        if self.max_kills_per_unit < 0:
            raise ValueError("max_kills_per_unit must be >= 0")
        if self.fail_round < 0:
            raise ValueError("fail_round must be >= 0")
        object.__setattr__(
            self, "fail_units", tuple(int(n) for n in self.fail_units)
        )

    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        """True when the plan injects no fault of any kind."""
        return (
            self.unit_fail_prob == 0.0
            and self.unit_latency_prob == 0.0
            and self.worker_kill_prob == 0.0
            and self.compile_fail_prob == 0.0
            and self.verify_fail_prob == 0.0
            and not self.fail_units
        )

    @classmethod
    def from_seed(cls, seed: int) -> "ChaosPlan":
        """The default adversarial mix ``repro serve --chaos-seed`` uses:
        a moderate blend of every fault source."""
        return cls(
            seed=seed,
            unit_fail_prob=0.15,
            unit_latency_prob=0.10,
            unit_latency_s=(0.0005, 0.003),
            worker_kill_prob=0.05,
            compile_fail_prob=0.03,
            verify_fail_prob=0.03,
        )

    @classmethod
    def from_fault_plan(
        cls, plan: Any, latency_scale_s: float = 0.002
    ) -> "ChaosPlan":
        """Adapt a sim :class:`~repro.sim.faults.FaultPlan`.

        ``task_fail_prob`` → unit failures, ``straggler_prob`` →
        injected latency (sim-time inflation factors become wall-clock
        sleeps scaled by ``latency_scale_s``), ``proc_fail_rate > 0`` →
        worker kills. Retry budgets/backoff stay on the executor's
        ``RetryPolicy``, mirroring how the sim keeps them on the plan.
        """
        lo, hi = plan.straggler_factor
        return cls(
            seed=plan.seed,
            unit_fail_prob=plan.task_fail_prob,
            unit_latency_prob=plan.straggler_prob,
            unit_latency_s=(latency_scale_s * lo, latency_scale_s * hi),
            worker_kill_prob=min(1.0, plan.proc_fail_rate),
        )

    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict[str, Any]:
        """Plain-dict form for ``repro serve --chaos-spec spec.json``."""
        return {
            "seed": self.seed,
            "unit_fail_prob": self.unit_fail_prob,
            "unit_latency_prob": self.unit_latency_prob,
            "unit_latency_s": list(self.unit_latency_s),
            "worker_kill_prob": self.worker_kill_prob,
            "max_kills_per_unit": self.max_kills_per_unit,
            "compile_fail_prob": self.compile_fail_prob,
            "verify_fail_prob": self.verify_fail_prob,
            "fail_units": list(self.fail_units),
            "fail_round": self.fail_round,
        }

    @classmethod
    def from_json_dict(cls, d: dict[str, Any]) -> "ChaosPlan":
        """Build a plan from :meth:`to_json_dict` output (extras
        rejected)."""
        known = set(cls.__dataclass_fields__)
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown ChaosPlan field(s): {sorted(extra)}")
        kwargs = dict(d)
        if "unit_latency_s" in kwargs:
            kwargs["unit_latency_s"] = tuple(kwargs["unit_latency_s"])
        if "fail_units" in kwargs:
            kwargs["fail_units"] = tuple(kwargs["fail_units"])
        return cls(**kwargs)


class ChaosInjector:
    """Draws per-attempt decisions and records what was injected.

    Decisions are pure functions of ``(seed, kind, round, node,
    attempt)``; the only stateful pieces are the per-node kill cap and
    the one-shot ``fail_units`` latch, both of which evolve
    deterministically given a deterministic dispatch history. The
    injector is shared across rounds (the service advances the round
    epoch via :meth:`begin_round`) and is thread-safe: worker lanes
    call :meth:`unit_outcome` concurrently.
    """

    def __init__(
        self, plan: ChaosPlan, sink: TraceSink = NULL_SINK
    ) -> None:
        self.plan = plan
        self.sink = sink
        self.log = FaultLog()
        #: injections performed (excludes bookkeeping notes)
        self.injected_total = 0
        self._round = 0
        self._origin: float | None = None
        self._kills: dict[int, int] = {}
        self._fired_targets: set[int] = set()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def begin_round(self, epoch: int) -> None:
        """Advance the round coordinate (one epoch per maintain call)."""
        self._round = epoch

    @property
    def round_epoch(self) -> int:
        return self._round

    # ------------------------------------------------------------------
    def _record(
        self, kind: str, node: int, attempt: int, *, injected: bool,
        **data: float,
    ) -> None:
        with self._lock:
            self.log.record(
                kind, 0.0, node, attempt, round=float(self._round), **data
            )
            if injected:
                self.injected_total += 1
        if self.sink.enabled:
            prefix = "chaos" if injected else "chaos-note"
            self.sink.record_instant(
                f"{prefix}:{kind}",
                args={
                    "node": node,
                    "attempt": attempt,
                    "round": self._round,
                    **data,
                },
            )

    # ------------------------------------------------------------------
    def unit_outcome(self, node: int, attempt: int) -> UnitChaos:
        """Decide what happens to one dispatched unit attempt.

        Called from worker lanes (thread-safe). Kill decisions take
        precedence — a killed lane never reaches the unit — then
        injected failure, then injected latency.
        """
        plan = self.plan
        if plan.worker_kill_prob > 0.0:
            rng = default_rng(
                [plan.seed, _K_WORKER_KILL, self._round, node, attempt]
            )
            if rng.random() < plan.worker_kill_prob:
                with self._lock:
                    kills = self._kills.get(node, 0)
                    capped = kills >= plan.max_kills_per_unit
                    if not capped:
                        self._kills[node] = kills + 1
                if not capped:
                    self._record(
                        "worker-kill", node, attempt, injected=True
                    )
                    return UnitChaos(kill_worker=True)
        fail = False
        if (
            plan.fail_units
            and self._round == plan.fail_round
            and node in plan.fail_units
        ):
            with self._lock:
                fail = node not in self._fired_targets
                if fail:
                    self._fired_targets.add(node)
        if not fail and plan.unit_fail_prob > 0.0:
            rng = default_rng(
                [plan.seed, _K_UNIT_FAIL, self._round, node, attempt]
            )
            fail = bool(rng.random() < plan.unit_fail_prob)
        if fail:
            self._record("unit-fail", node, attempt, injected=True)
            return UnitChaos(fail=True)
        if plan.unit_latency_prob > 0.0:
            rng = default_rng(
                [plan.seed, _K_UNIT_LATENCY, self._round, node, attempt]
            )
            if rng.random() < plan.unit_latency_prob:
                lo, hi = plan.unit_latency_s
                latency = float(lo + (hi - lo) * rng.random())
                self._record(
                    "unit-latency", node, attempt,
                    injected=True, latency=latency,
                )
                return UnitChaos(latency_s=latency)
        return UnitChaos()

    def phase_fails(self, phase: str) -> bool:
        """Decide whether a service phase fails this round."""
        prob = {
            "compile": self.plan.compile_fail_prob,
            "verify": self.plan.verify_fail_prob,
        }[phase]
        if prob <= 0.0:
            return False
        rng = default_rng(
            [self.plan.seed, _K_PHASE, _PHASE_CODES[phase], self._round]
        )
        if rng.random() < prob:
            self._record(
                "phase-fail", -1, 0, injected=True,
                phase=float(_PHASE_CODES[phase]),
            )
            return True
        return False

    # ------------------------------------------------------------------
    # executor-side bookkeeping notes (recorded, not counted as
    # injections)
    def note_retry(self, node: int, attempt: int, backoff_s: float) -> None:
        """Record that the executor scheduled a unit retry."""
        self._record(
            "unit-retry", node, attempt, injected=False, backoff=backoff_s
        )

    def note_quarantine(self, node: int, attempts: int) -> None:
        """Record that a unit exhausted its retry budget."""
        self._record(
            "quarantine", node, attempts, injected=False
        )

    # ------------------------------------------------------------------
    def canonical(self) -> list[dict[str, Any]]:
        """Interleaving-independent form of the fault log.

        Wall-clock timestamps are dropped and events are ordered by
        their coordinates ``(round, kind, node, attempt)``; every
        retained field is a pure function of the plan and the dispatch
        history, so replaying the same seed compares bit-identically.
        """
        with self._lock:
            events = list(self.log.events)
        rows = [
            {
                "kind": e.kind,
                "node": e.node,
                "attempt": e.attempt,
                "data": {
                    k: v for k, v in sorted(e.data.items())
                },
            }
            for e in events
        ]
        rows.sort(
            key=lambda r: (
                r["data"].get("round", 0.0),
                r["kind"],
                r["node"],
                r["attempt"],
            )
        )
        return rows

    def summary(self) -> str:
        """One-line ``kind=count`` rollup (delegates to the log)."""
        return self.log.summary()
