"""Deterministic fault injection for the simulation engine.

The paper's schedulers were built for a production system (LogicBlox)
where task re-execution can fail, stall, or lose workers mid-update.
This module describes such adversity as *data*: a :class:`FaultPlan` is
a seeded, JSON-serializable specification of

* **task failures** — a dispatched attempt fails after completing a
  fraction of its work and is retried under a capped exponential
  sim-time backoff with a per-task retry budget. Budget exhaustion
  either raises :class:`TaskFailedPermanentlyError` (``on_exhaustion=
  "raise"``) or, in ``"degrade"`` mode, quarantines the node together
  with its *pure descendants* — the nodes whose re-execution would only
  ever have been triggered through the failed task's lost output — and
  lets the rest of the active graph finish (partial completion);
* **processor churn** — processors fail and recover mid-run, killing
  their running task for requeue and shrinking/growing capacity (never
  below ``min_processors``);
* **stragglers** — selected task attempts run inflated durations.

Determinism is *counter-based*, not stream-based: every decision is
drawn from ``default_rng([seed, kind, node, attempt])``, so it depends
only on its coordinates and never on event interleaving. Replaying the
same plan over the same trace and scheduler therefore yields a
bit-identical :class:`FaultLog` — the property the chaos suite pins.

The engine records every injected event in a :class:`FaultLog` attached
to the :class:`~repro.sim.result.SimulationResult`; the offline checker
(:mod:`repro.verify.invariants`) reconstructs time-varying capacity,
failed-attempt occupancy, and fault-adjusted makespan bounds from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "FaultEvent",
    "FaultLog",
    "AttemptOutcome",
    "FaultError",
    "TaskFailedPermanentlyError",
    "NoProgressError",
    "DeadlineExceededError",
    "capped_backoff",
    "check_round_limits",
]


def capped_backoff(
    base: float, factor: float, cap: float, failure_index: int
) -> float:
    """Delay before retry ``failure_index`` (1-based):
    ``min(cap, base * factor**(k-1))``.

    The one backoff law shared by the simulator's :class:`FaultPlan`
    and the live runtime's ``RetryPolicy`` — the live path retries
    units under exactly the semantics the chaos suite pinned for the
    sim.
    """
    if failure_index < 1:
        raise ValueError(f"failure_index must be >= 1, got {failure_index}")
    return float(min(cap, base * factor ** (failure_index - 1)))

# rng sub-stream tags (first element after the seed)
_K_TASK = 1
_K_STRAGGLER = 2
_K_CHURN = 3
_K_JITTER = 4

_EXHAUSTION_MODES = ("raise", "degrade")


# ----------------------------------------------------------------------
# structured errors
# ----------------------------------------------------------------------
class FaultError(RuntimeError):
    """Base class for structured fault-simulation failures."""


class TaskFailedPermanentlyError(FaultError):
    """A task exhausted its retry budget under ``on_exhaustion="raise"``."""

    def __init__(self, node: int, attempts: int, t: float) -> None:
        super().__init__(
            f"task {node} failed permanently after {attempts} attempt(s) "
            f"at t={t:.6g}"
        )
        self.node = node
        self.attempts = attempts
        self.t = t


class NoProgressError(FaultError):
    """The engine's watchdog saw no completed task for too many events."""

    def __init__(self, events: int, pending: int, t: float) -> None:
        super().__init__(
            f"no task completed in the last {events} simulation events "
            f"({pending} task(s) still pending, sim time t={t:.6g}); "
            "likely an unbounded retry loop"
        )
        self.events = events
        self.pending = pending
        self.t = t


class DeadlineExceededError(FaultError):
    """The wall-clock deadline passed before the simulation finished."""

    def __init__(self, deadline: float, t: float, pending: int) -> None:
        super().__init__(
            f"wall-clock deadline of {deadline:.3g}s exceeded at sim "
            f"time t={t:.6g} with {pending} task(s) pending"
        )
        self.deadline = deadline
        self.t = t
        self.pending = pending


def check_round_limits(
    name: str, count: int, **limits: float | None
) -> None:
    """Refuse limits no run can honour: ``ValueError`` unless the
    ``name`` count (processors, workers) is at least 1 and each keyword
    limit (a watchdog, a deadline) is off (``None``) or positive."""
    if count <= 0:
        raise ValueError(f"{name} must be positive, got {count}")
    for limit_name, limit in limits.items():
        if limit is not None and limit <= 0:
            raise ValueError(f"{limit_name} must be positive, got {limit}")


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of every fault source for one simulation.

    The default-constructed plan injects nothing: ``FaultPlan()`` is the
    identity, and ``simulate(..., faults=FaultPlan())`` must reproduce a
    fault-free run byte for byte.

    Parameters
    ----------
    seed:
        Root of every rng sub-stream; two runs with equal plans produce
        bit-identical fault logs.
    task_fail_prob:
        Per-attempt probability that a dispatched task fails mid-run.
    fail_fraction:
        ``(lo, hi)`` — a failing attempt dies after completing a
        uniform fraction of its (possibly inflated) duration.
    max_retries:
        Retries allowed after the first failure; ``None`` means
        unlimited (pair with a watchdog/deadline). ``0`` means the
        first failure is already permanent.
    backoff_base / backoff_factor / backoff_cap:
        Sim-time delay before retry ``k`` (1-based):
        ``min(cap, base * factor**(k-1))``.
    on_exhaustion:
        ``"raise"`` — abort the simulation with
        :class:`TaskFailedPermanentlyError`; ``"degrade"`` — quarantine
        the node and its pure descendants and finish the rest.
    proc_fail_rate:
        Expected processor failures per unit sim time (exponential
        inter-failure gaps). ``0`` disables churn.
    proc_downtime:
        ``(lo, hi)`` — uniform sim-time repair duration per failure.
    min_processors:
        Capacity floor; failures that would drop below it are recorded
        but not applied.
    straggler_prob:
        Per-attempt probability of duration inflation.
    straggler_factor:
        ``(lo, hi)`` — uniform inflation factor for stragglers.
    """

    seed: int = 0
    task_fail_prob: float = 0.0
    fail_fraction: tuple[float, float] = (0.1, 0.9)
    max_retries: int | None = 3
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    backoff_cap: float = 8.0
    on_exhaustion: str = "raise"
    proc_fail_rate: float = 0.0
    proc_downtime: tuple[float, float] = (1.0, 5.0)
    min_processors: int = 1
    straggler_prob: float = 0.0
    straggler_factor: tuple[float, float] = (1.5, 4.0)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.task_fail_prob <= 1.0:
            raise ValueError(
                f"task_fail_prob must be in [0, 1], got {self.task_fail_prob}"
            )
        if not 0.0 <= self.straggler_prob <= 1.0:
            raise ValueError(
                f"straggler_prob must be in [0, 1], got {self.straggler_prob}"
            )
        for name in ("fail_fraction", "proc_downtime", "straggler_factor"):
            pair = getattr(self, name)
            if len(pair) != 2 or pair[0] > pair[1]:
                raise ValueError(f"{name} must be an ordered (lo, hi) pair")
            object.__setattr__(self, name, (float(pair[0]), float(pair[1])))
        lo, hi = self.fail_fraction
        if lo < 0.0 or hi > 1.0:
            raise ValueError("fail_fraction bounds must lie in [0, 1]")
        if self.straggler_factor[0] < 1.0:
            raise ValueError("straggler_factor must be >= 1")
        if self.max_retries is not None and self.max_retries < 0:
            raise ValueError("max_retries must be >= 0 or None")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base/backoff_cap must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.on_exhaustion not in _EXHAUSTION_MODES:
            raise ValueError(
                f"on_exhaustion must be one of {_EXHAUSTION_MODES}, "
                f"got {self.on_exhaustion!r}"
            )
        if self.proc_fail_rate < 0:
            raise ValueError("proc_fail_rate must be >= 0")
        if self.proc_downtime[0] < 0:
            raise ValueError("proc_downtime must be >= 0")
        if self.min_processors < 1:
            raise ValueError("min_processors must be >= 1")

    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        """True when the plan injects no fault of any kind."""
        return (
            self.task_fail_prob == 0.0
            and self.proc_fail_rate == 0.0
            and self.straggler_prob == 0.0
        )

    def backoff_delay(self, failure_index: int) -> float:
        """Sim-time delay before retry ``failure_index`` (1-based)."""
        return capped_backoff(
            self.backoff_base,
            self.backoff_factor,
            self.backoff_cap,
            failure_index,
        )

    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict[str, Any]:
        """Plain-dict form for ``repro simulate --faults spec.json``."""
        return {
            "seed": self.seed,
            "task_fail_prob": self.task_fail_prob,
            "fail_fraction": list(self.fail_fraction),
            "max_retries": self.max_retries,
            "backoff_base": self.backoff_base,
            "backoff_factor": self.backoff_factor,
            "backoff_cap": self.backoff_cap,
            "on_exhaustion": self.on_exhaustion,
            "proc_fail_rate": self.proc_fail_rate,
            "proc_downtime": list(self.proc_downtime),
            "min_processors": self.min_processors,
            "straggler_prob": self.straggler_prob,
            "straggler_factor": list(self.straggler_factor),
        }

    @classmethod
    def from_json_dict(cls, d: dict[str, Any]) -> "FaultPlan":
        """Build a plan from :meth:`to_json_dict` output (extras rejected)."""
        known = set(cls.__dataclass_fields__)
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown FaultPlan field(s): {sorted(extra)}")
        kwargs = dict(d)
        for name in ("fail_fraction", "proc_downtime", "straggler_factor"):
            if name in kwargs:
                kwargs[name] = tuple(kwargs[name])
        return cls(**kwargs)


# ----------------------------------------------------------------------
# per-attempt decisions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AttemptOutcome:
    """What the injector decided for one (node, attempt) dispatch."""

    #: this attempt fails mid-run
    fails: bool
    #: fraction of the attempt's duration completed before failing
    fail_fraction: float
    #: duration inflation factor (1.0 = not a straggler)
    inflation: float


class FaultInjector:
    """Stateful decision source driving one simulation run.

    Task/straggler decisions are pure functions of ``(node, attempt)``;
    the only mutable state is the churn cursor, which advances through a
    deterministic failure timeline.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._churn_index = 0

    # -- task attempts -------------------------------------------------
    def attempt_outcome(self, node: int, attempt: int) -> AttemptOutcome:
        """Decide failure/straggler behavior for one dispatch attempt."""
        plan = self.plan
        fails = False
        frac = 0.0
        if plan.task_fail_prob > 0.0:
            rng = np.random.default_rng(
                [plan.seed, _K_TASK, node, attempt]
            )
            fails = bool(rng.random() < plan.task_fail_prob)
            lo, hi = plan.fail_fraction
            frac = float(lo + (hi - lo) * rng.random())
        inflation = 1.0
        if plan.straggler_prob > 0.0:
            rng = np.random.default_rng(
                [plan.seed, _K_STRAGGLER, node, attempt]
            )
            if rng.random() < plan.straggler_prob:
                lo, hi = plan.straggler_factor
                inflation = float(lo + (hi - lo) * rng.random())
        return AttemptOutcome(
            fails=fails, fail_fraction=frac, inflation=inflation
        )

    def exhausted(self, failures: int) -> bool:
        """Whether ``failures`` failures exceed the retry budget."""
        budget = self.plan.max_retries
        return budget is not None and failures > budget

    # -- processor churn ----------------------------------------------
    def churn_timeline(self) -> Iterator[tuple[float, float]]:
        """Yield ``(gap_since_previous_failure, downtime)`` forever.

        The sequence is a deterministic function of the plan seed and
        the churn index alone, so the engine may consume it lazily.
        """
        plan = self.plan
        if plan.proc_fail_rate <= 0.0:
            return
        scale = 1.0 / plan.proc_fail_rate
        while True:
            rng = np.random.default_rng(
                [plan.seed, _K_CHURN, self._churn_index]
            )
            self._churn_index += 1
            gap = float(rng.exponential(scale))
            lo, hi = plan.proc_downtime
            downtime = float(lo + (hi - lo) * rng.random())
            yield gap, downtime


# ----------------------------------------------------------------------
# the log
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultEvent:
    """One injected fault (or its consequence) at a sim-time instant.

    ``kind`` is one of:

    * ``"task-fail"`` — an attempt died; ``data`` holds ``start``,
      ``alloc``, ``lost`` (processor-seconds thrown away) and, when a
      retry follows, ``backoff``;
    * ``"task-retry"`` — a failed task became dispatchable again;
    * ``"quarantine"`` — degrade mode suppressed this node (the failed
      task itself or a pure descendant);
    * ``"proc-fail"`` / ``"proc-recover"`` — capacity shrank/grew;
      ``data`` holds ``applied`` (0 when the floor blocked it) and, on
      failures, ``downtime``;
    * ``"proc-kill"`` — a churn failure evicted a running task;
      ``data`` holds ``start``, ``alloc``, ``lost``;
    * ``"straggler"`` — an attempt's duration was inflated; ``data``
      holds ``factor``.
    """

    kind: str
    time: float
    node: int = -1
    attempt: int = 0
    data: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "time": self.time,
            "node": self.node,
            "attempt": self.attempt,
            "data": dict(self.data),
        }

    @classmethod
    def from_json_dict(cls, d: dict[str, Any]) -> "FaultEvent":
        return cls(
            kind=d["kind"],
            time=float(d["time"]),
            node=int(d.get("node", -1)),
            attempt=int(d.get("attempt", 0)),
            data={k: float(v) for k, v in d.get("data", {}).items()},
        )


class FaultLog:
    """Ordered record of every fault event in one run."""

    def __init__(self, events: list[FaultEvent] | None = None) -> None:
        self.events: list[FaultEvent] = list(events or [])

    def record(
        self,
        kind: str,
        time: float,
        node: int = -1,
        attempt: int = 0,
        **data: float,
    ) -> None:
        """Append one event (engine-side)."""
        self.events.append(
            FaultEvent(
                kind=kind,
                time=time,
                node=node,
                attempt=attempt,
                data={k: float(v) for k, v in data.items()},
            )
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultLog):
            return NotImplemented
        return self.events == other.events

    def kinds(self) -> dict[str, int]:
        """Event count per kind (for summaries and tests)."""
        out: dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def select(self, kind: str) -> list[FaultEvent]:
        """All events of one kind, in order."""
        return [e for e in self.events if e.kind == kind]

    def to_json_list(self) -> list[dict[str, Any]]:
        return [e.to_json_dict() for e in self.events]

    @classmethod
    def from_json_list(cls, items: list[dict[str, Any]]) -> "FaultLog":
        return cls([FaultEvent.from_json_dict(d) for d in items])

    def summary(self) -> str:
        """One-line ``kind=count`` rollup."""
        if not self.events:
            return "no faults"
        parts = [f"{k}={v}" for k, v in sorted(self.kinds().items())]
        return ", ".join(parts)
