"""Service health state machine and circuit breaker.

The update-stream service degrades gracefully instead of failing every
round once something is wrong with the fast path:

* **healthy** — normal operation: the cached plan on the concurrent
  executor, under the scheduler.
* **degraded** — the circuit breaker opened after ``degrade_after``
  consecutive round failures. Rounds run the same cached plan serially
  on the service thread
  (:meth:`~repro.datalog.units.ExecutionPlan.execute_serial`): every
  node in level order, so no lane, no scheduler, no executor-level
  fault (worker kills, unit chaos) and no committed node value is in
  the way. After ``probe_after`` consecutive degraded successes the
  next round is a *probe* on the fast path: success closes the breaker
  back to healthy, failure reopens it.
* **failed** — ``fail_after`` consecutive failures total: even the
  serial run cannot make progress. :meth:`HealthMonitor.plan_round`
  callers are expected to raise a typed error *before* draining the
  queue, so the queue stays intact and an operator (or test) can
  :meth:`~HealthMonitor.reset` and resume.

The monitor is plain bookkeeping — it never raises and never touches
the queue; the service interprets its verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..obs.trace import NULL_SINK, TraceSink

__all__ = [
    "HealthMonitor",
    "HealthPolicy",
    "HealthState",
    "ServiceUnavailableError",
]


class HealthState(Enum):
    """The service's circuit-breaker state."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    FAILED = "failed"


class ServiceUnavailableError(RuntimeError):
    """The service's circuit breaker is open in the ``failed`` state.

    Raised before a round drains anything, so the queue — including
    any re-queued failed delta — is intact; recover with
    ``service.health.reset()`` (after fixing the cause) and resume.
    """

    def __init__(self, consecutive_failures: int) -> None:
        super().__init__(
            "service is in the failed state after "
            f"{consecutive_failures} consecutive round failure(s); "
            "queue left intact — reset the health monitor to resume"
        )
        self.consecutive_failures = consecutive_failures


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds for the health state machine.

    Parameters
    ----------
    degrade_after:
        Consecutive round failures that open the breaker (healthy →
        degraded).
    fail_after:
        Consecutive round failures that give up entirely (→ failed).
        Must exceed ``degrade_after`` so degradation gets a chance.
    probe_after:
        Consecutive *degraded* successes before the service probes the
        fast path again.
    """

    degrade_after: int = 3
    fail_after: int = 6
    probe_after: int = 2

    def __post_init__(self) -> None:
        if self.degrade_after < 1:
            raise ValueError("degrade_after must be >= 1")
        if self.fail_after <= self.degrade_after:
            raise ValueError(
                "fail_after must exceed degrade_after "
                f"(got {self.fail_after} <= {self.degrade_after})"
            )
        if self.probe_after < 1:
            raise ValueError("probe_after must be >= 1")


@dataclass
class HealthMonitor:
    """Tracks round successes/failures and drives state transitions.

    ``transitions`` records every state change as ``(round_index,
    from_state, to_state, reason)`` for reports and tests; each is also
    emitted as a ``health:*`` trace instant when a sink is attached.
    """

    policy: HealthPolicy = field(default_factory=HealthPolicy)
    sink: TraceSink = NULL_SINK
    state: HealthState = HealthState.HEALTHY
    consecutive_failures: int = 0
    #: consecutive successful rounds served degraded (serially)
    degraded_successes: int = 0
    #: the next fast-path round is a breaker probe
    probing: bool = False
    transitions: list[tuple[int, str, str, str]] = field(
        default_factory=list
    )

    # ------------------------------------------------------------------
    def _transition(
        self, round_index: int, to: HealthState, reason: str
    ) -> None:
        if to is self.state:
            return
        self.transitions.append(
            (round_index, self.state.value, to.value, reason)
        )
        if self.sink.enabled:
            self.sink.record_instant(
                f"health:{to.value}",
                args={
                    "round": round_index,
                    "from": self.state.value,
                    "reason": reason,
                },
            )
        self.state = to

    # ------------------------------------------------------------------
    def plan_round(self) -> bool:
        """Decide how the next round runs; True = degraded, serially.

        In the degraded state, once ``probe_after`` serial rounds
        have succeeded in a row the next round runs on the fast path
        as a probe (returns False with :attr:`probing` set).
        """
        if self.state is not HealthState.DEGRADED:
            return False
        if self.degraded_successes >= self.policy.probe_after:
            self.probing = True
            return False
        return True

    def record_success(self, round_index: int, degraded: bool) -> None:
        """Note a verified round; probes that succeed close the breaker."""
        self.consecutive_failures = 0
        if self.state is HealthState.HEALTHY:
            return
        if degraded:
            self.degraded_successes += 1
            return
        # a successful fast-path round while degraded is the probe
        self.probing = False
        self.degraded_successes = 0
        self._transition(round_index, HealthState.HEALTHY, "probe-succeeded")

    def record_failure(self, round_index: int, error: str) -> None:
        """Note a failed round; open/trip the breaker at thresholds."""
        self.consecutive_failures += 1
        was_probe, self.probing = self.probing, False
        if was_probe:
            # the fast path is still broken: stay degraded, restart
            # the probe countdown
            self.degraded_successes = 0
        if self.consecutive_failures >= self.policy.fail_after:
            self._transition(
                round_index, HealthState.FAILED,
                f"{self.consecutive_failures} consecutive failures "
                f"({error})",
            )
            return
        if (
            self.state is HealthState.HEALTHY
            and self.consecutive_failures >= self.policy.degrade_after
        ):
            self.degraded_successes = 0
            self._transition(
                round_index, HealthState.DEGRADED,
                f"{self.consecutive_failures} consecutive failures "
                f"({error})",
            )

    def reset(self, round_index: int = -1) -> None:
        """Operator override: close the breaker and clear counters."""
        self.consecutive_failures = 0
        self.degraded_successes = 0
        self.probing = False
        self._transition(round_index, HealthState.HEALTHY, "manual-reset")
