"""Real concurrent execution of Datalog maintenance rounds.

Everything below :mod:`repro.sim` is a discrete-event *model* of the
paper's system; this package is the system. A maintenance round is
compiled (:mod:`repro.datalog.compiler`), rebuilt as runnable units
(:mod:`repro.datalog.units`), and then driven by any registered
:class:`~repro.schedulers.base.Scheduler` over a thread pool — with
per-node output diffs, not precompiled flags, deciding activation.
There is one runtime cell, columnar batch joins over one cached plan: a
healthy round runs it on worker threads, a degraded round serially.

* :mod:`~repro.runtime.executor` — the concurrent round executor.
* :mod:`~repro.runtime.recorder` — wall-clock rounds as
  :class:`~repro.sim.result.SimulationResult` schedules, so
  :mod:`repro.verify` and :mod:`repro.sim.timeline` apply unchanged.
* :mod:`~repro.runtime.service` — the update-stream service: bounded
  queue, batch coalescing, one compile + execute + verify per round.
* :mod:`~repro.runtime.metrics` — per-round structured metrics (JSON).
* :mod:`~repro.runtime.workloads_live` — update-stream generators.
* :mod:`~repro.runtime.chaos` — deterministic fault injection for the
  live path (the runtime twin of :mod:`repro.sim.faults`).
* :mod:`~repro.runtime.health` — the service's degradation state
  machine and circuit breaker.
"""

from .chaos import (
    ChaosError,
    ChaosInjector,
    ChaosPlan,
    InjectedPhaseFault,
    InjectedUnitFault,
)
from .executor import (
    LiveActivationState,
    RetryPolicy,
    RoundExecutor,
    RoundOutcome,
    UnitExecutionError,
    UnitFailure,
)
from .health import (
    HealthMonitor,
    HealthPolicy,
    HealthState,
    ServiceUnavailableError,
)
from .metrics import MetricsLog, RoundMetrics
from .recorder import RoundArtifacts, record_round
from .service import (
    SHED_POLICIES,
    BackpressureError,
    MaterializationDivergenceError,
    RoundReport,
    RoundVerificationError,
    UpdateStreamService,
)
from .workloads_live import (
    PROGRAM_ALIASES,
    STREAM_KINDS,
    LiveWorkload,
    live_workload,
    make_stream,
)

__all__ = [
    "LiveActivationState",
    "RetryPolicy",
    "RoundExecutor",
    "RoundOutcome",
    "UnitExecutionError",
    "UnitFailure",
    "ChaosError",
    "ChaosInjector",
    "ChaosPlan",
    "InjectedPhaseFault",
    "InjectedUnitFault",
    "HealthMonitor",
    "HealthPolicy",
    "HealthState",
    "ServiceUnavailableError",
    "SHED_POLICIES",
    "RoundArtifacts",
    "record_round",
    "BackpressureError",
    "MaterializationDivergenceError",
    "RoundReport",
    "RoundVerificationError",
    "UpdateStreamService",
    "MetricsLog",
    "RoundMetrics",
    "LiveWorkload",
    "live_workload",
    "make_stream",
    "PROGRAM_ALIASES",
    "STREAM_KINDS",
]
