"""The update-stream service: queued fact updates → maintenance rounds.

Producers :meth:`~UpdateStreamService.submit` :class:`Delta` batches
onto a bounded queue; the service thread (whoever calls
:meth:`~UpdateStreamService.run_round`) drains *everything* queued at
that moment, merges it into one net delta (later operations win, so the
merged round is equivalent to applying the batches in order), compiles
the activation set for the current accumulated EDB, executes it
concurrently under the configured scheduler, records the round as a
simulator-compatible schedule, and verifies it:

* every recorded round passes the strict invariant checker
  (:func:`repro.verify.check_invariants`) over its measured timeline;
* the materialization assembled from the executed units is compared —
  relation by relation — against an independent from-scratch semi-naive
  evaluation of the accumulated database, run inside the ``verify``
  phase (it is the only evaluation a round contains).

Backpressure is the bounded queue: when it is full, non-blocking
submits raise :class:`BackpressureError` and blocking submits wait,
slowing producers to the service's round rate.

Failed-round policy
-------------------
A round can fail mid-flight — an executor deadline, a work unit
raising, a strict verification failure
(:class:`RoundVerificationError` / :class:`MaterializationDivergenceError`).
Failure must never corrupt the queue or lose updates, so
:meth:`~UpdateStreamService.run_round` guarantees:

* ``task_done()`` is called for every drained batch whether the round
  succeeds or not (``try/finally``), so producers blocked in
  ``Queue.join()`` always wake;
* the round's merged delta is **re-queued at the front** — it merges
  ahead of newer batches into the next round — for up to
  ``max_round_retries`` consecutive failures;
* when the retry budget is exhausted the delta is dropped from the
  service but surfaced to the caller on the raised exception
  (``exc.failed_delta``; ``exc.delta_requeued`` says which path was
  taken), so callers can recover or re-submit;
* the EDB is only advanced *after* verification, so a failed round
  leaves ``database()`` exactly where the last successful round left
  it — producers' live-EDB mirrors stay consistent.

Tracing
-------
Pass a recording :class:`~repro.obs.TraceSink` as ``sink`` and every
round emits nested spans — ``queue_wait`` / ``drain`` / ``merge``,
then a ``round`` span containing ``compile`` / ``plan-build`` /
``execute`` (itself containing the executor's per-unit worker spans
and scheduler decision counters) / ``verify`` — which the Chrome
exporter renders as one timeline. ``merge`` starts where the round's
``latency_s`` starts and closes just inside ``round``, so the latency
is ``merge`` + ``round``. With the default
:data:`~repro.obs.NULL_SINK` all instrumentation is no-op.

One scheduler *instance* serves every round — ``reset_counters`` (which
also clears the bound readiness oracle's pending events) is the
between-rounds reset, exercised here exactly as the scheduler ABC
promises.
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from time import perf_counter
from typing import Callable

from ..datalog.ast import Program
from ..datalog.compiler import CompiledUpdate
from ..datalog.database import Database
from ..datalog.plancache import CompiledProgramCache
from ..datalog.zset import (
    Delta,
    ZSetDelta,
    check_edb,
    check_update,
    effective_zdelta,
    merge_deltas,
)
from ..datalog.units import ExecutionPlan, ValueStore
from ..obs import NULL_SINK, TraceSink
from ..schedulers.base import Scheduler
from ..sim.faults import check_round_limits
from ..verify.invariants import VerificationReport
from ..verify.program import ProgramAnalysis
from .chaos import ChaosInjector, ChaosPlan, InjectedPhaseFault
from .executor import (
    Lanes,
    RetryPolicy,
    RoundExecutor,
    RoundOutcome,
    UnitExecutionError,
)
from .health import (
    HealthMonitor,
    HealthPolicy,
    HealthState,
    ServiceUnavailableError,
)
from .metrics import MetricsLog, RoundMetrics
from .recorder import RoundArtifacts, record_round

__all__ = [
    "BackpressureError",
    "MaterializationDivergenceError",
    "RoundReport",
    "RoundVerificationError",
    "ServiceUnavailableError",
    "UpdateStreamService",
    "SHED_POLICIES",
]

#: load-shedding behavior when backpressure and degradation coincide
SHED_POLICIES = ("reject", "drop-oldest", "coalesce-harder")


class BackpressureError(RuntimeError):
    """The update queue is full (and stayed full past any timeout).

    Carries the queue state at raise time so producers can decide what
    to do: ``pending_batches`` (queued batches plus any re-queued
    failed delta) and ``capacity`` (the configured queue bound).
    """

    def __init__(
        self, message: str, pending_batches: int = 0, capacity: int = 0
    ) -> None:
        super().__init__(message)
        self.pending_batches = pending_batches
        self.capacity = capacity


class MaterializationDivergenceError(RuntimeError):
    """A round's output differs from from-scratch evaluation."""

    def __init__(self, round_index: int, detail: str) -> None:
        super().__init__(
            f"round {round_index}: runtime materialization diverges from "
            f"from-scratch semi-naive evaluation ({detail})"
        )
        self.round_index = round_index


class RoundVerificationError(AssertionError):
    """Strict mode: a recorded round failed the invariant checker.

    Carries the failing :class:`~repro.verify.VerificationReport` so
    callers can catch by type and inspect the violations — the typed
    replacement for the bare ``AssertionError`` this path used to
    raise (subclassing it keeps old ``except AssertionError`` callers
    working).
    """

    def __init__(self, round_index: int, report: VerificationReport) -> None:
        super().__init__(
            f"round {round_index} failed invariants:\n"
            + "\n".join(v.format() for v in report.violations)
        )
        self.round_index = round_index
        self.report = report


@dataclass
class RoundReport:
    """Everything one service round produced."""

    index: int
    #: the net delta the round maintained (batches merged)
    delta: Delta
    metrics: RoundMetrics
    #: ``None`` for no-op rounds — an effectively empty delta skips
    #: compilation entirely
    compiled: CompiledUpdate | None = None
    #: ``None`` for degraded rounds — a serial run produces no
    #: concurrent schedule to record
    artifacts: RoundArtifacts | None = None
    verification: VerificationReport | None = None
    #: did the runtime materialization match from-scratch evaluation?
    #: Always, on a returned report: a round that diverges raises
    materialization_ok: bool = True


def _differing_facts(a: Database, b: Database | None) -> int:
    """How many facts are in exactly one of ``a`` and ``b`` (``None``:
    the empty database). Relation by relation, on the relations' own
    storage; a relation both hold by identity costs nothing."""
    theirs = {} if b is None else b.relations
    n = 0
    for pred in a.relations.keys() | theirs.keys():
        x, y = a.relations.get(pred), theirs.get(pred)
        if x is None or y is None:
            n += len(y if x is None else x)
        elif x is not y and x != y:
            n += x.diff_count(y)
    return n


class UpdateStreamService:
    """Drives real incremental maintenance over a stream of updates.

    Parameters
    ----------
    program, edb:
        The Datalog program and its initial EDB. The service owns a
        private copy of the EDB and accumulates every maintained delta
        into it. An EDB relation whose arity is not the program's for
        its predicate raises ``ValueError`` here
        (:func:`~repro.datalog.zset.check_edb`).
    scheduler:
        The one scheduler instance reused across all rounds.
    workers:
        Processors per round: the serving thread and ≤ ``workers − 1``
        lanes. The lanes are the service's: each is started by the
        first hand-off that needs it, parks between rounds, and runs
        until :meth:`close`.
    executor, storage, plan_cache:
        Accept only ``"thread"``, ``"columnar"`` and ``True``: the
        process executor backend, the row storage layout and cold
        compilation were removed. Every round compiles through
        :attr:`plan_cache` and runs the columnar batch joins of
        :mod:`repro.datalog.columnar` — on worker threads under the
        scheduler, or, degraded, serially on the service thread (see
        ``health``).
    capacity:
        Bound of the update queue (backpressure threshold).
    verify:
        Run the strict invariant checker on every recorded round and
        compare the executed materialization with an independent
        from-scratch evaluation of the round's new EDB — the one
        evaluation a round contains, inside its ``verify`` phase.
        ``False`` serves rounds with no evaluation in them.
    strict:
        Accepts only ``True``: a round whose check fails always raises
        (:class:`RoundVerificationError` /
        :class:`MaterializationDivergenceError`), rolls back and is
        retried under the failed-round policy.
    deadline_s:
        Optional per-round wall-clock deadline handed to the executor.
    max_round_retries:
        How many consecutive failed rounds re-queue their merged delta
        at the front before it is dropped (and surfaced on the raised
        exception). See the module docstring's failed-round policy.
    sink:
        Trace sink for per-round spans; the default no-op sink makes
        every instrumentation point free.
    unit_retries / unit_backoff_s / unit_timeout_s:
        Executor fault tolerance: retry budget per work unit (0 keeps
        the historical fail-fast round), base of the capped exponential
        backoff between attempts, and the soft per-unit straggler
        watchdog.
    chaos:
        Optional :class:`~repro.runtime.chaos.ChaosPlan`; when set (and
        non-empty) a shared :class:`~repro.runtime.chaos.ChaosInjector`
        is threaded through every round's compile/execute/verify. The
        injector is exposed as :attr:`chaos` for inspection.
    health:
        Thresholds of the degradation state machine
        (:class:`~repro.runtime.health.HealthPolicy`); the live monitor
        is exposed as :attr:`health`. Repeated round failures open the
        circuit breaker: rounds run the same cached plan serially on
        the service thread — no lanes, no scheduler, no executor-level
        chaos — then probe back.
    shed_policy:
        What :meth:`submit` does when the queue is full *while the
        service is degraded*: ``"reject"`` raises
        :class:`BackpressureError` immediately (even for blocking
        submits), ``"drop-oldest"`` evicts the oldest queued batch,
        ``"coalesce-harder"`` merges the entire queue plus the new
        batch into one slot. While healthy, submits behave normally.

    Weighted no-op rounds
    ---------------------
    Every round first clamps its merged delta against the live EDB
    into a weighted Z-set (:func:`~repro.datalog.zset.effective_zdelta`)
    — inserts of present facts, deletes of absent facts, and
    insert/delete pairs that cancel within the round all coalesce
    away. The number of operations removed is reported as
    ``cancelled_ops`` on the round's metrics. When *everything*
    cancels and a materialization already exists, the round skips
    compile/plan/execute/verify entirely and emits a
    ``noop=True`` metrics record — cancelled pairs are work the
    service never does.
    """

    def __init__(
        self,
        program: Program,
        edb: Database,
        scheduler: Scheduler,
        workers: int = 4,
        executor: str = "thread",
        storage: str = "columnar",
        capacity: int = 64,
        verify: bool = True,
        strict: bool = True,
        deadline_s: float | None = None,
        name: str = "live",
        max_round_retries: int = 2,
        sink: TraceSink = NULL_SINK,
        plan_cache: bool = True,
        analyze: bool = True,
        unit_retries: int = 0,
        unit_backoff_s: float = 0.02,
        unit_timeout_s: float | None = None,
        chaos: ChaosPlan | None = None,
        health: HealthPolicy | None = None,
        shed_policy: str = "reject",
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if max_round_retries < 0:
            raise ValueError(
                f"max_round_retries must be >= 0, got {max_round_retries}"
            )
        if unit_retries < 0:
            raise ValueError(
                f"unit_retries must be >= 0, got {unit_retries}"
            )
        if shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {SHED_POLICIES}, "
                f"got {shed_policy!r}"
            )
        check_round_limits(
            "workers", workers, unit_timeout_s=unit_timeout_s,
            deadline=deadline_s,
        )
        # accept-one-value arguments, neither stored nor forwarded:
        # benchmarks/e2e/measure.py still passes them; the benchmark's
        # next change drops all five
        for arg, got, only, gone in (
            ("executor", executor, "thread",
             "the process executor backend was removed; units run on "
             "worker threads"),
            ("storage", storage, "columnar",
             "the row storage layout was removed; rounds are always "
             "columnar"),
            ("plan_cache", plan_cache, True,
             "cold compilation was removed; every round compiles "
             "through the plan cache"),
            ("analyze", analyze, True,
             "the analyzer is off the serving path; the rule planner "
             "orders every join"),
            ("strict", strict, True,
             "lenient mode was removed; a round whose check fails "
             "raises, rolls back and is retried"),
        ):
            if got != only:
                raise ValueError(f"{arg}={got!r}: {gone}")
        check_edb(program, edb)
        self.program = program
        self.scheduler = scheduler
        self.workers = workers
        self.verify = verify
        self.deadline_s = deadline_s
        self.name = name
        self.max_round_retries = max_round_retries
        self.sink = sink
        self.metrics = MetricsLog()
        #: every round compiles and plans through it (the program's
        #: static DAG and bound plan are restamped, this round's Z-sets
        #: are against the previous round's verified node values,
        #: untouched relations keep their hash indexes); committed only
        #: after verification succeeds and rolled back on a failed
        #: round. Its ``plancache.*`` counters land in
        #: ``self.metrics.registry``.
        self.plan_cache = CompiledProgramCache(
            program,
            metrics=self.metrics.registry,
            sink=sink,
        )
        #: what :meth:`submit` checks a fact's length against (a
        #: derived predicate it refuses outright): the arity fixed by
        #: the program's atoms, the initial EDB, or the first accepted
        #: batch that mentions the predicate
        self._arity = {p: rel.arity for p, rel in edb.relations.items()}
        self._arity.update(program.arities())
        self._door = threading.Lock()
        self.unit_timeout_s = unit_timeout_s
        self.shed_policy = shed_policy
        #: executor retry policy (``unit_retries=0``: fail fast)
        self.unit_retry = RetryPolicy(
            max_retries=unit_retries, backoff_base=unit_backoff_s
        )
        #: the live chaos injector (``None`` without a non-empty plan)
        self.chaos: ChaosInjector | None = (
            ChaosInjector(chaos, sink=sink)
            if chaos is not None and not chaos.is_empty()
            else None
        )
        #: the degradation state machine / circuit breaker
        self.health = HealthMonitor(
            policy=health or HealthPolicy(), sink=sink
        )
        #: batches evicted by load shedding since construction
        self.shed_batches = 0
        #: units quarantined by aborted rounds since construction
        self.quarantined_units_total = 0
        self._edb = edb.copy()
        #: (delta, enqueue stamp) pairs; the stamp feeds queue_wait_s
        self._queue: queue.Queue[tuple[Delta, float]] = queue.Queue(
            maxsize=capacity
        )
        #: failed rounds' merged deltas, consumed before the queue
        self._retry: deque[tuple[Delta, float]] = deque()
        self._round_attempts = 0
        self._rounds_run = 0
        #: chaos round coordinate: one epoch per maintain attempt, so a
        #: retried round draws fresh decisions
        self._maintain_epoch = 0
        self._materialization: Database | None = None
        #: the lane threads every healthy round hands units to
        self._lanes = Lanes()

    def close(self) -> None:
        """Stop and join the service's lane threads; idempotent.

        Call it between rounds. A round served after it starts lanes
        again on demand. The lanes are daemon threads, so a service
        nobody closes does not hold the interpreter, and one that is
        freed stops them.
        """
        self._lanes.close()

    @cached_property
    def analysis(self) -> ProgramAnalysis:
        """The program's whole-program static analysis, computed on its
        first read. No round reads it: the rule planner orders every
        join. Kept only for benchmarks/e2e/layers.py, which reads it."""
        from ..verify.program import analyze_program

        return analyze_program(self.program)

    # ------------------------------------------------------------------
    # producer side
    def submit(
        self,
        delta: Delta,
        block: bool = True,
        timeout: float | None = None,
    ) -> None:
        """Enqueue one update batch; the bounded queue is backpressure.

        A blocking submit with ``timeout=`` raises
        :class:`BackpressureError` (carrying ``pending_batches`` and
        ``capacity``) once the queue stays full that long, instead of
        waiting forever. While the service is degraded, a full queue is
        handled by :attr:`shed_policy` — see the class docstring.

        A batch no round could maintain — it targets a derived
        predicate, or a fact's length disagrees with the predicate's
        arity in the program, the EDB, an earlier accepted batch or
        this one — raises ``ValueError`` here and enqueues nothing:
        rounds coalesce every producer's batches, so one accepted at
        the door would fail the merged round for all of them. A
        predicate nobody mentions is legal; its first accepted batch
        fixes its arity.
        """
        self._check_batch(delta)
        if self.health.state is not HealthState.HEALTHY:
            self._submit_degraded(delta, block, timeout)
            return
        try:
            self._queue.put((delta, perf_counter()), block=block,
                            timeout=timeout)
        except queue.Full:
            raise self._backpressure() from None

    def _check_batch(self, delta: Delta) -> None:
        """Raise ``ValueError`` for a batch :meth:`submit` must refuse;
        record the arity of any predicate an accepted one introduces."""
        derived = self.program.idb_predicates()
        with self._door:  # producers race to introduce a predicate
            self._arity.update(check_update(delta, derived, self._arity.get))

    def _backpressure(self) -> BackpressureError:
        return BackpressureError(
            f"update queue full ({self._queue.maxsize} batches) — "
            "the service is not keeping up",
            pending_batches=self.pending_batches(),
            capacity=self._queue.maxsize,
        )

    def _submit_degraded(
        self, delta: Delta, block: bool, timeout: float | None
    ) -> None:
        """Submit under degradation: shed load instead of piling on.

        ``reject`` fails fast (no blocking — a degraded service is the
        one case where waiting on it is wrong), ``drop-oldest`` evicts
        queued batches until the new one fits, ``coalesce-harder``
        folds the whole queue plus the new batch into a single slot.
        """
        now = perf_counter()
        if self.shed_policy == "coalesce-harder":
            batches: list[Delta] = []
            stamps: list[float] = []
            while True:
                try:
                    d, ts = self._queue.get_nowait()
                except queue.Empty:
                    break
                batches.append(d)
                stamps.append(ts)
                self._queue.task_done()
            if batches:
                self.shed_batches += len(batches)
                if self.sink.enabled:
                    self.sink.record_instant(
                        "load-shed",
                        args={
                            "policy": "coalesce-harder",
                            "batches": len(batches) + 1,
                        },
                    )
                # later operations win in merge order, so the fresh
                # batch goes last; the merged slot keeps the oldest
                # stamp so queue_wait_s stays honest
                delta = merge_deltas([*batches, delta])
                now = min([*stamps, now])
            self._queue.put((delta, now))
            return
        while True:
            try:
                self._queue.put_nowait((delta, now))
                return
            except queue.Full:
                if self.shed_policy == "reject":
                    raise self._backpressure() from None
            # drop-oldest: evict and retry
            try:
                old = self._queue.get_nowait()
            except queue.Empty:
                continue
            del old
            self._queue.task_done()
            self.shed_batches += 1
            if self.sink.enabled:
                self.sink.record_instant(
                    "load-shed", args={"policy": "drop-oldest", "batches": 1}
                )

    def pending_batches(self) -> int:
        """Approximate number of queued, not-yet-maintained batches
        (including a failed round's re-queued delta, if any)."""
        return self._queue.qsize() + len(self._retry)

    # ------------------------------------------------------------------
    # service side
    def database(self) -> Database:
        """Copy of the accumulated EDB (all maintained batches applied)."""
        return self._edb.copy()

    def materialization(self) -> Database | None:
        """The last round's full materialization (``None`` before any).

        Read-only, and shared with the service: derived relations are
        the id-rows the round left, and whoever first reads one's facts
        (iteration, ``in``, ``match``, ``as_dict``) pays for externing
        it, once — the value tuples stay on the relation, also for the
        later rounds that carry it over unchanged. ``len`` and ``==``
        extern nothing.
        """
        return self._materialization

    def _drain(
        self, block: bool, timeout: float | None
    ) -> tuple[list[Delta], list[float], int]:
        """Pop everything pending right now (first pop may block).

        A failed round's re-queued delta comes first — ahead of newer
        queue batches — and suppresses blocking (the retry must not
        wait for fresh input). Returns the batches, their enqueue
        stamps, and how many came off the queue (= how many
        ``task_done()`` calls the round owes).
        """
        batches: list[Delta] = []
        stamps: list[float] = []
        for delta, ts in self._retry:
            batches.append(delta)
            stamps.append(ts)
        self._retry.clear()
        n_queue = 0
        if not batches:
            try:
                delta, ts = self._queue.get(block=block, timeout=timeout)
            except queue.Empty:
                return batches, stamps, 0
            batches.append(delta)
            stamps.append(ts)
            n_queue = 1
        while True:
            try:
                delta, ts = self._queue.get_nowait()
            except queue.Empty:
                return batches, stamps, n_queue
            batches.append(delta)
            stamps.append(ts)
            n_queue += 1

    def run_round(
        self, block: bool = False, timeout: float | None = None
    ) -> RoundReport | None:
        """Maintain everything queued right now as one round.

        Returns ``None`` when the queue is empty (after blocking up to
        ``timeout`` if requested). Batches that arrive while a round is
        in flight wait for — and are coalesced into — the next round.

        On failure the queue's unfinished-task accounting is settled
        regardless (producers in ``Queue.join()`` never hang) and the
        merged delta follows the failed-round policy (module
        docstring): front-re-queue within ``max_round_retries``,
        otherwise surfaced as ``exc.failed_delta`` on the re-raised
        exception.

        In the ``failed`` health state this raises
        :class:`~repro.runtime.health.ServiceUnavailableError` *before*
        draining anything, so the queue (and any re-queued delta) is
        intact for recovery.
        """
        if self.health.state is HealthState.FAILED:
            raise ServiceUnavailableError(self.health.consecutive_failures)
        depth = self.pending_batches()
        t_drain = perf_counter()
        batches, stamps, n_queue = self._drain(block, timeout)
        if not batches:
            return None
        t_round = perf_counter()
        sink = self.sink
        oldest = min(stamps)
        queue_wait_s = max(0.0, t_round - oldest)
        delta = merge_deltas(batches)
        if sink.enabled:
            sink.record_span_abs(
                "queue_wait", "queue", oldest, t_round,
                args={"batches": len(batches)},
            )
            sink.record_span_abs(
                "drain", "phase", t_drain, t_round,
                args={"batches": len(batches), "from_queue": n_queue},
            )
        degraded = self.health.plan_round()
        try:
            report = self._maintain(
                delta, len(batches), depth, t_round, queue_wait_s,
                degraded=degraded,
            )
        except BaseException as exc:
            self.health.record_failure(self._rounds_run, type(exc).__name__)
            self._note_failed_round(delta, oldest, exc)
            raise
        finally:
            for _ in range(n_queue):
                self._queue.task_done()
        if not report.metrics.noop:
            # a round that executed nothing is evidence of nothing: the
            # breaker's counters (and a pending probe) stay as they were
            self.health.record_success(report.index, degraded)
        self._round_attempts = 0
        return report

    def _note_failed_round(
        self, delta: Delta, enqueued_at: float, exc: BaseException
    ) -> None:
        """Apply the failed-round policy before the exception re-raises."""
        # drop anything the failed round staged or patched; the retry
        # recompiles from the last *committed* baseline
        self.plan_cache.rollback()
        if isinstance(exc, UnitExecutionError):
            self.quarantined_units_total += len(exc.failures)
        self._round_attempts += 1
        requeued = self._round_attempts <= self.max_round_retries
        if requeued:
            self._retry.appendleft((delta, enqueued_at))
        else:
            # budget exhausted: drop the poison delta from the service
            # (the caller holds it via exc.failed_delta) and reset the
            # budget for whatever round comes next
            self._round_attempts = 0
        exc.failed_delta = delta  # type: ignore[attr-defined]
        exc.delta_requeued = requeued  # type: ignore[attr-defined]
        if self.sink.enabled:
            self.sink.record_instant(
                "round-failed",
                args={
                    "round": self._rounds_run,
                    "error": type(exc).__name__,
                    "requeued": requeued,
                    "attempt": self._round_attempts if requeued else (
                        self.max_round_retries + 1
                    ),
                },
            )

    def _pool_round_stats(self, since: dict[str, int]) -> dict[str, int]:
        """The pool fields of :class:`RoundMetrics` for the round that
        just finished, healthy or degraded — both run on the cache's one
        pool: its table size, and how far each ``columnar_*`` counter
        moved past ``since``, the pool's stats when the round began.
        Rows a reader of the materialization externs between two rounds
        therefore belong to neither."""
        return {
            name: n if name == "intern_table_size" else n - since[name]
            for name, n in self.plan_cache.pool.stats().items()
        }

    def _noop_round(
        self,
        delta: Delta,
        n_batches: int,
        depth: int,
        t_round: float,
        queue_wait_s: float,
        cancelled: int,
    ) -> RoundReport:
        """Settle a round whose effective delta is empty.

        Compile, plan, execute, verify, chaos — all skipped: the EDB
        and the committed materialization are already correct. Only
        the metrics record (``noop=True``, ``cancelled_ops``) and the
        round counter advance.
        """
        if self.sink.enabled:
            self.sink.record_span_abs(
                "merge", "phase", t_round, perf_counter()
            )
            self.sink.record_instant(
                "round-noop",
                args={
                    "round": self._rounds_run,
                    "batches": n_batches,
                    "cancelled_ops": cancelled,
                },
            )
        metrics = RoundMetrics(
            index=self._rounds_run,
            trace_name=f"{self.name}:r{self._rounds_run}:noop",
            scheduler=self.scheduler.name,
            workers=self.workers,
            batches_coalesced=n_batches,
            queue_depth=depth,
            latency_s=perf_counter() - t_round,
            queue_wait_s=queue_wait_s,
            cancelled_ops=cancelled,
            noop=True,
        )
        self.metrics.append(metrics)
        self._rounds_run += 1
        return RoundReport(index=metrics.index, delta=delta, metrics=metrics)

    def _maintain(
        self,
        delta: Delta,
        n_batches: int,
        depth: int,
        t_round: float,
        queue_wait_s: float,
        degraded: bool,
    ) -> RoundReport:
        """One merged round: clamp (or no-op), compile, execute, verify,
        commit, metrics.

        Every round is staged onto the cached static DAG, executed,
        compared with the from-scratch evaluation and committed to the
        cache. ``degraded`` — the breaker's verdict, taken once in
        :meth:`run_round` — decides only how the units are called: by
        the executor under the scheduler, whose recorded schedule is
        then invariant-checked, or serially, every node in level order
        on the service thread, which records none. Each phase returns the
        :class:`RoundMetrics` fields it fills.
        """
        sink = self.sink
        zdelta = effective_zdelta(self._edb, delta)
        submitted = sum(
            len(s) for s in delta.insertions.values()
        ) + sum(len(s) for s in delta.deletions.values())
        cancelled = submitted - zdelta.op_count()
        if zdelta.is_empty and self._materialization is not None:
            # everything cancelled (against itself or the live EDB):
            # nothing to compile, execute, or verify — the committed
            # materialization is already the answer
            return self._noop_round(
                delta, n_batches, depth, t_round, queue_wait_s, cancelled
            )
        chaos = self.chaos
        if chaos is not None:
            chaos.begin_round(self._maintain_epoch)
        self._maintain_epoch += 1
        faults0 = chaos.injected_total if chaos is not None else 0
        pool0 = self.plan_cache.pool.stats()
        with sink.span(
            "round", "round",
            args={
                "index": self._rounds_run,
                "batches": n_batches,
                "degraded": degraded,
            },
        ):
            if sink.enabled:
                # `merge` — coalesce, breaker decision, clamp, chaos
                # epoch — closes inside `round`, not before it, so no
                # instant of latency_s, which starts at t_round, falls
                # between the two spans
                sink.record_span_abs(
                    "merge", "phase", t_round, perf_counter()
                )
            cu, plan, compiled = self._compile_phase(zdelta)
            values, outcome, executed = self._execute_phase(plan, degraded)
            mat, artifacts, report, verified = self._verify_phase(
                plan, values, outcome, degraded, zdelta
            )
            # the round is verified: only now may the staged compile
            # become the baseline the next round's compile reuses,
            # node values included
            self.plan_cache.commit(cu, values)
            self._edb = cu.edb_new
            self._materialization = mat
            # the report keeps no hold on the previous EDB generation:
            # it is freed here, inside the round's latency
            cu.edb_old = None

            metrics = RoundMetrics(
                index=self._rounds_run,
                trace_name=cu.trace.name,
                scheduler=self.scheduler.name,
                batches_coalesced=n_batches,
                queue_depth=depth,
                n_nodes=cu.trace.dag.n_nodes,
                latency_s=perf_counter() - t_round,
                queue_wait_s=queue_wait_s,
                degraded=degraded,
                injected_faults=(
                    chaos.injected_total - faults0
                    if chaos is not None
                    else 0
                ),
                cancelled_ops=cancelled,
                **self._pool_round_stats(pool0),
                **compiled,
                **executed,
                **verified,
            )
        self.metrics.append(metrics)
        self._rounds_run += 1
        return RoundReport(
            index=metrics.index,
            delta=delta,
            metrics=metrics,
            compiled=cu,
            artifacts=artifacts,
            verification=report,
        )

    def _compile_phase(
        self, zdelta: ZSetDelta
    ) -> tuple[CompiledUpdate, ExecutionPlan, dict]:
        """The ``compile`` and ``plan-build`` spans; fills ``compile_s``.
        ``zdelta`` is the round's delta as :meth:`_maintain` clamped it."""
        sink = self.sink
        name = f"{self.name}:r{self._rounds_run}"
        t0 = perf_counter()
        if self.chaos is not None and self.chaos.phase_fails("compile"):
            raise InjectedPhaseFault("compile", self._rounds_run)
        with sink.span("compile", "phase"):
            cu = self.plan_cache.compile(
                self.program, self._edb, zdelta, name=name
            )
        with sink.span("plan-build", "phase"):
            plan = self.plan_cache.plan(cu)
        return cu, plan, {"compile_s": perf_counter() - t0}

    def _execute_phase(
        self, plan: ExecutionPlan, degraded: bool
    ) -> tuple[ValueStore, RoundOutcome | None, dict]:
        """The ``execute`` (``execute-serial``) span; fills ``execute_s``
        and what the run reports of itself — for a degraded round also
        the ``n_active`` and ``makespan_s`` no recorded schedule will
        supply."""
        sink = self.sink
        t0 = perf_counter()
        if degraded:
            # every node of the plan in level order on this thread: no
            # lanes, no scheduler, no executor-level faults, and no
            # committed node value read
            with sink.span(
                "execute-serial", "phase", args={"degraded": True}
            ):
                values, diffs = plan.execute_serial()
            execute_s = perf_counter() - t0
            return values, None, {
                "execute_s": execute_s,
                "workers": 1,
                "n_active": len(diffs),
                "tasks_executed": len(diffs),
                "makespan_s": execute_s,
            }
        with sink.span("execute", "phase") as sp_exec:
            outcome = RoundExecutor(
                plan,
                self.scheduler,
                workers=self.workers,
                deadline=self.deadline_s,
                sink=sink,
                retry=self.unit_retry,
                unit_timeout_s=self.unit_timeout_s,
                chaos=self.chaos,
                lanes=self._lanes,
            ).run()
        tasks_executed = len(outcome.records)
        modes = [said.get("mode") for said in outcome.values.notes.values()]
        continued, retracted = modes.count("continue"), modes.count("retract")
        if sink.enabled:
            sp_exec.set("continued_nodes", continued)
            sp_exec.set("retracted_nodes", retracted)
            sp_exec.set("scheduler_ops", outcome.scheduler_ops)
            sp_exec.set("tasks_executed", tasks_executed)
            sp_exec.set("unit_retries", outcome.unit_retries)
            sp_exec.set("injected_faults", outcome.injected_faults)
        return outcome.values, outcome, {
            "execute_s": perf_counter() - t0,
            "workers": self.workers,
            "tasks_executed": tasks_executed,
            "continued_nodes": continued,
            "retracted_nodes": retracted,
            "maintained_tasks": modes.count("maintain"),
            "scheduler_ops": outcome.scheduler_ops,
            "precompute_ops": outcome.precompute_ops,
            "unit_retries": outcome.unit_retries,
        }

    def _verify_phase(
        self,
        plan: ExecutionPlan,
        values: ValueStore,
        outcome: RoundOutcome | None,
        degraded: bool,
        zdelta: ZSetDelta,
    ) -> tuple[
        Database, RoundArtifacts | None, VerificationReport | None, dict
    ]:
        """The ``verify`` span: ``(materialization, artifacts, report,
        fields)``; fills ``verify_s``, ``changed_facts`` and, from a
        healthy round's recorded schedule, ``n_active``, ``makespan_s``
        and ``utilization``.

        With ``verify`` the recorded schedule is invariant-checked and
        the executed materialization compared with a from-scratch one,
        evaluated here; either failing raises.
        ``changed_facts`` is the final nodes' Z-sets plus ``zdelta``, the
        clamped delta, where no node carries the predicate — or, for a
        publish no Z-set describes (no committed node values), a
        relation diff.
        """
        t0 = perf_counter()
        if self.chaos is not None and self.chaos.phase_fails("verify"):
            raise InjectedPhaseFault("verify", self._rounds_run)
        cu = plan.compiled
        sink = self.sink
        with sink.span("verify", "phase"):
            artifacts = report = None
            schedule = {}
            if not degraded:
                with sink.span("verify.schedule", "phase"):
                    artifacts = record_round(outcome, cu.trace)
                    schedule = {
                        "makespan_s": artifacts.result.makespan,
                        "utilization": artifacts.result.utilization,
                        "n_active": artifacts.trace.n_active,
                    }
                    if self.verify:
                        report = artifacts.check()
                        if not report.ok:
                            raise RoundVerificationError(
                                self._rounds_run, report
                            )
            reference = None
            if self.verify:
                with sink.span("verify.reference", "phase"):
                    reference = self.plan_cache.evaluate(cu)
            with sink.span("verify.compare", "phase"):
                mat = plan.materialization(values)
                diverging = (
                    0 if reference is None
                    else _differing_facts(mat, reference)
                )
            if diverging:
                raise MaterializationDivergenceError(
                    self._rounds_run, f"{diverging} facts differ"
                )
            if not plan.old_values or plan.old_values[0] is None:
                changed_facts = _differing_facts(mat, self._materialization)
            else:
                changed_facts = sum(
                    len(plus) + len(minus)
                    for plus, minus in plan.net(values).values()
                ) + sum(
                    len(facts) for pred, facts in zdelta.weights.items()
                    if pred not in plan.final_nodes
                )
        return mat, artifacts, report, {
            "verify_s": perf_counter() - t0,
            "changed_facts": changed_facts,
            **schedule,
        }

    def run(
        self,
        rounds: int,
        timeout: float | None = None,
        on_round: Callable[[RoundReport], None] | None = None,
    ) -> list[RoundReport]:
        """Run up to ``rounds`` rounds, blocking for updates.

        Stops early if ``timeout`` (per blocking wait) expires with an
        empty queue.
        """
        reports: list[RoundReport] = []
        for _ in range(rounds):
            rep = self.run_round(block=True, timeout=timeout)
            if rep is None:
                break
            reports.append(rep)
            if on_round is not None:
                on_round(rep)
        return reports
