"""Offline invariant checker for recorded simulation results.

Given a :class:`~repro.tasks.trace.JobTrace` and a
:class:`~repro.sim.result.SimulationResult` with a recorded schedule,
re-derive the ground truth from the trace alone and verify that the
schedule could have been produced by a *correct* scheduler under the
engine model of :mod:`repro.sim.engine`:

* **active set / exactly-once** — the executed node set equals the
  realized active set ``W`` (no spurious re-runs, no missing tasks, no
  double executions);
* **precedence** — no task started before every ancestor resolved,
  where a deactivated ancestor resolves the instant its own parents do
  (the cascade of ``tasks/activation.py``) and an executed ancestor
  resolves at its recorded finish;
* **capacity / allotment** — never more than ``P`` processors busy,
  one processor for unit/sequential tasks, at most
  ``max_useful_processors`` for malleable tasks;
* **duration feasibility** — every record lasts at least the engine's
  modeled minimum (1 for unit, ``work`` for sequential,
  ``max(span, work/alloc)`` for malleable);
* **paper bounds** — the execution makespan respects
  ``w/P + Σ_i S_i`` (Theorem 9's level-sum bound; for unit tasks
  ``S_i = 1`` so the sum collapses to Lemma 3/Theorem 5's ``w/P + L``,
  and for malleable tasks under re-allotment ``S_i`` is the level's
  maximum span, Lemma 5's divisible-load regime), and the makespan is
  no smaller than the ``w/P`` / critical-path lower bounds — a result
  reporting an impossibly *good* number is as wrong as an invalid one.

The checker is deliberately independent of the engine's online
validation: it recomputes resolution times from the propagation ground
truth, so a bug in the engine itself (or a hand-edited result file)
also surfaces.

Fault-aware checking
--------------------
When the result carries a non-empty ``fault_log`` (see
:mod:`repro.sim.faults`) the invariants adapt rather than switch off:

* *exactly-once* becomes *at-least-once-with-exactly-one-success*: a
  node may appear in failed attempts any number of times but in the
  schedule at most once, and a missing task is waived only when it is a
  quarantined node or a ground-truth descendant of one;
* *capacity* accounts for failed-attempt occupancy (a dead attempt held
  processors from its start to its failure) against the *time-varying*
  processor count reconstructed from applied churn events;
* the ``w/P + Σ S_i`` upper bound is fault-adjusted: straggler-inflated
  work and level spans, lost work from dead attempts, backoff and
  downtime delays, and the minimum surviving capacity replace their
  fault-free counterparts. The lower bound needs no adjustment — faults
  only ever slow a run down;
* a new ``fault-consistency`` kind cross-checks the log against the
  schedule (quarantined nodes must not execute, failed nodes must end
  in a success or a quarantine, recoveries cannot outnumber failures).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..dag.traversal import topological_order
from ..sim.result import SimulationResult
from ..tasks.model import ExecutionModel, max_useful_processors
from ..tasks.trace import JobTrace

__all__ = [
    "Violation",
    "VerificationReport",
    "InvariantViolationError",
    "check_invariants",
    "VIOLATION_KINDS",
]

#: every kind a violation may carry, for exhaustive test matching
VIOLATION_KINDS = (
    "spurious-execution",
    "missing-task",
    "duplicate-execution",
    "precedence",
    "capacity",
    "allotment",
    "duration",
    "makespan-bound",
    "makespan-lower",
    "result-consistency",
    "fault-consistency",
)

_CHECKS = (
    "active-set",
    "exactly-once",
    "precedence",
    "capacity",
    "allotment",
    "duration",
    "bounds",
    "consistency",
)


@dataclass(frozen=True)
class Violation:
    """One broken invariant, attributable to a node where applicable."""

    kind: str
    detail: str
    node: int | None = None

    def format(self) -> str:
        where = f"node {self.node}: " if self.node is not None else ""
        return f"[{self.kind}] {where}{self.detail}"


@dataclass
class VerificationReport:
    """Structured outcome of one :func:`check_invariants` run."""

    trace_name: str
    scheduler_name: str
    processors: int
    checks: tuple[str, ...] = _CHECKS
    violations: list[Violation] = field(default_factory=list)
    #: derived bound values (work_lower, critical_path, level_term, ...)
    bounds: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every invariant held."""
        return not self.violations

    def kinds(self) -> set[str]:
        """The set of violation kinds present (for tests/reporting)."""
        return {v.kind for v in self.violations}

    def summary(self) -> str:
        """Human-readable multi-line report."""
        head = (
            f"verify {self.scheduler_name} on {self.trace_name} "
            f"(P={self.processors}): "
        )
        if self.ok:
            return head + f"OK ({len(self.checks)} invariant groups)"
        lines = [head + f"{len(self.violations)} violation(s)"]
        lines.extend("  " + v.format() for v in self.violations)
        return "\n".join(lines)


class InvariantViolationError(RuntimeError):
    """Raised by ``simulate(..., strict=True)`` on a failed report."""

    def __init__(self, report: VerificationReport) -> None:
        super().__init__(report.summary())
        self.report = report


def _min_duration(model: int, work: float, span: float, alloc: int) -> float:
    """Engine-model lower bound on a record's duration."""
    if model == ExecutionModel.UNIT:
        return 1.0
    if model == ExecutionModel.SEQUENTIAL:
        return work
    return max(span, work / max(alloc, 1))


def check_invariants(
    trace: JobTrace,
    result: SimulationResult,
    *,
    reallot: bool | None = None,
    atol: float = 1e-6,
) -> VerificationReport:
    """Verify ``result`` against the ground truth derivable from ``trace``.

    ``reallot`` states whether the run used dynamic re-allotment:
    ``True``/``False`` when known (``simulate(strict=True)`` passes it),
    ``None`` for standalone result files — the checker then treats
    malleable allotments conservatively (a record stores only the final
    allotment, so exact capacity accounting is impossible after growth).

    Raises :class:`ValueError` when the result carries no recorded
    schedule but tasks executed — there is nothing to verify then.

    The graph walks are O(|V| + |E|), plus one sort of the records and
    fault events for the capacity sweep: the ``Dag``'s derived out-CSR
    tuples and topological order and the trace's per-node data are read
    as plain sequences, and every walk below indexes those.
    """
    report = VerificationReport(
        trace_name=result.trace_name,
        scheduler_name=result.scheduler_name,
        processors=result.processors,
    )
    bad = report.violations.append

    dag = trace.dag
    n = dag.n_nodes
    offsets, targets = dag.out_lists()
    order = dag.derived("topological_order", topological_order).tolist()
    executed = trace.propagation.executed.tolist()
    work, span, models = trace.node_lists
    levels = trace.levels.tolist()
    P = result.processors

    # ------------------------------------------------------------------
    # fault context (empty log → every adjustment below is a no-op)
    # ------------------------------------------------------------------
    flog = list(result.fault_log or [])
    has_faults = bool(flog)
    has_churn = any(
        e.kind == "proc-fail" and e.data.get("applied") for e in flog
    )
    direct_quarantined = {
        int(e.node) for e in flog if e.kind == "quarantine"
    }
    # a missing task is excusable only when its absence traces back to a
    # quarantined ancestor (or it was quarantined itself)
    waived_missing = [False] * n
    if direct_quarantined:
        stack = [v for v in direct_quarantined if 0 <= v < n]
        for v in stack:
            waived_missing[v] = True
        while stack:
            u = stack.pop()
            for c in targets[offsets[u] : offsets[u + 1]]:
                if not waived_missing[c]:
                    waived_missing[c] = True
                    stack.append(c)

    if not result.schedule and any(
        x and not w for x, w in zip(executed, waived_missing)
    ):
        # something active was neither run nor quarantined
        raise ValueError(
            "result has no recorded schedule; run simulate() with "
            "record_schedule=True or strict=True"
        )

    # ------------------------------------------------------------------
    # exactly-once / active set. ``seen`` — not the record's times —
    # says a node was dispatched, so a record with a NaN start still
    # counts (and is reported below as a ``duration`` violation).
    # ------------------------------------------------------------------
    seen = [False] * n
    start = [0.0] * n
    finish = [0.0] * n
    alloc = [0] * n
    for rec in result.schedule:
        v = rec.node
        if v < 0 or v >= n:
            bad(Violation("spurious-execution", f"unknown node id {v}", v))
            continue
        if seen[v]:
            bad(
                Violation(
                    "duplicate-execution",
                    f"dispatched at t={start[v]:.6g} and again at "
                    f"t={rec.start:.6g}",
                    v,
                )
            )
            continue
        seen[v] = True
        start[v] = float(rec.start)
        finish[v] = float(rec.finish)
        alloc[v] = int(rec.processors)

    scheduled = [v for v in range(n) if seen[v]]
    for v in scheduled:
        if not executed[v]:
            bad(
                Violation(
                    "spurious-execution",
                    "executed but is not in the realized active set W "
                    "(all its input signals resolve to 'no change')",
                    v,
                )
            )
    for v in range(n):
        if executed[v] and not seen[v] and not waived_missing[v]:
            # (a waived node was quarantined or suppressed by one)
            bad(
                Violation(
                    "missing-task",
                    "is in the realized active set W but never executed",
                    v,
                )
            )
    # records whose times are not numbers: reported under ``duration``,
    # kept out of every check that needs the times
    unknown = {
        v for v in scheduled
        if not (math.isfinite(start[v]) and math.isfinite(finish[v]))
    }

    # ------------------------------------------------------------------
    # precedence: re-derive resolution times from the propagation,
    # pushing each node's resolution to its children in topological
    # order (``ready_at[u]`` is the latest of its parents' resolutions)
    # ------------------------------------------------------------------
    ready_at = [0.0] * n
    for u in order:
        ready = ready_at[u]
        if executed[u]:
            if seen[u]:
                if start[u] < ready - atol:
                    bad(
                        Violation(
                            "precedence",
                            f"started at t={start[u]:.6g} but its last "
                            f"ancestor resolved at t={ready:.6g}",
                            u,
                        )
                    )
                # an unknown finish relays its parents' resolution
                resolved = ready if u in unknown else finish[u]
            elif waived_missing[u]:
                # quarantine resolves the node without execution; the
                # true instant is its last failure time, which is never
                # earlier than its ancestors' resolution — ``ready`` is
                # a sound (earlier) stand-in for descendants' checks
                resolved = ready
            else:
                resolved = math.inf  # missing-task already reported
        else:
            # deactivation cascades are instantaneous in the engine
            resolved = ready
        for c in targets[offsets[u] : offsets[u + 1]]:
            if resolved > ready_at[c]:
                ready_at[c] = resolved

    # ------------------------------------------------------------------
    # allotment + duration feasibility
    # ------------------------------------------------------------------
    for v in scheduled:
        a = alloc[v]
        m = models[v]
        if a < 1 or a > P:
            bad(
                Violation(
                    "allotment",
                    f"allotment {a} outside [1, P={P}]",
                    v,
                )
            )
            continue
        if m != ExecutionModel.MALLEABLE and a != 1:
            bad(
                Violation(
                    "allotment",
                    f"non-malleable task allotted {a} processors",
                    v,
                )
            )
        elif m == ExecutionModel.MALLEABLE and reallot is False:
            # with re-allotment the engine grows stragglers against
            # their *remaining* work/span, which can legally exceed the
            # static cap — only constant-width records are checkable
            cap = max_useful_processors(work[v], span[v], m)
            if a > cap:
                bad(
                    Violation(
                        "allotment",
                        f"allotment {a} exceeds max useful {cap}",
                        v,
                    )
                )
        if v in unknown:
            bad(
                Violation(
                    "duration",
                    f"non-finite record: start t={start[v]:.6g}, "
                    f"finish t={finish[v]:.6g}",
                    v,
                )
            )
            continue
        dur = finish[v] - start[v]
        if dur < -atol:
            bad(
                Violation(
                    "duration",
                    f"finishes (t={finish[v]:.6g}) before it starts "
                    f"(t={start[v]:.6g})",
                    v,
                )
            )
            continue
        dmin = _min_duration(m, work[v], span[v], a)
        if has_churn and m == ExecutionModel.MALLEABLE:
            # a churn shrink can leave the *final* allotment below the
            # attempt's historical maximum, so work/alloc over-floors;
            # the width-P rate is the only sound per-record bound left
            dmin = max(span[v], work[v] / P)
        if dur + atol < dmin:
            bad(
                Violation(
                    "duration",
                    f"ran for {dur:.6g} < modeled minimum {dmin:.6g}",
                    v,
                )
            )

    # ------------------------------------------------------------------
    # processor capacity (sweep line; zero-duration records occupy no
    # processor time and engine rounds may reuse a core within one
    # instant, so they are excluded, as are non-finite ones). With
    # faults, failed attempts occupied processors from dispatch to
    # death, and churn makes the capacity itself piecewise constant —
    # both reconstructed from the fault log. Entries at one instant
    # apply releases, then capacity changes, then acquires; occupancy
    # is checked between instants.
    # ------------------------------------------------------------------
    def _occupancy(v: int, a: int) -> int:
        if models[v] == ExecutionModel.MALLEABLE and reallot is not False:
            # the record stores the *final* allotment; the task held at
            # least one processor throughout
            return 1
        return a

    sweep: list[tuple[float, int, int, int]] = []  # (t, phase, occ, cap)
    for v in scheduled:
        if v in unknown or finish[v] <= start[v]:
            continue
        a = _occupancy(v, alloc[v])
        sweep.append((start[v], 2, a, 0))
        sweep.append((finish[v], 0, -a, 0))
    for e in flog:
        if e.kind in ("task-fail", "proc-kill"):
            s0 = float(e.data.get("start", e.time))
            if e.time <= s0 or not (0 <= e.node < n):
                continue
            a = _occupancy(int(e.node), int(e.data.get("alloc", 1)))
            sweep.append((s0, 2, a, 0))
            sweep.append((float(e.time), 0, -a, 0))
        elif e.kind == "proc-fail" and e.data.get("applied"):
            sweep.append((float(e.time), 1, 0, -1))
        elif e.kind == "proc-recover" and e.data.get("applied", 1.0):
            sweep.append((float(e.time), 1, 0, 1))
    sweep.sort(key=lambda e: (e[0], e[1]))
    busy = 0
    cap = P
    excess = 0
    excess_t = 0.0
    i = 0
    while i < len(sweep):
        t_ = sweep[i][0]
        while i < len(sweep) and sweep[i][0] == t_:
            busy += sweep[i][2]
            cap += sweep[i][3]
            i += 1
        if busy - cap > excess:
            excess, excess_t = busy - cap, t_
    if excess > 0:
        bad(
            Violation(
                "capacity",
                f"occupancy exceeds capacity by {excess} processor(s) "
                f"at t={excess_t:.6g} (P={P})",
            )
        )

    # ------------------------------------------------------------------
    # paper bounds (Lemma 3 / Lemma 5 / Theorem 9) + lower bounds.
    # Fault runs adjust the upper bound: inflated work/spans, lost
    # attempt work, serial backoff + downtime delays, and the minimum
    # surviving capacity. The lower bound is untouched — injected
    # faults can only ever delay a correct engine.
    # ------------------------------------------------------------------
    if has_faults:
        # quarantined nodes never ran; bound only what executed
        active = [v for v in scheduled if executed[v]]
    else:
        active = [v for v in range(n) if executed[v]]

    inflation: dict[int, float] = {}
    for e in flog:
        if e.kind == "straggler":
            f = float(e.data.get("factor", 1.0))
            if f > inflation.get(int(e.node), 1.0):
                inflation[int(e.node)] = f

    level_smax: dict[int, float] = {}
    cp_weight = [0.0] * n
    w = 0.0
    eff_total = 0.0
    active_work = 0.0
    for v in active:
        m = models[v]
        infl = inflation.get(v, 1.0)
        eff = 1.0 if m == ExecutionModel.UNIT else work[v]
        eff_total += eff
        active_work += work[v]
        w += eff * infl
        if m == ExecutionModel.UNIT:
            s_upper, s_lower = infl, 1.0
        elif m == ExecutionModel.SEQUENTIAL:
            s_upper, s_lower = work[v] * infl, work[v]
        else:
            # re-allotment grows stragglers to their span cap; without
            # it (or when unknown) a width-1 allotment may run for work
            s_upper = (span[v] if reallot is True else work[v]) * infl
            s_lower = span[v]
        lvl = levels[v]
        if s_upper > level_smax.get(lvl, 0.0):
            level_smax[lvl] = s_upper
        cp_weight[v] = s_lower

    lost_work = 0.0
    serial_delay = 0.0
    min_capacity = P
    if has_faults:
        cap_now = P
        for e in flog:  # log is time-ordered
            if e.kind in ("task-fail", "proc-kill"):
                lost_work += float(e.data.get("lost", 0.0))
                serial_delay += float(e.time) - float(
                    e.data.get("start", e.time)
                )
                serial_delay += float(e.data.get("backoff", 0.0))
            elif e.kind == "proc-fail" and e.data.get("applied"):
                cap_now -= 1
                serial_delay += float(e.data.get("downtime", 0.0))
                if cap_now < min_capacity:
                    min_capacity = cap_now
            elif e.kind == "proc-recover" and e.data.get("applied", 1.0):
                cap_now += 1
        min_capacity = max(min_capacity, 1)

    level_term = float(sum(level_smax.values()))
    work_lower = eff_total / P
    upper = (w + lost_work) / min_capacity + level_term + serial_delay

    # critical path of minimum durations through executing nodes
    # (deactivated nodes relay precedence at zero cost)
    dist = cp_weight[:]
    for u in order:
        du = dist[u]
        for c in targets[offsets[u] : offsets[u + 1]]:
            cand = du + cp_weight[c]
            if cand > dist[c]:
                dist[c] = cand
    critical_path = max(dist) if n else 0.0

    report.bounds = {
        "work_lower": work_lower,
        "critical_path": critical_path,
        "level_term": level_term,
        "makespan_upper": upper,
    }
    if has_faults:
        report.bounds.update(
            lost_work=lost_work,
            serial_delay=serial_delay,
            min_capacity=float(min_capacity),
        )

    tol = atol + 1e-9 * max(upper, 1.0)
    if result.execution_makespan > upper + tol:
        bad(
            Violation(
                "makespan-bound",
                f"execution makespan {result.execution_makespan:.6g} "
                f"exceeds w/P + Σ S_i = {upper:.6g} "
                f"(w/P={work_lower:.6g}, level term={level_term:.6g})",
            )
        )
    lower = max(work_lower, critical_path)
    if result.makespan + tol < lower:
        bad(
            Violation(
                "makespan-lower",
                f"makespan {result.makespan:.6g} beats the "
                f"max(w/P, critical path) lower bound {lower:.6g}",
            )
        )

    # ------------------------------------------------------------------
    # result self-consistency
    # ------------------------------------------------------------------
    n_records = len(result.schedule)
    if result.tasks_executed != n_records:
        bad(
            Violation(
                "result-consistency",
                f"tasks_executed={result.tasks_executed} but "
                f"{n_records} schedule records",
            )
        )
    last_finish = max(
        (finish[v] for v in scheduled if finish[v] == finish[v]),
        default=0.0,
    )
    if last_finish > result.makespan + atol:
        bad(
            Violation(
                "result-consistency",
                f"a task finishes at t={last_finish:.6g} after the "
                f"reported makespan {result.makespan:.6g}",
            )
        )
    if abs(result.total_work - active_work) > atol * max(
        1.0, active_work
    ) and not report.kinds() & {"missing-task", "spurious-execution"}:
        bad(
            Violation(
                "result-consistency",
                f"total_work={result.total_work:.6g} but the active set "
                f"carries {active_work:.6g}",
            )
        )
    if result.utilization > 1.0 + 1e-9:
        bad(
            Violation(
                "result-consistency",
                f"utilization {result.utilization:.6g} > 1",
            )
        )

    # ------------------------------------------------------------------
    # fault-log / schedule cross-consistency
    # ------------------------------------------------------------------
    if has_faults:
        for v in sorted(direct_quarantined):
            if 0 <= v < n and seen[v]:
                bad(
                    Violation(
                        "fault-consistency",
                        "quarantined by the fault log but also appears "
                        "in the schedule",
                        v,
                    )
                )
        failed_nodes = {
            int(e.node)
            for e in flog
            if e.kind in ("task-fail", "proc-kill") and 0 <= e.node < n
        }
        for v in sorted(failed_nodes):
            if not seen[v] and not waived_missing[v]:
                bad(
                    Violation(
                        "fault-consistency",
                        "has failed attempts in the fault log but "
                        "neither a successful execution nor a "
                        "quarantine",
                        v,
                    )
                )
        for e in flog:
            if e.kind in ("task-fail", "proc-kill"):
                s0 = float(e.data.get("start", e.time))
                if float(e.time) < s0 - atol:
                    bad(
                        Violation(
                            "fault-consistency",
                            f"{e.kind} at t={e.time:.6g} precedes the "
                            f"attempt's start t={s0:.6g}",
                            int(e.node),
                        )
                    )
        n_fail_applied = sum(
            1
            for e in flog
            if e.kind == "proc-fail" and e.data.get("applied")
        )
        n_recover = sum(
            1
            for e in flog
            if e.kind == "proc-recover" and e.data.get("applied", 1.0)
        )
        if n_recover > n_fail_applied:
            bad(
                Violation(
                    "fault-consistency",
                    f"{n_recover} processor recoveries but only "
                    f"{n_fail_applied} applied failures",
                )
            )
    return report
