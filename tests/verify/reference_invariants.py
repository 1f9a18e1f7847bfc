"""The strict invariant checker as it was before it walked plain lists.

The old ``check_invariants`` body — numpy arrays indexed node by node
(``np.isnan(start[v])`` for "already dispatched", ``np.flatnonzero``
masks, two ``topological_order(dag)`` rebuilds) — kept verbatim as the
oracle ``test_invariants_reference.py`` holds the shipped checker
against: the same violations ``(kind, node)`` and the same bounds, on
every input without a non-finite record time (the shipped checker
reports those as ``duration`` violations; this one let a NaN start
hide a dispatch). The one edit: its ground truth comes from the old
``propagate_changes`` (a Kahn sweep over numpy scalars, kept below as
``reference_propagate_changes``), not from the shipped walk it would
otherwise share. Nothing under ``src`` imports it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.dag.graph import Dag
from repro.dag.traversal import topological_order
from repro.sim.result import SimulationResult
from repro.tasks.activation import PropagationResult
from repro.tasks.model import ExecutionModel, max_useful_processors
from repro.tasks.trace import JobTrace
from repro.verify import VerificationReport, Violation


def reference_propagate_changes(
    dag: Dag, initial: np.ndarray, changed_edges: np.ndarray
) -> PropagationResult:
    """The old ``propagate_changes``: its own Kahn sweep over numpy
    scalars, so the oracle's ground truth does not share the shipped
    walk."""
    n = dag.n_nodes
    executed = np.zeros(n, dtype=bool)
    executed[np.asarray(initial, dtype=np.int64)] = True
    activated = executed.copy()
    active_edges = np.zeros(dag.n_edges, dtype=bool)
    targets = dag.out_csr()[1]

    indeg = dag.in_degrees().copy()
    frontier = list(np.flatnonzero(indeg == 0))
    while frontier:
        u = frontier.pop()
        if executed[u]:
            lo, hi = dag.out_edge_range(u)
            for ei in range(lo, hi):
                if changed_edges[ei]:
                    v = targets[ei]
                    active_edges[ei] = True
                    activated[v] = True
                    executed[v] = True
        for v in dag.out_neighbors(u):
            indeg[v] -= 1
            if indeg[v] == 0:
                frontier.append(int(v))
    return PropagationResult(
        executed=executed, active_edges=active_edges, activated=activated
    )


def _min_duration(model: int, work: float, span: float, alloc: int) -> float:
    """Engine-model lower bound on a record's duration."""
    if model == ExecutionModel.UNIT:
        return 1.0
    if model == ExecutionModel.SEQUENTIAL:
        return work
    return max(span, work / max(alloc, 1))


def reference_check_invariants(
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
    """
    report = VerificationReport(
        trace_name=result.trace_name,
        scheduler_name=result.scheduler_name,
        processors=result.processors,
    )
    bad = report.violations.append

    dag = trace.dag
    n = dag.n_nodes
    executed = reference_propagate_changes(
        dag, trace.initial_tasks, trace.changed_edges
    ).executed
    work = trace.work
    span = trace.span
    models = trace.models
    levels = trace.levels
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
    waived_missing = np.zeros(n, dtype=bool)
    if direct_quarantined:
        stack = [v for v in direct_quarantined if 0 <= v < n]
        for v in stack:
            waived_missing[v] = True
        while stack:
            u = stack.pop()
            for c in dag.out_neighbors(u):
                c = int(c)
                if not waived_missing[c]:
                    waived_missing[c] = True
                    stack.append(c)

    if not result.schedule:
        if int(executed.sum()) == 0 or bool(
            np.all(~executed | waived_missing)
        ):
            pass  # nothing ran (or everything active was quarantined)
        else:
            raise ValueError(
                "result has no recorded schedule; run simulate() with "
                "record_schedule=True or strict=True"
            )

    # ------------------------------------------------------------------
    # exactly-once / active set
    # ------------------------------------------------------------------
    start = np.full(n, np.nan)
    finish = np.full(n, np.nan)
    alloc = np.zeros(n, dtype=np.int64)
    for rec in result.schedule:
        v = rec.node
        if v < 0 or v >= n:
            bad(Violation("spurious-execution", f"unknown node id {v}", v))
            continue
        if not np.isnan(start[v]):
            bad(
                Violation(
                    "duplicate-execution",
                    f"dispatched at t={start[v]:.6g} and again at "
                    f"t={rec.start:.6g}",
                    v,
                )
            )
            continue
        start[v] = rec.start
        finish[v] = rec.finish
        alloc[v] = rec.processors

    scheduled = ~np.isnan(start)
    for v in np.flatnonzero(scheduled & ~executed):
        bad(
            Violation(
                "spurious-execution",
                "executed but is not in the realized active set W "
                "(all its input signals resolve to 'no change')",
                int(v),
            )
        )
    for v in np.flatnonzero(executed & ~scheduled):
        if waived_missing[v]:
            continue  # quarantined (or suppressed by a quarantine)
        bad(
            Violation(
                "missing-task",
                "is in the realized active set W but never executed",
                int(v),
            )
        )

    # ------------------------------------------------------------------
    # precedence: re-derive resolution times from the propagation
    # ------------------------------------------------------------------
    resolve = np.zeros(n)
    for u in topological_order(dag):
        u = int(u)
        ready = 0.0
        for p in dag.in_neighbors(u):
            rp = resolve[int(p)]
            if rp > ready:
                ready = rp
        if executed[u]:
            if scheduled[u]:
                if start[u] < ready - atol:
                    bad(
                        Violation(
                            "precedence",
                            f"started at t={start[u]:.6g} but its last "
                            f"ancestor resolved at t={ready:.6g}",
                            u,
                        )
                    )
                resolve[u] = finish[u]
            elif waived_missing[u]:
                # quarantine resolves the node without execution; the
                # true instant is its last failure time, which is never
                # earlier than its ancestors' resolution — ``ready`` is
                # a sound (earlier) stand-in for descendants' checks
                resolve[u] = ready
            else:
                resolve[u] = math.inf  # missing-task already reported
        else:
            # deactivation cascades are instantaneous in the engine
            resolve[u] = ready

    # ------------------------------------------------------------------
    # allotment + duration feasibility
    # ------------------------------------------------------------------
    for v in np.flatnonzero(scheduled):
        v = int(v)
        a = int(alloc[v])
        m = int(models[v])
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
            cap = max_useful_processors(float(work[v]), float(span[v]), m)
            if a > cap:
                bad(
                    Violation(
                        "allotment",
                        f"allotment {a} exceeds max useful {cap}",
                        v,
                    )
                )
        dur = float(finish[v] - start[v])
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
        dmin = _min_duration(m, float(work[v]), float(span[v]), a)
        if has_churn and m == ExecutionModel.MALLEABLE:
            # a churn shrink can leave the *final* allotment below the
            # attempt's historical maximum, so work/alloc over-floors;
            # the width-P rate is the only sound per-record bound left
            dmin = max(float(span[v]), float(work[v]) / P)
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
    # instant, so they are excluded). With faults, failed attempts
    # occupied processors from dispatch to death, and churn makes the
    # capacity itself piecewise constant — both reconstructed from the
    # fault log. Entries at one instant apply releases, then capacity
    # changes, then acquires; occupancy is checked between instants.
    # ------------------------------------------------------------------
    def _occupancy(v: int, a: int) -> int:
        if int(models[v]) == ExecutionModel.MALLEABLE and reallot is not False:
            # the record stores the *final* allotment; the task held at
            # least one processor throughout
            return 1
        return a

    sweep: list[tuple[float, int, int, int]] = []  # (t, phase, occ, cap)
    for v in np.flatnonzero(scheduled):
        v = int(v)
        if finish[v] <= start[v]:
            continue
        a = _occupancy(v, int(alloc[v]))
        sweep.append((float(start[v]), 2, a, 0))
        sweep.append((float(finish[v]), 0, -a, 0))
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
        active = np.flatnonzero(executed & scheduled)
    else:
        active = np.flatnonzero(executed)
    eff_work = np.where(
        models == ExecutionModel.UNIT, 1.0, work.astype(np.float64)
    )

    inflation: dict[int, float] = {}
    for e in flog:
        if e.kind == "straggler":
            f = float(e.data.get("factor", 1.0))
            if f > inflation.get(int(e.node), 1.0):
                inflation[int(e.node)] = f

    level_smax: dict[int, float] = {}
    cp_weight = np.zeros(n)
    w = 0.0
    for v in active:
        v = int(v)
        m = int(models[v])
        infl = inflation.get(v, 1.0)
        w += float(eff_work[v]) * infl
        if m == ExecutionModel.UNIT:
            s_upper, s_lower = infl, 1.0
        elif m == ExecutionModel.SEQUENTIAL:
            s_upper, s_lower = float(work[v]) * infl, float(work[v])
        else:
            # re-allotment grows stragglers to their span cap; without
            # it (or when unknown) a width-1 allotment may run for work
            s_upper = (
                float(span[v]) if reallot is True else float(work[v])
            ) * infl
            s_lower = float(span[v])
        lvl = int(levels[v])
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
    work_lower = float(eff_work[active].sum()) / P
    upper = (w + lost_work) / min_capacity + level_term + serial_delay

    # critical path of minimum durations through executing nodes
    # (deactivated nodes relay precedence at zero cost)
    dist = cp_weight.copy()
    for u in topological_order(dag):
        u = int(u)
        for c in dag.out_neighbors(u):
            c = int(c)
            cand = dist[u] + cp_weight[c]
            if cand > dist[c]:
                dist[c] = cand
    critical_path = float(dist.max()) if n else 0.0

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
    last_finish = float(np.nanmax(finish)) if scheduled.any() else 0.0
    if last_finish > result.makespan + atol:
        bad(
            Violation(
                "result-consistency",
                f"a task finishes at t={last_finish:.6g} after the "
                f"reported makespan {result.makespan:.6g}",
            )
        )
    expected_work = float(
        work[executed & scheduled if has_faults else executed].sum()
    )
    if abs(result.total_work - expected_work) > atol * max(
        1.0, expected_work
    ) and not report.kinds() & {"missing-task", "spurious-execution"}:
        bad(
            Violation(
                "result-consistency",
                f"total_work={result.total_work:.6g} but the active set "
                f"carries {expected_work:.6g}",
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
            if 0 <= v < n and scheduled[v]:
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
            if not scheduled[v] and not waived_missing[v]:
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
