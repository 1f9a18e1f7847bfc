"""Gap compression and coordination-stall accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dag.builder import DagBuilder
from repro.datalog.units import build_execution_plan
from repro.runtime.executor import RoundExecutor, RoundOutcome
from repro.runtime.recorder import (
    compress_idle_gaps,
    coordination_stall,
    record_round,
)
from repro.schedulers import scheduler_registry
from repro.tasks.trace import JobTrace


class TestCompressIdleGaps:
    def test_empty(self):
        assert compress_idle_gaps({}) == ({}, 0.0)

    def test_leading_idle_removed(self):
        out, gap = compress_idle_gaps({0: (2.0, 3.0)})
        assert out == {0: (0.0, 1.0)}
        assert gap == pytest.approx(2.0)

    def test_interior_gap_removed(self):
        out, gap = compress_idle_gaps({0: (0.0, 1.0), 1: (3.0, 4.0)})
        assert out == {0: (0.0, 1.0), 1: (1.0, 2.0)}
        assert gap == pytest.approx(2.0)

    def test_overlaps_preserved(self):
        records = {0: (1.0, 3.0), 1: (2.0, 4.0), 2: (6.0, 7.0)}
        out, gap = compress_idle_gaps(records)
        assert gap == pytest.approx(3.0)  # 1.0 leading + 2.0 interior
        # durations exact
        for node, (s, f) in records.items():
            cs, cf = out[node]
            assert cf - cs == pytest.approx(f - s)
        # the overlap between 0 and 1 is untouched
        assert out[1][0] - out[0][0] == pytest.approx(1.0)

    def test_no_gaps_is_identity(self):
        records = {0: (0.0, 2.0), 1: (1.0, 3.0)}
        out, gap = compress_idle_gaps(records)
        assert gap == 0.0
        assert out == records


class TestCoordinationStall:
    def test_no_intervals(self):
        assert coordination_stall({0: (0.0, 1.0)}, [], 4) == 0.0

    def test_single_worker_never_stalls(self):
        assert (
            coordination_stall({0: (0.0, 1.0)}, [(0.0, 1.0)], 1) == 0.0
        )

    def test_partial_idle_overlap_counted(self):
        # one node busy 0..2 (of 2 workers); coordination 0.5..1.0
        records = {0: (0.0, 2.0)}
        stall = coordination_stall(records, [(0.5, 1.0)], 2)
        assert stall == pytest.approx(0.5)

    def test_full_busy_not_counted(self):
        # both workers busy 0..1: coordination there is free
        records = {0: (0.0, 1.0), 1: (0.0, 1.0), 2: (1.0, 3.0)}
        stall = coordination_stall(records, [(0.2, 1.5)], 2)
        assert stall == pytest.approx(0.5)  # only the 1.0..1.5 part

    def test_whole_idle_not_counted(self):
        # nothing runs 1..2 — compression owns that stretch
        records = {0: (0.0, 1.0), 1: (2.0, 3.0)}
        stall = coordination_stall(records, [(1.0, 2.0)], 2)
        assert stall == 0.0


class TestRecordRound:
    @pytest.fixture(scope="class")
    def round_data(self, compiled_workloads):
        plan = build_execution_plan(compiled_workloads["transitive_closure"])
        sched = scheduler_registry()["hybrid"]()
        outcome = RoundExecutor(plan, sched, workers=4).run()
        # the round the plan was stamped with: what the executor ran
        return plan.compiled, outcome

    def test_schedule_matches_outcome(self, round_data):
        cu, outcome = round_data
        art = record_round(outcome, cu.trace)
        assert len(art.result.schedule) == len(outcome.records)
        assert art.result.tasks_executed == len(outcome.records)
        assert art.result.processors == outcome.workers

    def test_durations_become_work(self, round_data):
        cu, outcome = round_data
        art = record_round(outcome, cu.trace)
        for rec in art.result.schedule:
            dur = rec.finish - rec.start
            assert art.trace.work[rec.node] == pytest.approx(dur)

    def test_extras_report_translations(self, round_data):
        cu, outcome = round_data
        art = record_round(outcome, cu.trace)
        extras = art.result.extras
        assert extras["wall_latency_s"] == outcome.wall_latency_s
        assert extras["compressed_idle_s"] >= 0.0
        assert extras["coordination_stall_s"] >= 0.0
        assert (
            art.result.execution_makespan
            == pytest.approx(
                max(
                    0.0,
                    art.result.makespan - extras["coordination_stall_s"],
                )
            )
        )

    def test_uncompressed_keeps_wall_alignment(self, round_data):
        cu, outcome = round_data
        art = record_round(outcome, cu.trace, compress=False)
        assert art.result.extras["compressed_idle_s"] == 0.0
        raw_last = max(f for _, f in outcome.records.values())
        assert art.result.makespan == pytest.approx(raw_last)

    def test_strict_check_passes(self, round_data):
        cu, outcome = round_data
        report = record_round(outcome, cu.trace).check()
        assert report.ok, "\n".join(v.format() for v in report.violations)


def hand_built(records, retry_intervals=(), coord_intervals=(), edges=()):
    """``records`` as a round on two workers: independent units but for
    ``edges``, whose sources' outputs changed."""
    builder = DagBuilder()
    for _ in records:
        builder.add_node()
    for u, v in edges:
        builder.add_edge(u, v)
    dag = builder.build()
    trace = JobTrace(
        dag=dag,
        work=np.array([f - s for s, f in records.values()]),
        initial_tasks=np.setdiff1d(
            np.arange(dag.n_nodes), [v for _, v in edges]
        ),
        changed_edges=np.zeros(dag.n_edges, dtype=bool),
    )
    outcome = RoundOutcome(
        scheduler_name="hand-built",
        workers=2,
        values=None,
        diffs={v: any(v == u for u, _ in edges) for v in records},
        records=dict(records),
        unit_retries=len(retry_intervals),
    )
    # set by name: the schedule is the same with or without them
    outcome.retry_intervals = list(retry_intervals)
    outcome.coord_intervals = list(coord_intervals)
    return record_round(outcome, trace)


class TestRetryDeadTime:
    """A retried unit's failed attempt and backoff are dead time, not a
    broken bound.

    Four independent 0.1 s units on two workers. Units 1–3 fail at once
    and come due 0.1 s apart, so each runs alone while the others sit
    out their backoff: busy time is one lane wide for 0.4 s, against
    w/P + Σ S_i = 0.2 + 0.1 for a greedy fault-free schedule. The
    coordinator was not deciding anything in that time, so no
    ``coord_intervals`` cover it — the flaky ``[makespan-bound]`` of
    ``TestChaosReconciliation``, here without the chaos.
    """

    RECORDS = {v: (0.1 * v, 0.1 * (v + 1)) for v in range(4)}
    #: failed attempt (t = 0) → the handoff of the attempt that succeeded
    RETRIES = [(0.0, 0.1 * v) for v in (1, 2, 3)]

    def test_schedule_alone_breaks_the_fault_free_bound(self):
        report = hand_built(self.RECORDS, []).check()
        assert report.kinds() == {"makespan-bound"}

    def test_retry_windows_are_charged_as_stall(self):
        art = hand_built(self.RECORDS, self.RETRIES)
        report = art.check()
        assert report.ok, "\n".join(v.format() for v in report.violations)
        # lanes idle under a pending retry for [0, 0.3]; the last unit
        # runs with nothing waiting
        assert art.result.extras["coordination_stall_s"] == pytest.approx(0.3)
        assert art.result.makespan == pytest.approx(0.4)
        assert art.result.execution_makespan == pytest.approx(0.1)

    def test_whole_idle_backoff_is_compressed_not_charged(self):
        # one unit, retried after everything else went quiet: the gap is
        # whole-idle, removed once by compression and not again as stall
        art = hand_built({0: (0.5, 0.6)}, [(0.0, 0.5)])
        assert art.check().ok
        assert art.result.extras["compressed_idle_s"] == pytest.approx(0.5)
        assert art.result.extras["coordination_stall_s"] == 0.0


class TestProcessorZeroWait:
    """A completion that arrives while the coordinator is inside a unit
    waits for it, and that wait is coordination stall.

    Two workers; the caller's thread is one of them. It runs 50 ms unit
    1 while a lane finishes 1 ms unit 0: unit 0's child 4 and the ready
    50 ms units 2 and 3 are dispatched only when the caller comes back,
    and again one stage later — the lane idles under ready work twice,
    which no bound on a greedy schedule covers. The executor opens the
    coordination window at the lane's finish stamp, so both waits are
    exported as ``coord_intervals``.
    """

    RECORDS = {
        0: (0.0, 0.001),
        1: (0.0, 0.05),
        2: (0.05, 0.1),
        3: (0.1, 0.15),
        4: (0.05, 0.051),
    }
    EDGES = [(0, 4)]
    #: lane's finish stamp → the dispatch stage after the caller's unit
    WAITS = [(0.001, 0.05), (0.051, 0.1)]

    def test_schedule_alone_breaks_the_greedy_bound(self):
        report = hand_built(self.RECORDS, edges=self.EDGES).check()
        assert report.kinds() == {"makespan-bound"}

    def test_the_wait_is_charged_as_stall(self):
        art = hand_built(
            self.RECORDS, coord_intervals=self.WAITS, edges=self.EDGES
        )
        report = art.check()
        assert report.ok, "\n".join(v.format() for v in report.violations)
        assert art.result.extras["coordination_stall_s"] == pytest.approx(
            0.098
        )
        assert art.result.makespan == pytest.approx(0.15)


class TestTopologicalOrderIsDerivedOnce:
    """The strict check and the propagation walk ``G`` in topological
    order every served round; the order is a value of the ``Dag``, built
    on the first round over it and read-only after."""

    @pytest.mark.parametrize(
        "program", ["transitive_closure", "retail_analytics"]
    )
    def test_one_build_per_dag_over_twenty_rounds(self, monkeypatch, program):
        from repro.dag import traversal
        from repro.runtime import UpdateStreamService, live_workload
        from repro.tasks import activation
        from repro.verify import invariants

        built: list[int] = []
        real = traversal.topological_order

        def counting(dag):
            built.append(id(dag))
            return real(dag)

        for module in (traversal, activation, invariants):
            monkeypatch.setattr(module, "topological_order", counting)
        wl = live_workload(program, seed=4)
        svc = UpdateStreamService(
            wl.program, wl.edb, scheduler_registry()["hybrid"](),
            workers=2, verify=True, strict=True,
        )
        dags = {}
        for _ in range(20):
            svc.submit(wl.random_batch(2, delete_frac=0.3))
            rep = svc.run_round()
            if rep.artifacts is not None:
                dag = rep.artifacts.trace.dag
                dags[id(dag)] = dag
        assert dags and len(rep.verification.violations) == 0
        # one build per Dag the rounds were checked over, none repeated
        assert sorted(built) == sorted(dags)
        for dag in dags.values():
            order = dag.derived("topological_order", real)
            assert not order.flags.writeable
            assert sorted(order.tolist()) == list(range(dag.n_nodes))
