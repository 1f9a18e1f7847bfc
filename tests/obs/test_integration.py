"""End-to-end tracing: service spans reconcile with RoundMetrics, the
simulator records on the sim clock without perturbing results, and the
``repro trace`` CLI emits a schema-valid Chrome trace."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import (
    PID_SIM,
    TraceRecorder,
    chrome_trace,
    validate_chrome_trace,
)
from repro.runtime import (
    ChaosPlan,
    UpdateStreamService,
    live_workload,
    make_stream,
)
from repro.schedulers import scheduler_registry
from repro.sim import simulate
from repro.workloads import make_trace

from ..sim.test_faults import FAULTED_PLAN
from ..sim.test_faults import TRACES as GOLDEN_TRACES

REGISTRY = scheduler_registry()


def traced_service(rounds=6, scheduler="levelbased", program="retail"):
    wl = live_workload(program, seed=5)
    rec = TraceRecorder()
    rec.set_thread_name("service")  # as `repro trace` labels its thread
    svc = UpdateStreamService(
        wl.program, wl.edb, REGISTRY[scheduler](), workers=4, sink=rec
    )
    for batches in make_stream(wl, "steady", rounds=rounds, batch_size=2):
        for delta in batches:
            svc.submit(delta)
        svc.run_round()
    return rec, svc


class TestServiceReconciliation:
    @pytest.fixture(scope="class")
    def run(self):
        return traced_service()

    def test_round_span_covers_99_percent_of_latency(self, run):
        """``latency_s`` starts when the drain returns. ``merge``
        (coalesce + clamp) starts there too and closes inside ``round``,
        so the two spans leave no instant of the latency uncovered."""
        rec, svc = run
        records = sorted(rec.records(), key=lambda r: r.t0)
        merges = [r for r in records if r.name == "merge"]
        rounds = [r for r in records if r.name == "round"]
        assert len(merges) == len(rounds) == len(svc.metrics.rounds)
        for m, merge, span in zip(svc.metrics.rounds, merges, rounds):
            assert span.args["index"] == m.index
            assert merge.t0 < span.t0 <= merge.t1 < span.t1
            covered = merge.duration + span.duration
            assert covered >= m.latency_s
            assert covered == pytest.approx(
                m.latency_s, abs=max(0.01 * m.latency_s, 1e-3)
            )

    def test_phase_spans_reconcile_with_metrics(self, run):
        rec, svc = run
        records = rec.records()
        rounds = sorted(
            (r for r in records if r.name == "round"),
            key=lambda r: r.args["index"],
        )
        by_parent_window = {}
        for r in records:
            if r.cat == "phase" and r.parent == "round":
                by_parent_window.setdefault(r.name, []).append(r)

        def child_in(round_span, name):
            return next(
                c
                for c in by_parent_window.get(name, ())
                if round_span.t0 <= c.t0 and (c.t1 or 0) <= (round_span.t1 or 0)
            )

        for m, round_span in zip(svc.metrics.rounds, rounds):
            tol = max(0.01 * m.latency_s, 1e-3)
            compile_spans = (
                child_in(round_span, "compile").duration
                + child_in(round_span, "plan-build").duration
            )
            assert compile_spans == pytest.approx(m.compile_s, abs=tol)
            assert child_in(round_span, "execute").duration == pytest.approx(
                m.execute_s, abs=tol
            )
            assert child_in(round_span, "verify").duration == pytest.approx(
                m.verify_s, abs=tol
            )

    def test_verify_splits_into_schedule_reference_compare(self, run):
        """``verify`` has three child spans per healthy verified round,
        each inside it, together no longer than it."""
        rec, svc = run
        records = rec.records()
        verifies = sorted(
            (r for r in records if r.name == "verify"), key=lambda r: r.t0
        )
        children = [r for r in records if r.name.startswith("verify.")]
        assert len(verifies) == len(svc.metrics.rounds)
        assert {r.parent for r in children} == {"verify"}
        for v in verifies:
            mine = [c for c in children if v.t0 <= c.t0 and c.t1 <= v.t1]
            assert sorted(c.name for c in mine) == [
                "verify.compare", "verify.reference", "verify.schedule",
            ]
            assert all(c.tid == v.tid for c in mine)
            assert sum(c.duration for c in mine) <= v.duration
        assert len(children) == 3 * len(verifies)

    def test_queue_phases_recorded_per_round(self, run):
        rec, svc = run
        n = len(svc.metrics.rounds)
        names = [r.name for r in rec.records()]
        assert names.count("queue_wait") == n
        assert names.count("drain") == n
        assert names.count("merge") == n

    def test_unit_spans_carry_worker_lanes_and_counters(self, run):
        rec, svc = run
        records = rec.records()
        units = [r for r in records if r.cat == "unit"]
        total_tasks = sum(m.tasks_executed for m in svc.metrics.rounds)
        assert len(units) == total_tasks
        service_tid = next(r.tid for r in records if r.name == "round")
        names = rec.thread_names()
        lanes = {
            tid for tid, lbl in names.items()
            if lbl.startswith("repro-runtime")
        }
        # a unit ran on the service thread (processor 0) or on a lane,
        # and retail's G has width: both kinds did
        assert {u.tid for u in units} <= lanes | {service_tid}
        assert {service_tid} < {u.tid for u in units}
        # running units did not relabel the caller's thread
        assert names[service_tid] == "service"
        # scheduler decision counters attributed to the execute span
        ex = next(r for r in records if r.name == "execute")
        assert ex.args.get("select_calls", 0) >= 1
        assert "ready_scan_ops" in ex.args
        assert ex.args.get("scheduler_ops", 0) >= 1

    @pytest.mark.parametrize("program", ("retail", "tc", "pt"))
    @pytest.mark.parametrize("sched_name", sorted(REGISTRY))
    def test_hook_counters_sum_to_scheduler_ops(self, sched_name, program):
        """The executor charges every scheduler hook to one of three
        counters on the ``execute`` span: together they are the round's
        ``scheduler_ops``, none spent outside a hook."""
        rec, _ = traced_service(
            rounds=8, scheduler=sched_name, program=program
        )
        executes = [r for r in rec.records() if r.name == "execute"]
        assert executes
        for ex in executes:
            charged = sum(
                ex.args.get(c, 0)
                for c in ("activate_ops", "ready_scan_ops", "complete_ops")
            )
            assert charged == ex.args["scheduler_ops"]

    def test_chain_rounds_run_on_the_service_thread(self):
        """``tc``'s G is a 3-node chain: nothing is ever handed off, so
        no lane exists and every unit span is the service thread's."""
        rec, svc = traced_service(rounds=4, program="tc")
        records = rec.records()
        units = [r for r in records if r.cat == "unit"]
        assert len(units) == sum(
            m.tasks_executed for m in svc.metrics.rounds
        ) > 0
        service_tid = next(r.tid for r in records if r.name == "round")
        assert {u.tid for u in units} == {service_tid}
        assert rec.thread_names() == {service_tid: "service"}

    def test_fix_unit_spans_say_whether_the_round_maintained(self):
        """A fixpoint node's span carries ``mode`` and ``delta_rows``;
        per round, the spans that read ``continue`` are the round's
        ``continued_nodes`` — and both kinds of round occur."""
        rec, svc = traced_service(rounds=10, program="tc")
        records = rec.records()
        rounds = sorted(
            (r for r in records if r.name == "round"),
            key=lambda r: r.args["index"],
        )
        fix = [r for r in records if r.cat == "unit" and "mode" in r.args]
        assert {r.args["label"] for r in fix} == {"fix@1"}
        assert {r.args["mode"] for r in fix} == {"continue", "recompute"}
        served = [m for m in svc.metrics.rounds if not m.noop]
        assert len(served) == len(rounds)
        for m, span in zip(served, rounds):
            mine = [r for r in fix if span.t0 <= r.t0 <= span.t1]
            assert m.continued_nodes == sum(
                r.args["mode"] == "continue" for r in mine
            )
            for r in mine:
                if r.args["mode"] == "continue":
                    assert 0 < r.args["delta_rows"] <= 2  # the batch's inserts
                else:
                    assert r.args["delta_rows"] == 0
        assert served[0].continued_nodes == 0  # the miss
        assert svc.metrics.registry.counter("continued_nodes").value == sum(
            m.continued_nodes for m in served
        ) > 0

    def test_interning_stats_populate_round_metrics(self, run):
        _, svc = run
        rounds = svc.metrics.rounds
        assert all(m.intern_table_size > 0 for m in rounds)
        # the shared pool only ever grows
        sizes = [m.intern_table_size for m in rounds]
        assert sizes == sorted(sizes)
        assert sum(m.columnar_builds for m in rounds) > 0
        assert sum(m.columnar_probes for m in rounds) > 0

    def test_export_is_schema_valid(self, run):
        rec, _ = run
        assert validate_chrome_trace(chrome_trace(rec)) == []


def traced_chaos_service(rounds=6):
    """A chaos-stressed service with retries generous enough that
    every round still succeeds — so spans, metrics, and the chaos log
    all describe the same set of completed rounds."""
    wl = live_workload("retail", seed=5)
    rec = TraceRecorder()
    svc = UpdateStreamService(
        wl.program,
        wl.edb,
        REGISTRY["hybrid"](),
        workers=4,
        sink=rec,
        chaos=ChaosPlan(
            seed=17,
            unit_fail_prob=0.3,
            unit_latency_prob=0.2,
            unit_latency_s=(0.0003, 0.001),
            worker_kill_prob=0.15,
        ),
        unit_retries=8,
        unit_backoff_s=0.0005,
    )
    for batches in make_stream(wl, "steady", rounds=rounds, batch_size=2):
        for delta in batches:
            svc.submit(delta)
        svc.run_round()
    return rec, svc


class TestChaosReconciliation:
    """S4: fault counters agree across spans, metrics, and the log."""

    @pytest.fixture(scope="class")
    def run(self):
        return traced_chaos_service()

    def test_execute_span_args_match_round_metrics(self, run):
        rec, svc = run
        executes = [r for r in rec.records() if r.name == "execute"]
        assert len(executes) == len(svc.metrics.rounds)
        for span, m in zip(executes, svc.metrics.rounds):
            assert span.args["unit_retries"] == m.unit_retries
            assert span.args["injected_faults"] == m.injected_faults
        # the chaos plan actually bit — this is not a vacuous check
        assert sum(m.unit_retries for m in svc.metrics.rounds) > 0
        assert sum(m.injected_faults for m in svc.metrics.rounds) > 0

    def test_chaos_instants_reconcile_with_metrics(self, run):
        rec, svc = run
        injected = [
            r for r in rec.records() if r.name.startswith("chaos:")
        ]
        # every round succeeded, so each injection the injector counted
        # is attributed to exactly one round's metrics
        assert len(injected) == sum(
            m.injected_faults for m in svc.metrics.rounds
        )
        assert len(injected) == svc.chaos.injected_total
        # retries leave their own markers, distinct from injections
        retry_notes = [
            r for r in rec.records() if r.name == "unit-retry"
        ]
        assert len(retry_notes) == sum(
            m.unit_retries for m in svc.metrics.rounds
        )

    def test_registry_counters_aggregate_fault_metrics(self, run):
        _, svc = run
        reg = svc.metrics.registry
        assert reg.counter("unit_retries").value == sum(
            m.unit_retries for m in svc.metrics.rounds
        )
        assert reg.counter("injected_faults").value == sum(
            m.injected_faults for m in svc.metrics.rounds
        )
        assert reg.counter("degraded_rounds").value == 0
        assert all(not m.degraded for m in svc.metrics.rounds)

    def test_chaos_trace_is_schema_valid(self, run):
        rec, _ = run
        assert validate_chrome_trace(chrome_trace(rec)) == []


class TestSimulatorTracing:
    def test_sim_spans_on_sim_clock_without_perturbing_result(self):
        trace = make_trace(2, scale=0.5)
        base = simulate(trace, REGISTRY["hybrid"](), processors=4)
        rec = TraceRecorder()
        traced = simulate(
            trace, REGISTRY["hybrid"](), processors=4, sink=rec
        )
        # tracing must not change the simulation (golden determinism)
        assert traced.makespan == base.makespan
        assert traced.scheduling_ops == base.scheduling_ops
        assert traced.tasks_executed == base.tasks_executed
        records = rec.records()
        tasks = [r for r in records if r.cat == "sim-task"]
        assert len(tasks) == base.tasks_executed
        assert all(r.pid == PID_SIM for r in tasks)
        assert all(0 <= r.tid < 4 for r in tasks)
        assert all((r.t1 or 0) <= base.makespan + 1e-9 for r in tasks)
        run_span = next(r for r in records if r.cat == "sim-run")
        assert run_span.t0 == 0.0
        assert run_span.t1 == pytest.approx(base.makespan)
        assert run_span.args["scheduler_ops"] == base.scheduling_ops

    def test_fault_run_records_retry_markers(self):
        from repro.sim import FaultPlan

        trace = make_trace(2, scale=0.5)
        rec = TraceRecorder()
        simulate(
            trace,
            REGISTRY["hybrid"](),
            processors=4,
            faults=FaultPlan(seed=7, task_fail_prob=0.1, max_retries=None),
            sink=rec,
        )
        records = rec.records()
        assert any(r.cat == "sim-fault" for r in records)
        assert any(r.name == "retry" for r in records)

    @pytest.mark.parametrize("plan", ["no-plan", "faulted"])
    @pytest.mark.parametrize("trace_name", sorted(GOLDEN_TRACES))
    def test_hook_counters_sum_to_scheduler_ops(self, trace_name, plan):
        """The simulator charges every scheduler hook to one of the three
        counters the live ``execute`` span carries: on the ``sim-run``
        span they add up to ``scheduler_ops`` — on the golden traces,
        with and without faults — and recording leaves the result
        byte-identical to a run on the no-op sink."""
        faults = FAULTED_PLAN if plan == "faulted" else None
        for sched_name, factory in sorted(REGISTRY.items()):
            rec = TraceRecorder()
            traced = simulate(
                GOLDEN_TRACES[trace_name](), factory(), processors=4,
                record_schedule=True, faults=faults, sink=rec,
            )
            base = simulate(
                GOLDEN_TRACES[trace_name](), factory(), processors=4,
                record_schedule=True, faults=faults,
            )
            assert json.dumps(traced.to_json_dict(), sort_keys=True) == (
                json.dumps(base.to_json_dict(), sort_keys=True)
            ), sched_name
            (run,) = [r for r in rec.records() if r.cat == "sim-run"]
            charged = sum(
                run.args[c]
                for c in ("activate_ops", "ready_scan_ops", "complete_ops")
            )
            assert charged == run.args["scheduler_ops"], sched_name
            assert charged == base.scheduling_ops, sched_name


class TestTraceCli:
    def test_trace_command_writes_valid_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        rc = main(
            [
                "trace",
                "--stream", "retail",
                "--scheduler", "levelbased",
                "--rounds", "4",
                "-o", str(out),
                "--jsonl", str(jsonl),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) == []
        assert sum(1 for ln in jsonl.read_text().splitlines() if ln) > 0
        text = capsys.readouterr().out
        assert "slowest" in text
        assert "queue-wait" in text

    def test_trace_command_with_chaos_records_injections(
        self, tmp_path, capsys
    ):
        out = tmp_path / "chaos-trace.json"
        rc = main(
            [
                "trace",
                "--stream", "retail",
                "--scheduler", "hybrid",
                "--rounds", "5",
                "--chaos-seed", "7",
                "-o", str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) == []
        chaos_events = [
            ev
            for ev in payload["traceEvents"]
            if str(ev.get("name", "")).startswith("chaos:")
        ]
        assert chaos_events, "chaos run produced no chaos:* instants"
        assert "chaos:" in capsys.readouterr().out

    def test_trace_command_rejects_unknown_workload(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown live program"):
            main(["trace", "--stream", "nope", "-o", str(tmp_path / "t.json")])
