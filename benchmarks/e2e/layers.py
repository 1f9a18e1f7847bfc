"""The traced run and the layer probes: per-layer metrics.

A traced run replays a fixed number of rounds twice on the same
stream — once untraced (its *twin*), once with a ``TraceRecorder``
sink and harness-side spans around every call into the program — and
then times each layer's public functions directly on inputs captured
from the stream. Times of whole rounds come from the untraced twin,
everything inside a round from the traced pass, and the gap between
the two is ``obs.trace_overhead_share``. Metrics of a layer the
workload does not exercise are left out here and reported as 0.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.dag.intervals import IntervalIndex
from repro.dag.levels import compute_levels
from repro.datalog import seminaive_evaluate
from repro.datalog.columnar import (
    ColumnarRelation,
    InternPool,
    eval_rule_columnar,
)
from repro.datalog.compiler import compile_update
from repro.datalog.incremental import merge_deltas
from repro.datalog.plancache import CompiledProgramCache
from repro.datalog.unify import eval_rule
from repro.datalog.units import build_execution_plan
from repro.datalog.zset import apply_zdelta, effective_zdelta
from repro.obs import TraceRecorder, validate_chrome_trace, write_chrome_trace
from repro.runtime import RoundExecutor, UpdateStreamService
from repro.schedulers import HybridScheduler

from measure import (
    RoundLog,
    build_sim_traces,
    check_serve,
    check_sim,
    new_service,
    run_serve,
    run_sim,
)
from timing import SpeedLog, mean, median, self_times
from workloads import (
    SERVE_WORKERS,
    SIM_SCHEDULERS,
    SIM_SHAPES,
    Lengths,
    ServeWorkload,
    build_serve,
)

#: captured rounds each probe runs on
PROBE_SAMPLES = 8
#: consecutive deltas the warm plan-cache probe compiles
WARM_COMPILES = 8
#: calls timed together when one call takes microseconds
MICRO_REPS = 50
#: service-layer spans that are none of compile, execute and verify
SERVICE_SELF_SPANS = (
    "bench.submit", "bench.run_round", "drain", "merge", "round",
)


def _rate(log: RoundLog, speed: SpeedLog) -> float:
    wall, _ = log.at_reference_speed(speed)
    return len(wall) / sum(wall)


def _write_trace(rec: TraceRecorder, path: Path) -> bool:
    """Write the Chrome trace and validate what was written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        write_chrome_trace(rec, fh)
    with open(path) as fh:
        return not validate_chrome_trace(json.load(fh))


def _obs(
    twin: RoundLog, traced: RoundLog, n_spans: int, speed: SpeedLog
) -> dict[str, float]:
    return {
        "obs.trace_overhead_share": 1.0
        - _rate(traced, speed) / _rate(twin, speed),
        "obs.spans_per_round": n_spans / len(traced),
    }


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def trace_serve(
    name: str, seed: int, n: Lengths, out_dir: Path
) -> tuple[dict[str, float], dict[str, bool], dict]:
    """Per-layer metrics, checks and details of one serve workload."""
    speed = SpeedLog()
    wl = build_serve(name, seed)
    svc = new_service(wl)
    run_serve(wl, svc, speed, 0, rounds=n.warmup_rounds)
    twin = run_serve(wl, svc, speed, n.warmup_rounds, rounds=n.traced_rounds)
    twin_wall, _ = twin.at_reference_speed(speed)

    rec = TraceRecorder()
    wl = build_serve(name, seed)
    svc = new_service(wl, rec)
    run_serve(wl, svc, speed, 0, rounds=n.warmup_rounds, sink=rec)
    measured_from = rec.now()
    captured: list = []
    traced = run_serve(
        wl, svc, speed, n.warmup_rounds,
        rounds=n.traced_rounds, sink=rec, captured=captured,
    )
    checks = check_serve(wl, svc)
    checks["no_failed_round"] = twin.failed == 0 and traced.failed == 0

    records = [r for r in rec.records() if r.t0 >= measured_from]
    rounds = svc.metrics.rounds[-len(traced):]
    factors = traced.factors(speed)
    wall = traced.wall()
    total = sum(wall)
    selfs = self_times(records)
    real = [r for r in rounds if not r.noop]
    first = n.warmup_rounds
    submit_us = [
        r.duration * factors[r.args["round"] - first] * 1e6
        for r in records if r.name == "bench.submit"
    ]
    by_kind: dict[str, list[float]] = {}
    for kind, t in zip(twin.kinds, twin_wall):
        by_kind.setdefault(kind, []).append(t)
    stats = svc.plan_cache.stats()

    m = {
        "service.compile_share": sum(r.compile_s for r in rounds) / total,
        "service.execute_share": sum(r.execute_s for r in rounds) / total,
        "service.verify_share": sum(r.verify_s for r in rounds) / total,
        "service.self_share": sum(
            selfs.get(s, 0.0) for s in SERVICE_SELF_SPANS
        ) / total,
        "service.submit_us": median(submit_us),
        "service.queue_wait_p50_ms": median(
            [r.queue_wait_s * f * 1e3 for r, f in zip(rounds, factors)]
        ),
        "service.batches_per_round": mean(
            [r.batches_coalesced for r in rounds]
        ),
        "service.cancelled_ops_per_round": mean(
            [r.cancelled_ops for r in rounds]
        ),
        "service.noop_round_share": mean([r.noop for r in rounds]),
        "service.noop_round_p50_us": median(by_kind.get("noop", [])) * 1e6,
        "service.burst_round_p50_ms": median(by_kind.get("burst", [])) * 1e3,
        "service.insert_round_p50_ms": median(by_kind.get("insert", []))
        * 1e3,
        "service.delete_round_p50_ms": median(by_kind.get("delete", []))
        * 1e3,
        "service.changed_facts_per_round": mean(
            [r.changed_facts for r in rounds]
        ),
        "plancache.hit_rate": stats["hits"]
        / max(1, stats["hits"] + stats["misses"]),
        "executor.tasks_per_round": mean([r.tasks_executed for r in rounds]),
        "executor.utilization": mean([r.utilization for r in real]),
        "executor.makespan_ms": mean(
            [r.makespan_s * f * 1e3 for r, f in zip(rounds, factors)
             if not r.noop]
        ),
        "executor.unit_retries": float(sum(r.unit_retries for r in rounds)),
        "columnar.probes_per_round": mean(
            [r.columnar_probes for r in rounds]
        ),
        "columnar.builds_per_round": mean(
            [r.columnar_builds for r in rounds]
        ),
        # a no-op round records none
        "columnar.intern_table_size": float(
            max(r.intern_table_size for r in rounds)
        ),
        "schedulers.live_ops_per_round": mean(
            [r.scheduler_ops for r in rounds]
        ),
        "schedulers.live_precompute_ops_per_round": mean(
            [r.precompute_ops for r in rounds]
        ),
    }
    # the probes run last: they draw further rounds from the stream
    probed, checks["columnar_equals_unify"] = _probe_serve(
        wl, svc, captured, first + len(traced), speed, rec
    )
    m.update(probed)
    m["service.scratch_ratio"] = (
        median(twin_wall) * 1e3 / m["seminaive.full_eval_ms"]
    )
    m.update(_obs(twin, traced, len(records), speed))
    checks["trace_valid"] = _write_trace(rec, out_dir / f"{name}.trace.json")

    shares = sum(
        m[f"service.{k}_share"]
        for k in ("compile", "execute", "verify", "self")
    )
    run_round_s = sum(
        r.duration for r in records if r.name == "bench.run_round"
    )
    latency_s = sum(r.latency_s for r in rounds)
    checks["shares_sum_to_one"] = abs(shares - 1.0) <= 0.02
    checks["spans_match_metrics"] = abs(run_round_s / latency_s - 1) <= 0.05
    details = {
        "traced_rounds": len(traced),
        "warmup_rounds": n.warmup_rounds,
        "shares_sum": shares,
        "run_round_spans_over_latency": run_round_s / latency_s,
        "speed_factor": speed.median_factor(),
        "exact_counts": {
            "tasks_executed": sum(r.tasks_executed for r in rounds),
            "scheduler_ops": sum(r.scheduler_ops for r in rounds),
            "columnar_probes": sum(r.columnar_probes for r in rounds),
            "columnar_builds": sum(r.columnar_builds for r in rounds),
            "derived_facts": m["seminaive.derived_facts"],
        },
    }
    return m, checks, details


def _probe_serve(
    wl: ServeWorkload,
    svc: UpdateStreamService,
    captured: list,
    next_round: int,
    speed: SpeedLog,
    rec: TraceRecorder,
) -> tuple[dict[str, float], bool]:
    """Direct timed calls into each Datalog and runtime layer; also
    whether the columnar and the per-tuple rule evaluation agreed."""
    program, analysis = wl.program, svc.analysis
    edb_final = svc.database()
    final = svc.materialization().copy()
    samples = captured[:PROBE_SAMPLES]
    m: dict[str, float] = {}

    def repeat(fn, *args):
        for _ in range(MICRO_REPS):
            out = fn(*args)
        return out

    with rec.span("bench.probe.zset", "bench"):
        ops = clamp_ops = 0
        t_merge = t_clamp = t_apply = 0.0
        for edb, batches in samples:
            delta, t = speed.timed(repeat, merge_deltas, batches)
            t_merge += t
            zd, t = speed.timed(repeat, effective_zdelta, edb, delta)
            t_clamp += t
            _, t = speed.timed(repeat, apply_zdelta, edb, zd)
            t_apply += t
            ops += sum(
                len(s)
                for b in batches
                for side in (b.insertions, b.deletions)
                for s in side.values()
            )
            clamp_ops += zd.op_count()
        per_op = 1e6 / MICRO_REPS
        m["zset.merge_us_per_op"] = t_merge * per_op / ops
        m["zset.clamp_us_per_op"] = t_clamp * per_op / ops
        m["zset.apply_us_per_op"] = t_apply * per_op / max(1, clamp_ops)

    with rec.span("bench.probe.seminaive", "bench"):
        evals = [
            speed.timed(seminaive_evaluate, program, edb_final)
            for _ in range(3)
        ]
        m["seminaive.full_eval_ms"] = median([t for _, t in evals]) * 1e3
        m["seminaive.derived_facts"] = float(
            evals[0][0][0].total_facts() - edb_final.total_facts()
        )

    with rec.span("bench.probe.compile", "bench"):
        cold, build, serial, concurrent, nodes = [], [], [], [], []
        for edb, batches in samples:
            delta = merge_deltas(batches)
            if effective_zdelta(edb, delta).is_empty:
                continue
            cu, t = speed.timed(
                compile_update, program, edb, delta, analysis=analysis
            )
            cold.append(t)
            plan, t = speed.timed(
                build_execution_plan, cu,
                join_orders=analysis.join_orders_for(cu.program),
                pool=InternPool(),
            )
            build.append(t)
            nodes.append(len(plan.units))
            plan.execute_serial()  # builds the lazy indexes both runs use
            serial.append(speed.timed(plan.execute_serial)[1])
            executor = RoundExecutor(
                plan, HybridScheduler(), workers=SERVE_WORKERS
            )
            concurrent.append(speed.timed(executor.run)[1])
        m["compiler.cold_compile_ms"] = median(cold) * 1e3
        m["units.plan_build_ms"] = median(build) * 1e3
        m["units.serial_execute_ms"] = median(serial) * 1e3
        m["units.nodes_per_plan"] = mean(nodes)
        m["executor.round_ms"] = median(concurrent) * 1e3
        m["executor.overhead_ratio"] = median(concurrent) / median(serial)

    with rec.span("bench.probe.plancache", "bench"):
        cache = CompiledProgramCache(program, analysis=analysis)
        edb = edb_final
        warm, patch = [], []
        for i in range(next_round, next_round + WARM_COMPILES):
            delta = merge_deltas(wl.next_round(i)[1])
            if effective_zdelta(edb, delta).is_empty:
                continue
            misses = cache.misses
            cu, t_compile = speed.timed(cache.compile, program, edb, delta)
            _, t_plan = speed.timed(cache.plan, cu)
            if cache.misses == misses:
                warm.append(t_compile)
                patch.append(t_plan)
            cache.commit(cu)
            edb = cu.edb_new
        m["plancache.warm_compile_ms"] = median(warm) * 1e3
        m["plancache.plan_patch_ms"] = median(patch) * 1e3

    with rec.span("bench.probe.columnar", "bench"):
        pool = InternPool()
        facts = [
            (pred, f) for pred, rel in final.relations.items() for f in rel
        ]
        rows, t = speed.timed(
            lambda: [pool.intern_fact(p, f) for p, f in facts]
        )
        m["columnar.intern_ns_per_fact"] = t * 1e9 / len(facts)
        _, t = speed.timed(lambda: [pool.extern_row(r) for r in rows])
        m["columnar.extern_ns_per_row"] = t * 1e9 / len(rows)
        big = max(final.relations.values(), key=len)
        crel = ColumnarRelation.from_facts(pool, big.name, big.arity, big)
        index, t = speed.timed(crel.index, (0,))
        m["columnar.index_build_us_per_krow"] = t * 1e9 / len(crel)
        keys = list(index)
        _, t = speed.timed(repeat, lambda: [index.get(k) for k in keys])
        m["columnar.index_probe_ns"] = t * 1e9 / MICRO_REPS / len(keys)

        t_col = t_row = 0.0
        agree = True
        rules = program.proper_rules
        for rule in rules:
            eval_rule_columnar(rule, final, pool)  # builds the mirrors
            by_col, t = speed.timed(eval_rule_columnar, rule, final, pool)
            t_col += t
            by_row, t = speed.timed(eval_rule, rule, final)
            t_row += t
            agree = agree and by_col == by_row
        m["columnar.eval_rule_us"] = t_col * 1e6 / len(rules)
        m["unify.eval_rule_us"] = t_row * 1e6 / len(rules)
        m["columnar.rule_speedup"] = t_row / t_col
    return m, agree


# ----------------------------------------------------------------------
# sim_sched
# ----------------------------------------------------------------------
def trace_sim(
    seed: int, n: Lengths, out_dir: Path
) -> tuple[dict[str, float], dict[str, bool], dict]:
    """Per-layer metrics, checks and details of ``sim_sched``."""
    speed = SpeedLog()
    traces = build_sim_traces(seed, speed)
    run_sim(traces, speed, 0, rounds=n.warmup_rounds)
    first = n.warmup_rounds
    twin, cells = run_sim(traces, speed, first, rounds=n.traced_rounds)
    rec = TraceRecorder()
    traced, _ = run_sim(
        traces, speed, first, rounds=n.traced_rounds, sink=rec
    )

    m: dict[str, float] = {}
    plain_s: dict[str, list[float]] = {shape: [] for shape in SIM_SHAPES}
    exact: dict[str, int] = {}
    for shape in SIM_SHAPES:
        for name in SIM_SCHEDULERS:
            runs = cells[shape, name]
            took = [
                (r.t1 - r.t0) * speed.factor(r.t0, r.t1) for r in runs
            ]
            plain_s[shape] += took
            key = f"schedulers.{name}.{shape}"
            m[f"{key}.sim_ms"] = median(took) * 1e3
            m[f"{key}.ops"] = mean([r.result.scheduling_ops for r in runs])
            m[f"{key}.precompute_ops"] = mean(
                [r.result.precompute_ops for r in runs]
            )
            m[f"{key}.memory_cells"] = mean(
                [r.result.precompute_memory_cells for r in runs]
            )
            m[f"{key}.makespan_s"] = mean([r.result.makespan for r in runs])
            exact[f"{key}.ops"] = sum(r.result.scheduling_ops for r in runs)
            exact[f"{key}.precompute_ops"] = sum(
                r.result.precompute_ops for r in runs
            )

    with rec.span("bench.probe.dag", "bench"):
        for shape in SIM_SHAPES:
            dags = [t.dag for t in traces.by_shape[shape]]
            m[f"dag.{shape}.levels_ms"] = median(
                [speed.timed(compute_levels, d)[1] for d in dags]
            ) * 1e3
            m[f"dag.{shape}.intervals_ms"] = median(
                [speed.timed(IntervalIndex, d)[1] for d in dags]
            ) * 1e3

    with rec.span("bench.probe.strict", "bench"):
        checks, strict_s = check_sim(traces, cells, speed)
    for shape in SIM_SHAPES:
        m[f"sim.{shape}.trace_build_ms"] = median(traces.build_s[shape]) * 1e3
        m[f"sim.{shape}.strict_check_ms"] = (
            mean(strict_s[shape]) - mean(plain_s[shape])
        ) * 1e3
    checks["no_failed_round"] = twin.failed == 0 and traced.failed == 0
    m.update(_obs(twin, traced, len(rec.records()), speed))
    checks["trace_valid"] = _write_trace(rec, out_dir / "sim_sched.trace.json")
    details = {
        "traced_rounds": len(traced),
        "warmup_rounds": n.warmup_rounds,
        "speed_factor": speed.median_factor(),
        "exact_counts": exact,
    }
    return m, checks, details
