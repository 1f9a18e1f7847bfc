"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``stats``     Print Table-I statistics for a job-trace analogue or a
              trace JSON file.
``simulate``  Run one scheduler over a trace and print the result.
``compare``   Run the Table-III scheduler trio over a trace.
``generate``  Write a job-trace analogue to a JSON file (e.g. the
              public synthetic trace #11 the paper mentions).
``datalog``   Evaluate a Datalog program file and print the
              materialized relations.
``serve``     Run *real* concurrent maintenance (repro.runtime) over a
              generated update stream, verifying every round.
``trace``     Like ``serve`` but with the repro.obs recorder attached:
              emits a Chrome trace_event timeline of every round and
              prints the slowest rounds by phase.
``verify``    Run the scheduler contract linter over source paths,
              the whole-program static analyzer over Datalog files,
              and/or the trace invariant checker over result files.
              Exit codes: 0 clean, 1 findings, 2 usage error/crash.

Examples
--------
::

    python -m repro stats --trace 5
    python -m repro simulate --trace 5 --scheduler hybrid -P 8
    python -m repro simulate --trace 5 --strict -o result.json
    python -m repro simulate --trace 5 --faults faults.json --seed 7 --deadline 60
    python -m repro compare --trace 7 --scale 0.5
    python -m repro generate --trace 11 --scale 0.05 -o trace11.json
    python -m repro datalog program.dl
    python -m repro serve --program retail --stream bursty --scheduler hybrid --rounds 20
    python -m repro trace --stream retail --scheduler levelbased -o trace.json
    python -m repro verify --lint src/repro/schedulers --trace result.json
    python -m repro verify --program examples/reachability.dlog --format json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import format_seconds, render_table
from .schedulers import LookaheadScheduler, scheduler_registry
from .sim import simulate
from .tasks import JobTrace, trace_stats
from .workloads import make_trace
from .workloads.tables import TRACE_CONFIGS

SCHEDULERS = scheduler_registry()


def _load_trace(args) -> JobTrace:
    if args.trace_file:
        with open(args.trace_file) as fh:
            return JobTrace.load(fh)
    if args.trace is None:
        raise SystemExit("provide --trace N or --trace-file PATH")
    return make_trace(args.trace, scale=args.scale)


def _add_trace_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace", type=_TRACE, default=None,
        help="job-trace analogue index (1..11)",
    )
    p.add_argument(
        "--trace-file", type=str, default=None,
        help="path to a trace JSON file",
    )
    p.add_argument(
        "--scale", type=_scale, default=1.0,
        help="shrink factor for generated traces, in (0, 1] "
             "(default 1.0)",
    )


def cmd_stats(args) -> int:
    """``repro stats``: print the Table-I statistics of a trace."""
    trace = _load_trace(args)
    st = trace_stats(trace)
    rows = [
        ["nodes", st.n_nodes],
        ["edges", st.n_edges],
        ["initial tasks", st.n_initial],
        ["active jobs", st.n_active_jobs],
        ["levels", st.n_levels],
        ["task nodes", st.n_task_nodes],
        ["descendants of update", st.n_descendants],
        ["total active work", f"{st.total_active_work:.3f}"],
    ]
    print(render_table(["quantity", "value"], rows, title=trace.name))
    return 0


def _load_faults(args):
    """Build the :class:`FaultPlan` for ``repro simulate``, if any."""
    from .sim import FaultPlan

    plan = None
    if args.faults:
        try:
            with open(args.faults) as fh:
                plan = FaultPlan.from_json_dict(json.load(fh))
        except (OSError, ValueError, TypeError) as exc:
            raise SystemExit(
                f"simulate: cannot load fault plan {args.faults}: {exc}"
            ) from exc
    if args.seed is not None:
        import dataclasses

        plan = dataclasses.replace(plan or FaultPlan(), seed=args.seed)
    return plan


def _resolve_scheduler(name: str):
    """A scheduler instance from a registry name or ``lbl:<k>``."""
    if name.startswith("lbl:"):
        try:
            k = int(name.split(":", 1)[1])
        except ValueError:
            raise SystemExit(
                f"bad look-ahead depth in {name!r}; use lbl:<k>"
            ) from None
        return LookaheadScheduler(k)
    factory = SCHEDULERS.get(name)
    if factory is None:
        raise SystemExit(
            f"unknown scheduler {name!r}; "
            f"choose from {sorted(SCHEDULERS)} or lbl:<k>"
        )
    return factory()


def cmd_simulate(args) -> int:
    """``repro simulate``: run one scheduler and print the result."""
    from .sim import (
        DeadlineExceededError,
        InvalidDispatchError,
        NoProgressError,
        SchedulerStallError,
        TaskFailedPermanentlyError,
    )
    from .sim.faults import check_round_limits
    from .verify import InvariantViolationError

    try:
        check_round_limits(
            "processors", args.processors, deadline=args.deadline
        )
    except ValueError as exc:
        raise SystemExit(f"simulate: {exc}") from None
    trace = _load_trace(args)
    scheduler = _resolve_scheduler(args.scheduler)
    try:
        res = simulate(
            trace,
            scheduler,
            processors=args.processors,
            record_schedule=bool(args.output),
            strict=args.strict,
            faults=_load_faults(args),
            deadline=args.deadline,
        )
    except (
        SchedulerStallError,
        InvalidDispatchError,
        InvariantViolationError,
        TaskFailedPermanentlyError,
        NoProgressError,
        DeadlineExceededError,
    ) as exc:
        # one clean line per failure class, mirroring `repro verify`
        first_line = str(exc).splitlines()[0]
        raise SystemExit(
            f"simulate: {type(exc).__name__}: {first_line}"
        ) from exc
    print(res.summary())
    if args.output:
        payload = {
            "schema": 1,
            "trace": trace.to_json_dict(),
            "result": res.to_json_dict(),
        }
        out = Path(args.output)
        with out.open("w") as fh:
            json.dump(payload, fh)
        print(f"wrote {out} ({len(res.schedule)} dispatch records)")
    return 0


def cmd_compare(args) -> int:
    """``repro compare``: run the Table-III scheduler trio."""
    trace = _load_trace(args)
    rows = []
    for name in ("logicblox", "levelbased", "hybrid"):
        res = simulate(
            trace, SCHEDULERS[name](), processors=args.processors
        )
        rows.append(
            [res.scheduler_name, format_seconds(res.makespan),
             format_seconds(res.scheduling_overhead),
             res.scheduling_ops,
             res.precompute_memory_cells]
        )
    print(
        render_table(
            ["scheduler", "makespan", "overhead", "ops", "precomp cells"],
            rows,
            title=f"{trace.name} (P={args.processors})",
        )
    )
    return 0


def cmd_generate(args) -> int:
    """``repro generate``: write a trace analogue to a JSON file."""
    trace = make_trace(args.trace, scale=args.scale)
    out = Path(args.output)
    with out.open("w") as fh:
        trace.dump(fh)
    st = trace_stats(trace)
    print(
        f"wrote {out} — {st.n_nodes} nodes, {st.n_edges} edges, "
        f"{st.n_active_jobs} active jobs, {st.n_levels} levels"
    )
    return 0


def cmd_datalog(args) -> int:
    """``repro datalog``: evaluate a program file, print relations.

    A program that cannot be read, parsed, stratified or evaluated (a
    rule comparing or adding values of different types) exits 1 with
    one ``datalog: ...`` line — ``file:line:col:`` first where the
    error has a position — not a traceback.
    """
    from .datalog import InternPool, parse_program, seminaive_evaluate
    from .datalog.depgraph import StratificationError
    from .datalog.parser import ParseError

    try:
        text = Path(args.program).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(f"datalog: {exc}") from None
    try:
        program = parse_program(text)
    except ParseError as exc:
        # an arity clash is a whole-program check: no position
        where = "" if exc.line is None else (
            f"{args.program}:{exc.line}:{exc.col}: "
        )
        raise SystemExit(f"datalog: {where}{exc.reason}") from None
    try:
        db, _ = seminaive_evaluate(program, pool=InternPool())
    except StratificationError as exc:
        raise SystemExit(f"datalog: {exc}") from None
    except TypeError as exc:  # e.g. "a" < 3, "a" + 1: the facts' types
        raise SystemExit(f"datalog: TypeError: {exc}") from None
    for name in sorted(db.relations):
        rel = db.relations[name]
        print(f"{name}/{rel.arity} ({len(rel)} facts)")
        for t in sorted(rel):
            print(f"  {name}{t}")
    return 0


def _serve_stream(
    args, cmd, banner, tag, workload, kind, on_failed,
    on_round=lambda report: None,
    chaos_spec=None, unit_retries=None, **service_kw,
):
    """The serve loop ``repro serve`` and ``repro trace`` share.

    Builds the live workload, its ``kind`` stream and the service
    ``<tag>:<workload>`` (scheduler, workers, rounds, batch size and
    seeds from ``args``, the rest from ``service_kw``), then submits
    each tick's batches and runs one round, handing the report to
    ``on_round``. Under chaos a failed round is an expected event — the
    failed-round policy re-queues its delta — so ``on_failed`` gets the
    exception and serving goes on, unless the breaker tripped, which
    ends the stream with the queue intact. Returns the service and the
    number of failed rounds.
    """
    from .runtime import (
        ChaosError,
        ChaosPlan,
        MaterializationDivergenceError,
        RoundVerificationError,
        ServiceUnavailableError,
        UnitExecutionError,
        UpdateStreamService,
        live_workload,
        make_stream,
    )
    from .sim.faults import DeadlineExceededError

    try:
        wl = live_workload(workload, seed=args.seed)
    except KeyError as exc:
        raise SystemExit(f"{cmd}: {exc.args[0]}") from None
    scheduler = _resolve_scheduler(args.scheduler)
    chaos = None
    if chaos_spec is not None:
        try:
            with open(chaos_spec) as fh:
                chaos = ChaosPlan.from_json_dict(json.load(fh))
        except (OSError, ValueError, TypeError) as exc:
            raise SystemExit(
                f"{cmd}: cannot load chaos plan {chaos_spec}: {exc}"
            ) from exc
    elif args.chaos_seed is not None:
        chaos = ChaosPlan.from_seed(args.chaos_seed)
    if unit_retries is None:
        unit_retries = 3 if chaos is not None else 0
    try:
        service = UpdateStreamService(
            wl.program,
            wl.edb,
            scheduler,
            workers=args.workers,
            name=f"{tag}:{wl.name}",
            unit_retries=unit_retries,
            chaos=chaos,
            **service_kw,
        )
    except ValueError as exc:
        raise SystemExit(f"{cmd}: {exc}") from None
    print(
        f"{banner} {wl.name} ({kind} stream) under {scheduler.name}, "
        f"{args.workers} workers"
        + (f", chaos seed {chaos.seed}" if chaos is not None else "")
    )
    expected = (
        ServiceUnavailableError,
        ChaosError,
        UnitExecutionError,
        RoundVerificationError,
        MaterializationDivergenceError,
        DeadlineExceededError,
    ) if chaos is not None else ()
    failed_rounds = 0
    try:
        for batches in make_stream(
            wl, kind, rounds=args.rounds, batch_size=args.batch_size
        ):
            for delta in batches:
                service.submit(delta)
            try:
                rep = service.run_round()
            except expected as exc:
                on_failed(exc)
                if isinstance(exc, ServiceUnavailableError):
                    break
                failed_rounds += 1
            else:
                if rep is not None:
                    on_round(rep)
    finally:
        service.close()
    return service, failed_rounds


def cmd_serve(args) -> int:
    """``repro serve``: run real maintenance over an update stream.

    Builds the named live workload, generates ``--rounds`` ticks of the
    chosen stream, and drives every tick through one verified
    maintenance round: compile → concurrent execute → record → strict
    invariant check → materialization comparison against from-scratch
    evaluation.
    """
    from .datalog import seminaive_evaluate
    from .runtime import ServiceUnavailableError

    def print_round(rep) -> None:
        m = rep.metrics
        flag = "  DEGRADED" if m.degraded else ""
        if m.noop:
            flag += "  NOOP"
        if m.cancelled_ops:
            flag += f"  ({m.cancelled_ops} op(s) cancelled)"
        if m.continued_nodes:
            flag += f"  ({m.continued_nodes} fixpoint(s) continued)"
        if m.retracted_nodes:
            flag += f"  ({m.retracted_nodes} fixpoint(s) retracted)"
        if m.maintained_tasks:
            flag += f"  ({m.maintained_tasks} task(s) maintained)"
        print(
            f"round {m.index:3d}: {m.batches_coalesced} batch(es), "
            f"{m.tasks_executed}/{m.n_nodes} nodes executed, "
            f"{m.latency_s * 1e3:7.2f} ms "
            f"(compile {m.compile_s * 1e3:.2f}, exec "
            f"{m.execute_s * 1e3:.2f}){flag}"
        )

    def print_failure(exc) -> None:
        if isinstance(exc, ServiceUnavailableError):
            print(f"service unavailable: {exc}")
        else:
            print(
                f"round failed: {type(exc).__name__} "
                f"(requeued={getattr(exc, 'delta_requeued', False)})"
            )

    service, failed_rounds = _serve_stream(
        args,
        cmd="serve",
        banner="serving",
        tag="live",
        workload=args.program,
        kind=args.stream,
        on_round=print_round,
        on_failed=print_failure,
        chaos_spec=args.chaos_spec,
        unit_retries=args.unit_retries,
        capacity=args.capacity,
        verify=not args.no_verify,
        unit_timeout_s=args.unit_timeout,
        shed_policy=args.shed_policy,
    )
    print(service.metrics.summary())
    reg = service.metrics.registry
    cancelled_total = int(reg.counter("cancelled_ops").value)
    noop_total = int(reg.counter("noop_rounds").value)
    if cancelled_total or noop_total:
        print(
            f"coalescing: {cancelled_total} op(s) cancelled, "
            f"{noop_total} no-op round(s) skipped compilation"
        )
    if service.chaos is not None:
        print(
            f"chaos: {service.chaos.summary() or 'no injections'}; "
            f"{failed_rounds} round(s) failed, "
            f"{service.quarantined_units_total} unit(s) quarantined, "
            f"{service.shed_batches} batch(es) shed, "
            f"health={service.health.state.value}"
        )
    s = service.plan_cache.stats()
    print(
        f"plan cache: {s['hits']} hits / {s['misses']} misses, "
        f"{s['plan_patches']} plans patched, "
        f"{s['invalidations']} invalidations"
    )
    mat = service.materialization()
    if mat is None:
        print("no rounds served — nothing to compare")
        consistent = True
    else:
        db_final, _ = seminaive_evaluate(
            service.program, service.database()
        )
        consistent = db_final.as_dict() == mat.as_dict()
        print(
            "final materialization matches from-scratch evaluation"
            if consistent
            else "final materialization DIVERGES from from-scratch evaluation"
        )
    if args.metrics:
        out = Path(args.metrics)
        with out.open("w") as fh:
            service.metrics.dump(fh)
        print(f"wrote {out}")
    return 0 if consistent else 1


def cmd_trace(args) -> int:
    """``repro trace``: serve an update stream with tracing on.

    Runs the same real maintenance loop as ``repro serve`` but with a
    recording trace sink: every round emits nested spans (queue wait,
    drain, merge, compile, plan-build, per-worker unit execution,
    verify) plus scheduler decision counters. Writes the timeline as
    Chrome ``trace_event`` JSON — load it at ``chrome://tracing`` or
    https://ui.perfetto.dev — and prints the top-``--top`` slowest
    rounds with their per-phase breakdown.
    """
    from .obs import TraceRecorder, validate_chrome_trace, write_chrome_trace
    from .runtime import ServiceUnavailableError

    recorder = TraceRecorder()
    recorder.set_thread_name("service")

    def print_failure(exc) -> None:
        # chaos makes failed rounds part of the show: the trace
        # records the injections and the round-failed instant
        if not isinstance(exc, ServiceUnavailableError):
            print(f"round failed: {type(exc).__name__}")

    service, _ = _serve_stream(
        args,
        cmd="trace",
        banner="tracing",
        tag="trace",
        workload=args.stream,
        kind=args.kind,
        on_failed=print_failure,
        sink=recorder,
    )
    if service.chaos is not None:
        print(f"chaos: {service.chaos.summary() or 'no injections'}")

    rounds = service.metrics.rounds
    if rounds:
        top = sorted(rounds, key=lambda m: m.latency_s, reverse=True)
        rows = []
        for m in top[: args.top]:
            other = m.latency_s - (m.compile_s + m.execute_s + m.verify_s)
            rows.append(
                [
                    m.index,
                    f"{m.latency_s * 1e3:.2f}",
                    f"{m.queue_wait_s * 1e3:.2f}",
                    f"{m.compile_s * 1e3:.2f}",
                    f"{m.execute_s * 1e3:.2f}",
                    f"{m.verify_s * 1e3:.2f}",
                    f"{max(0.0, other) * 1e3:.2f}",
                    m.tasks_executed,
                ]
            )
        print(
            render_table(
                ["round", "latency ms", "queue-wait", "compile",
                 "execute", "verify", "other", "tasks"],
                rows,
                title=f"slowest {min(args.top, len(rounds))} rounds "
                      f"of {service.metrics.n_rounds}",
            )
        )
        # the verify column split by its child spans, over every round
        split: dict[str, float] = {}
        for r in recorder.records():
            if r.name.startswith("verify."):
                split[r.name] = split.get(r.name, 0.0) + r.duration
        if split:
            print("verify split (all rounds): " + ", ".join(
                f"{name} {total * 1e3:.2f} ms"
                for name, total in split.items()
            ))
    print(service.metrics.summary())

    out = Path(args.output)
    with out.open("w") as fh:
        n_events = write_chrome_trace(recorder, fh)
    from .obs import chrome_trace

    errors = validate_chrome_trace(chrome_trace(recorder))
    if errors:  # pragma: no cover - exporter/validator must agree
        for e in errors:
            print(f"trace: schema error: {e}", file=sys.stderr)
        return 1
    print(f"wrote {out} ({n_events} events) — open at chrome://tracing")
    if args.jsonl:
        from .obs import write_jsonl

        jl = Path(args.jsonl)
        with jl.open("w") as fh:
            n_lines = write_jsonl(recorder, fh)
        print(f"wrote {jl} ({n_lines} records)")
    return 0


def cmd_verify(args) -> int:
    """``repro verify``: one diagnostics surface over three checkers.

    ``--lint`` runs the scheduler contract linter, ``--program`` the
    whole-program Datalog static analyzer, ``--trace`` the recorded-run
    invariant checker. Exit codes are uniform across all of them:
    0 = everything ran and came back clean, 1 = at least one finding or
    violation, 2 = usage error or crash (nothing to do, unreadable
    input, unparseable python).
    """
    from .sim import SimulationResult
    from .verify import (
        analyze_path,
        check_invariants,
        findings_to_json,
        format_findings,
        lint_paths,
    )

    as_json = args.format == "json"
    report_json: dict = {"schema": 1}
    ran = False
    failures = 0
    if args.lint:
        ran = True
        try:
            findings = lint_paths(args.lint)
        except (OSError, ValueError, SyntaxError) as exc:
            print(f"verify: {exc}", file=sys.stderr)
            return 2
        if as_json:
            report_json["lint"] = findings_to_json(findings)
        elif findings:
            print(format_findings(findings))
            print(f"lint: {len(findings)} finding(s)")
        else:
            print("lint: clean")
        if findings:
            failures += 1
    if args.programs:
        report_json["programs"] = []
        for path in args.programs:
            ran = True
            try:
                analysis = analyze_path(path)
            except OSError as exc:
                print(
                    f"verify: cannot analyze {path}: {exc}",
                    file=sys.stderr,
                )
                return 2
            findings = analysis.findings
            if as_json:
                report_json["programs"].append(
                    {"path": str(path),
                     "findings": findings_to_json(findings)}
                )
            elif findings:
                print(format_findings(findings))
                print(f"{path}: {len(findings)} finding(s)")
            else:
                print(f"{path}: clean")
            if findings:
                failures += 1
    if args.results:
        report_json["results"] = []
        for result_path in args.results:
            ran = True
            try:
                with open(result_path) as fh:
                    data = json.load(fh)
                trace = JobTrace.from_json_dict(data["trace"])
                result = SimulationResult.from_json_dict(data["result"])
                report = check_invariants(trace, result)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                print(
                    f"verify: cannot check {result_path}: {exc}",
                    file=sys.stderr,
                )
                return 2
            if as_json:
                report_json["results"].append(
                    {
                        "path": str(result_path),
                        "ok": report.ok,
                        "violations": [
                            {"kind": v.kind, "detail": v.detail,
                             "node": v.node}
                            for v in report.violations
                        ],
                    }
                )
            else:
                print(report.summary())
            if not report.ok:
                failures += 1
    if not ran:
        print(
            "verify: nothing to do — pass --lint PATH [PATH ...], "
            "--program FILE [FILE ...], and/or --trace RESULT_JSON",
            file=sys.stderr,
        )
        return 2
    if as_json:
        print(json.dumps(report_json, indent=2))
    return 1 if failures else 0


def _count(least: int, most: int | None = None):
    """An argparse type: an int no smaller than ``least`` (and no
    larger than ``most``)."""

    def parse(text: str) -> int:
        n = int(text)
        if most is not None and not least <= n <= most:
            raise argparse.ArgumentTypeError(
                f"must be in {least}..{most}, got {n}"
            )
        if n < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {n}")
        return n

    parse.__name__ = "int"  # argparse names the type in its error
    return parse


def _scale(text: str) -> float:
    """An argparse type: a trace shrink factor in (0, 1]."""
    x = float(text)
    if not 0 < x <= 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {x:g}")
    return x


_scale.__name__ = "float"  # argparse names the type in its error
#: a Table-I job-trace index
_TRACE = _count(min(TRACE_CONFIGS), max(TRACE_CONFIGS))


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Scheduling Approach to Incremental "
            "Maintenance of Datalog Programs' (IPDPS 2020)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="print Table-I statistics")
    _add_trace_args(p)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("simulate", help="run one scheduler")
    _add_trace_args(p)
    p.add_argument("--scheduler", default="hybrid",
                   help=f"one of {sorted(SCHEDULERS)}")
    p.add_argument("-P", "--processors", type=_count(1), default=8)
    p.add_argument(
        "--strict", action="store_true",
        help="verify every invariant of the finished run (repro.verify)",
    )
    p.add_argument(
        "--faults", default=None, metavar="SPEC_JSON",
        help="fault-plan JSON file (see repro.sim.FaultPlan) enabling "
             "failure injection, processor churn, and stragglers",
    )
    p.add_argument(
        "--seed", type=_count(0), default=None,
        help="override the fault plan's RNG seed (implies an empty "
             "plan when --faults is not given)",
    )
    p.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="abort the simulation after S wall-clock seconds",
    )
    p.add_argument(
        "-o", "--output", default=None,
        help="write trace + result (with schedule) JSON for `repro verify`",
    )
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("compare", help="run the Table-III trio")
    _add_trace_args(p)
    p.add_argument("-P", "--processors", type=_count(1), default=8)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("generate", help="write a trace JSON file")
    p.add_argument("--trace", type=_TRACE, required=True)
    p.add_argument("--scale", type=_scale, default=1.0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("datalog", help="evaluate a Datalog program file")
    p.add_argument("program")
    p.set_defaults(fn=cmd_datalog)

    p = sub.add_parser(
        "serve",
        help="run real concurrent maintenance over an update stream",
    )
    p.add_argument(
        "--program", default="retail",
        help="live workload name or alias (e.g. retail, tc, sg, pt)",
    )
    p.add_argument(
        "--stream", default="steady",
        choices=("steady", "bursty", "hotkey", "deletions", "mixed"),
        help="update stream shape",
    )
    p.add_argument("--scheduler", default="hybrid",
                   help=f"one of {sorted(SCHEDULERS)} or lbl:<k>")
    p.add_argument("--rounds", type=_count(0), default=20,
                   help="number of stream ticks to serve")
    p.add_argument("-w", "--workers", type=int, default=4,
                   help="executor worker-pool width")
    p.add_argument("--batch-size", type=_count(1), default=2,
                   help="update operations per generated batch")
    p.add_argument("--capacity", type=int, default=64,
                   help="update queue bound (backpressure threshold)")
    p.add_argument("--seed", type=_count(0), default=0,
                   help="stream generator seed")
    p.add_argument(
        "--no-verify", action="store_true",
        help="skip per-round invariant + materialization checks",
    )
    p.add_argument(
        "--metrics", default=None, metavar="JSON",
        help="write the per-round metrics log to this file",
    )
    p.add_argument(
        "--chaos-seed", type=_count(0), default=None, metavar="SEED",
        help="inject deterministic runtime chaos (unit failures, "
             "latency, worker kills, phase failures) from this seed",
    )
    p.add_argument(
        "--chaos-spec", default=None, metavar="JSON",
        help="load a full ChaosPlan JSON spec (overrides --chaos-seed)",
    )
    p.add_argument(
        "--unit-retries", type=int, default=None,
        help="per-unit retry budget (default 0; 3 when chaos is on)",
    )
    p.add_argument(
        "--unit-timeout", type=float, default=None, metavar="S",
        help="soft per-unit straggler watchdog, seconds",
    )
    p.add_argument(
        "--shed-policy", default="reject",
        choices=("reject", "drop-oldest", "coalesce-harder"),
        help="load shedding when backpressure and degradation coincide",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "trace",
        help="serve an update stream with tracing, emit a Chrome trace",
    )
    p.add_argument(
        "--stream", default="retail",
        help="live workload name or alias (e.g. retail, tc, sg, pt)",
    )
    p.add_argument(
        "--kind", default="steady",
        choices=("steady", "bursty", "hotkey", "deletions", "mixed"),
        help="update stream shape",
    )
    p.add_argument("--scheduler", default="levelbased",
                   help=f"one of {sorted(SCHEDULERS)} or lbl:<k>")
    p.add_argument("--rounds", type=_count(0), default=12,
                   help="number of stream ticks to trace")
    p.add_argument("-w", "--workers", type=int, default=4,
                   help="executor thread-pool width")
    p.add_argument("--batch-size", type=_count(1), default=2,
                   help="update operations per generated batch")
    p.add_argument("--seed", type=_count(0), default=0,
                   help="stream generator seed")
    p.add_argument("--top", type=_count(1), default=5,
                   help="how many slowest rounds to tabulate")
    p.add_argument(
        "-o", "--output", default="trace.json",
        help="Chrome trace_event JSON output path (default trace.json)",
    )
    p.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="also write the flat JSONL span log to this file",
    )
    p.add_argument(
        "--chaos-seed", type=_count(0), default=None, metavar="SEED",
        help="inject deterministic runtime chaos and trace every "
             "injection as a chaos:* instant",
    )
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "verify",
        help="lint scheduler source, analyze Datalog programs, and/or "
             "check a recorded result",
    )
    p.add_argument(
        "--lint", nargs="+", metavar="PATH", default=None,
        help="python files/directories to run the contract linter over",
    )
    p.add_argument(
        "--program", nargs="+", dest="programs", default=None,
        metavar="FILE",
        help="Datalog source files to run the whole-program static "
             "analyzer over",
    )
    p.add_argument(
        "--trace", action="append", dest="results", default=[],
        metavar="RESULT_JSON",
        help="result file from `repro simulate -o`; repeatable",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="diagnostics output format (default text)",
    )
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
