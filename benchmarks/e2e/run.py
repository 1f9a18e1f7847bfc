"""The repo's one benchmark: end-to-end and per-layer metrics.

    python benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--quick] [--check-agreement]

Runs every workload (or the named one) in fresh subprocesses started
with ``PYTHONHASHSEED=0``, prints each metric by name with its unit,
checks the program's outputs, and ends with one JSON line. ``--trace 0``
is the untraced run that gives the end-to-end metrics, ``--trace 1`` the
traced run and layer probes that give the per-layer ones; without
``--trace`` both run. Metric names, units and bounds are read from
``BENCHMARK.json``. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 17
#: a child that runs longer than this is stopped and the run fails
#: (an untraced child takes ≈ 10 s, a traced one ≈ 15 s)
CHILD_TIMEOUT_S = 60
#: runs per set of ``--check-agreement``
AGREEMENT_RUNS = 3


def manifest() -> dict:
    """``BENCHMARK.json``: metric names, units, directions, bounds."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# children: one fresh process per set-up
# ----------------------------------------------------------------------
def child_untraced(args: argparse.Namespace) -> dict:
    """Set up, warm up, measure for ``--seconds``, check the outputs."""
    from measure import (
        build_sim_traces, check_serve, check_sim, new_service, run_serve,
        run_sim,
    )
    from timing import SpeedLog
    from workloads import build_serve, lengths

    speed = SpeedLog()
    speed.sample(3)
    t_start = time.perf_counter()
    n = lengths(args.workload, args.seconds, args.quick)
    if args.workload == "sim_sched":
        traces = build_sim_traces(args.seed, speed)
        run_sim(traces, speed, 0, rounds=n.warmup_rounds)

        def measure():
            log, cells = run_sim(
                traces, speed, n.warmup_rounds, seconds=args.seconds
            )
            return log, lambda: check_sim(traces, cells, speed)[0]
    else:
        wl = build_serve(args.workload, args.seed)
        speed.sample(3)
        svc = new_service(wl)
        run_serve(wl, svc, speed, 0, rounds=n.warmup_rounds)

        def measure():
            log = run_serve(
                wl, svc, speed, n.warmup_rounds, seconds=args.seconds
            )
            return log, lambda: check_serve(wl, svc, corrupt=args.corrupt)

    setup_s = (time.time() - args.spawned_at) * speed.factor(
        t_start, time.perf_counter()
    )
    log, check = measure()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks = check()
    wall, cpu = log.at_reference_speed(speed)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "failed": log.failed,
        "checks": checks,
        "peak_rss_mb": peak_rss_mb,
        "warmup_rounds": n.warmup_rounds,
        "measured_s": log.elapsed(),
        "speed_factor": speed.median_factor(),
    }


def pin_to_one_cpu() -> None:
    """Keep every thread of a process that runs the service on one CPU.

    With both cores to choose from, the kernel sometimes packs the
    service's threads onto one core and sometimes spreads them; spread,
    they hand the interpreter lock across cores and the same pt_join
    round takes 30 ms instead of 23 ms, for tens of minutes at a time.
    Pinned, it took 23–25 ms in both regimes (README, noise floor).
    The last CPU, because interrupts and daemons favour the first.
    ``sim_sched`` runs one thread and stays free: the kernel can move
    it off a core something else wants, which a pin would forbid (its
    ``round_p90_ms`` spread 20 % pinned, 6 % free).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_traced(args: argparse.Namespace) -> dict:
    """The traced run and the layer probes of one workload."""
    from layers import trace_serve, trace_sim
    from workloads import lengths

    n = lengths(args.workload, args.seconds, args.quick)
    if args.workload == "sim_sched":
        m, checks, details = trace_sim(args.seed, n, OUT)
    else:
        m, checks, details = trace_serve(args.workload, args.seed, n, OUT)
    return {"metrics": m, "checks": checks, "details": details}


def spawn(kind: str, args: argparse.Namespace, seed: int, seconds: float) -> dict:
    """Run one child to its end and return the record it printed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE), *filter(None, [env.get("PYTHONPATH")])]
    )
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", kind,
        "--workload", args.workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--spawned-at", repr(time.time()),
    ]
    if args.quick:
        cmd.append("--quick")
    if args.corrupt:
        cmd.append("--self-test-corrupt")
    done = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{kind} child of {args.workload} exited "
                           f"with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------
def stamp(args: argparse.Namespace) -> dict:
    """Where and how a result was measured."""
    from workloads import REPEATS, SERVE_WORKERS

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # a checkout without git metadata
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "workers": SERVE_WORKERS,
        "repeats": REPEATS,
        "quick": args.quick,
    }


def run_untraced(args: argparse.Namespace) -> dict:
    """End-to-end metrics: ``REPEATS`` fresh processes, pooled."""
    from timing import median, percentile, segments
    from workloads import REPEATS

    children = [
        spawn("untraced", args, args.seed * REPEATS + k,
              args.seconds / REPEATS)
        for k in range(REPEATS)
    ]
    wall = [t for c in children for t in c["wall_s"]]
    rates, cpu_ms = [], []
    for c in children:
        for seg_wall, seg_cpu in zip(
            segments(c["wall_s"]), segments(c["cpu_s"])
        ):
            rates.append(len(seg_wall) / sum(seg_wall))
            cpu_ms.append(1e3 * sum(seg_cpu) / len(seg_cpu))
    quarters = [segments(c["wall_s"], 4) for c in children]
    # noisy phases of the box last seconds: one process's tail, pooled,
    # would set the tail of the whole run
    p90 = [percentile(c["wall_s"], 90) for c in children]
    attempted = len(wall)
    checks_ok = [all(c["checks"].values()) for c in children]
    # a process whose final state is wrong has no round that counts
    failed = sum(
        c["failed"] if ok else len(c["wall_s"])
        for c, ok in zip(children, checks_ok)
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": median([c["setup_s"] for c in children]),
            "rounds_per_s": median(rates),
            "round_p50_ms": median(wall) * 1e3,
            "round_p90_ms": median(p90) * 1e3,
            "cpu_ms_per_round": median(cpu_ms),
            "peak_rss_mb": median([c["peak_rss_mb"] for c in children]),
        },
        "details": {
            **stamp(args),
            "checks": [c["checks"] for c in children],
            "measured_rounds": [len(c["wall_s"]) for c in children],
            "warmup_rounds": children[0]["warmup_rounds"],
            "measured_wall_s": [c["measured_s"] for c in children],
            "samples": {
                "round_p50_ms": attempted,
                "round_p90_ms": [len(c["wall_s"]) for c in children],
                "beyond_p90": sum(
                    len(c["wall_s"]) - math.ceil(0.9 * len(c["wall_s"]))
                    for c in children
                ),
                "rounds_per_s": len(rates),
                "cpu_ms_per_round": len(cpu_ms),
                "setup_s": REPEATS,
                "peak_rss_mb": REPEATS,
            },
            "speed_factor": [c["speed_factor"] for c in children],
            "failed_round_share": failed / attempted,
            # stationarity: round cost late in a process over early,
            # the three processes pooled
            "last_over_first_quarter": median(
                [t for q in quarters for t in q[-1]]
            ) / median([t for q in quarters for t in q[0]]),
        },
    }


def run_traced(args: argparse.Namespace) -> dict:
    """Per-layer metrics: one traced process on the first sub-seed."""
    from workloads import REPEATS

    child = spawn("traced", args, args.seed * REPEATS, args.seconds)
    names = [m["name"] for m in manifest()["per_layer"]]
    unknown = sorted(set(child["metrics"]) - set(names))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    rounds = child["details"]["traced_rounds"]
    ok = all(child["checks"].values())
    return {
        "correct": ok,
        "attempted": rounds,
        "failed": 0 if ok else rounds,
        # a layer this workload does not exercise reads 0
        "metrics": {name: child["metrics"].get(name, 0.0) for name in names},
        "details": {
            **stamp(args), **child["details"], "checks": child["checks"],
        },
    }


def report(result: dict, kind: str) -> dict:
    """Print one run: every metric with its unit, then the JSON line
    (exactly ``correct``, ``attempted``, ``failed``, ``metrics``)."""
    units = {m["name"]: m["unit"] for m in manifest()[kind]}
    d = result["details"]
    if d["quick"]:
        print("quick: true — 1/20 length, not a source of numbers")
    print(f"# {d['workload']} seed={d['seed']} {kind} "
          f"commit={d['commit'][:12]} python={d['python']} "
          f"numpy={d['numpy']} nproc={d['nproc']}")
    for name, value in result["metrics"].items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    for key in ("measured_rounds", "traced_rounds", "warmup_rounds",
                "samples", "speed_factor", "checks"):
        if key in d:
            print(f"# {key}: {json.dumps(d[key])}")
    print(f"# attempted={result['attempted']} failed={result['failed']}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{d['workload']}.{kind}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }
    print(json.dumps(line))
    return line


# ----------------------------------------------------------------------
# --check-agreement
# ----------------------------------------------------------------------
def check_agreement(args: argparse.Namespace, workloads: list[str]) -> bool:
    """Two interleaved sets of runs of the same code must agree."""
    bounds = {m["name"]: m for m in manifest()["end_to_end"]}
    ok = True
    for workload in workloads:
        args.workload = workload
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        counts: dict[str, list[dict]] = {"A": [], "B": []}
        base_seed = args.seed
        for j in range(AGREEMENT_RUNS):
            for label in ("A", "B"):
                args.seed = base_seed + j
                sets[label].append(run_untraced(args)["metrics"])
                traced = run_traced(args)
                counts[label].append(traced["details"]["exact_counts"])
        args.seed = base_seed
        print(f"## {workload}: sets A and B of {AGREEMENT_RUNS} runs, "
              "interleaved A,B,A,B,A,B")
        for name, spec in bounds.items():
            a = [m[name] for m in sets["A"]]
            b = [m[name] for m in sets["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            ratio = med_b / med_a
            agree = abs(ratio - 1.0) <= spec["bound"]
            ok = ok and agree
            print(f"{name:20s} A={json.dumps(a)} B={json.dumps(b)}")
            print(f"{'':20s} quartiles A={statistics.quantiles(a, n=4)} "
                  f"B={statistics.quantiles(b, n=4)}")
            print(f"{'':20s} median B / median A = {med_b:.6g} / "
                  f"{med_a:.6g} = {ratio:.4f} (bound ±{spec['bound']}) "
                  f"{'ok' if agree else 'DISAGREE'}")
        # run j of A and run j of B share a seed: a count the program
        # makes deterministically reads the same in both
        exact, near = [], []
        for key in counts["A"][0]:
            pairs = [
                (a[key], b[key]) for a, b in zip(counts["A"], counts["B"])
            ]
            (exact if all(x == y for x, y in pairs) else near).append(key)
        print(f"counts repeating exactly on equal seeds: {exact}")
        print(f"counts that only nearly repeat: {near}")
    print("agreement: " + ("ok" if ok else "FAILED"))
    return ok


# ----------------------------------------------------------------------
def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="one workload (default: all four)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float,
                   help="measured seconds per run (default: run_seconds "
                        "of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="0: end-to-end metrics only, 1: per-layer only")
    p.add_argument("--quick", action="store_true",
                   help="1/20 length; never a source of numbers")
    p.add_argument("--check-agreement", action="store_true",
                   help="two interleaved sets of runs must agree within "
                        "the bounds of BENCHMARK.json")
    # a child of this harness, and the self-test's wrong expectation
    p.add_argument("--child", choices=("untraced", "traced"),
                   help=argparse.SUPPRESS)
    p.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    p.add_argument("--self-test-corrupt", dest="corrupt",
                   action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: nothing to measure, {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.child:
        if args.workload != "sim_sched":
            pin_to_one_cpu()
        child = child_untraced if args.child == "untraced" else child_traced
        print(json.dumps(child(args)))
        return 0

    from workloads import QUICK_DIVISOR, WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(manifest()["run_seconds"])
    if args.quick:
        args.seconds /= QUICK_DIVISOR
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.check_agreement:
        if args.quick:
            print("run.py: a --quick run is no source of numbers",
                  file=sys.stderr)
            return 2
        return 0 if check_agreement(args, workloads) else 1
    correct = True
    for args.workload in workloads:
        if args.trace != 1:
            correct &= report(run_untraced(args), "end_to_end")["correct"]
        if args.trace != 0:
            correct &= report(run_traced(args), "per_layer")["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
