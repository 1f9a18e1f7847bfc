"""Live-serving throughput — the runtime's perf baseline.

For every registered scheduler: drive the update-stream service over
the same seeded retail stream and report rounds/sec plus p50/p99
round latency. Verification stays ON — the numbers are for the
maintenance loop as actually served (compile + execute + verify), not
a stripped-down hot path. Besides the usual results/ text block, this
bench writes ``BENCH_runtime.json`` at the repo root to seed the
performance trajectory for later optimisation PRs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from conftest import run_once

from repro.analysis import render_table
from repro.runtime import UpdateStreamService, live_workload, make_stream
from repro.schedulers import scheduler_registry

BENCH_JSON = Path(__file__).parent.parent / "BENCH_runtime.json"

ROUNDS = 30
WORKERS = 4
SEED = 17


def serve_stream(sched_name: str):
    wl = live_workload("retail", seed=SEED)
    svc = UpdateStreamService(
        wl.program,
        wl.edb,
        scheduler_registry()[sched_name](),
        workers=WORKERS,
        name=f"bench:{sched_name}",
    )
    for batches in make_stream(wl, "bursty", rounds=ROUNDS):
        for delta in batches:
            svc.submit(delta)
        rep = svc.run_round()
        assert rep is not None and rep.materialization_ok
    return svc.metrics


def test_runtime_throughput(benchmark, emit):
    def run():
        return {
            name: serve_stream(name)
            for name in sorted(scheduler_registry())
        }

    logs = run_once(benchmark, run)

    rows = []
    payload = {
        "schema": 1,
        "stream": {
            "program": "retail",
            "kind": "bursty",
            "rounds": ROUNDS,
            "workers": WORKERS,
            "seed": SEED,
        },
        "schedulers": {},
    }
    for name, log in logs.items():
        pcts = log.latency_percentiles((50.0, 99.0))
        rows.append(
            [
                name,
                f"{log.rounds_per_second():.1f}",
                f"{pcts['p50'] * 1e3:.2f}",
                f"{pcts['p99'] * 1e3:.2f}",
            ]
        )
        payload["schedulers"][name] = {
            "rounds_per_sec": round(log.rounds_per_second(), 3),
            "p50_latency_ms": round(pcts["p50"] * 1e3, 3),
            "p99_latency_ms": round(pcts["p99"] * 1e3, 3),
            "total_tasks_executed": sum(
                r.tasks_executed for r in log.rounds
            ),
        }

    text = render_table(
        ["scheduler", "rounds/s", "p50 ms", "p99 ms"],
        rows,
        title=(
            f"runtime throughput — retail/bursty, {ROUNDS} rounds, "
            f"{WORKERS} workers (verification on)"
        ),
    )
    emit("runtime_throughput", text)
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    for name, stats in payload["schedulers"].items():
        assert stats["rounds_per_sec"] > 0, name


if __name__ == "__main__":
    pytest.main([__file__, "--benchmark-only", "-q"])
