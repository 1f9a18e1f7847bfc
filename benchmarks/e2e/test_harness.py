"""Self-test of the end-to-end benchmark harness.

Not part of the tier-1 suite; run it explicitly:

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py

The ``--quick`` runs here check the harness, never the program's
speed: their numbers are 1/20 length and are thrown away.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from streams import StationaryStream, premix  # noqa: E402
from workloads import (  # noqa: E402
    SERVE_WORKLOADS,
    WORKLOADS,
    build_serve,
    build_sim_trace,
)

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_LINE = re.compile(r"^([A-Za-z0-9_.-]+)\s+(\S+)\s+(\S+)$")


def run_bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *argv],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


# ----------------------------------------------------------------------
# the manifest
# ----------------------------------------------------------------------
def test_manifest_is_within_the_contract():
    assert len(MANIFEST["end_to_end"]) <= 16
    assert len(MANIFEST["per_layer"]) <= 128
    names = [
        m["name"] for kind in ("end_to_end", "per_layer")
        for m in MANIFEST[kind]
    ] + [w["name"] for w in MANIFEST["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    for m in MANIFEST["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert MANIFEST["paths"] == ["benchmarks/e2e"]


# ----------------------------------------------------------------------
# --quick, end to end
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_prints_every_metric_once(workload, trace):
    kind = "per_layer" if trace else "end_to_end"
    done = run_bench(
        "--quick", "--workload", workload, "--trace", str(trace)
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert any(line.startswith("quick: true") for line in lines)
    printed = [
        m.groups() for m in map(METRIC_LINE.match, lines) if m is not None
    ]
    units = {m["name"]: m["unit"] for m in MANIFEST[kind]}
    assert sorted(name for name, _, _ in printed) == sorted(units)
    for name, value, unit in printed:
        float(value)
        assert unit == units[name]
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["attempted"] >= 1 and last["failed"] == 0
    assert set(last["metrics"]) == set(units)
    for name, metric in last["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
    record = json.loads((HERE / "out" / f"{workload}.{kind}.json").read_text())
    assert record["details"]["quick"] is True
    for key in ("commit", "python", "numpy", "platform", "nproc", "seed"):
        assert key in record["details"]
    if trace:
        assert (HERE / "out" / f"{workload}.trace.json").is_file()


def test_quick_is_refused_as_a_source_of_numbers():
    done = run_bench("--quick", "--check-agreement")
    assert done.returncode == 2
    assert "no source of numbers" in done.stderr


def test_wrong_expected_materialization_fails_the_run():
    done = run_bench(
        "--quick", "--workload", "agg_burst", "--trace", "0",
        "--self-test-corrupt",
    )
    assert done.returncode != 0
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] == last["attempted"]


def test_fails_without_printing_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = run_bench("--workload", "pt_join", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


# ----------------------------------------------------------------------
# the generators
# ----------------------------------------------------------------------
def _rounds(workload: str, seed: int, n: int = 24) -> str:
    """The first ``n`` rounds of a stream as canonical text."""
    wl = build_serve(workload, seed)
    return repr([
        [
            sorted(
                [("-", p, f) for p, fs in d.deletions.items() for f in fs]
                + [("+", p, f) for p, fs in d.insertions.items() for f in fs],
                key=repr,
            )
            for d in wl.next_round(i)[1]
        ]
        for i in range(n)
    ])


@pytest.mark.parametrize("workload", SERVE_WORKLOADS)
def test_streams_depend_on_the_seed_and_on_nothing_else(workload):
    assert _rounds(workload, 5) == _rounds(workload, 5)
    assert _rounds(workload, 5) != _rounds(workload, 6)


@pytest.mark.parametrize("shape", ["deep", "wide"])
def test_sim_traces_depend_on_the_seed_and_on_nothing_else(shape):
    def text(seed: int) -> str:
        return json.dumps(build_sim_trace(shape, seed).to_json_dict())

    assert text(3) == text(3)
    assert text(3) != text(4)


@pytest.mark.parametrize("workload", SERVE_WORKLOADS)
def test_replace_batches_keep_every_relation_its_size(workload):
    wl = build_serve(workload, 11)
    before = wl.stream.sizes()
    for _ in range(50):
        wl.stream.replace_batch(7)
    assert wl.stream.sizes() == before


def test_premixed_edb_is_the_streams_mirror():
    from repro.workloads.datalog_workloads import points_to

    program, edb, _ = points_to(n_vars=40, n_stmts=100, seed=2)
    stream = StationaryStream(program, edb, seed=2)
    mixed = premix(stream, edb)
    nonempty = {p: f for p, f in mixed.as_dict().items() if f}
    assert nonempty == stream.mirror()
    assert mixed.as_dict() != edb.as_dict()


def test_sim_sched_calls_nothing_in_datalog_or_runtime():
    from measure import build_sim_traces, check_sim, run_sim
    from timing import SpeedLog

    called = set()

    def note(frame, event, arg):
        if event == "call":
            called.add(frame.f_code.co_filename)

    speed = SpeedLog()
    sys.setprofile(note)
    try:
        traces = build_sim_traces(1, speed)
        _, cells = run_sim(traces, speed, 0, rounds=1)
        checks, _ = check_sim(traces, cells, speed)
    finally:
        sys.setprofile(None)
    assert all(checks.values())
    assert any("/repro/sim/" in name for name in called)
    assert not [
        name for name in called
        if "/repro/datalog/" in name or "/repro/runtime/" in name
    ]


# ----------------------------------------------------------------------
# one full-length run per serve workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", SERVE_WORKLOADS)
def test_round_cost_does_not_drift_over_a_full_run(workload):
    done = run_bench("--workload", workload, "--trace", "0")
    assert done.returncode == 0, done.stderr
    record = json.loads(
        (HERE / "out" / f"{workload}.end_to_end.json").read_text()
    )
    assert abs(record["details"]["last_over_first_quarter"] - 1.0) < 0.15
