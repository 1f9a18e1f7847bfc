"""``repro serve`` and ``repro trace`` driven through ``main()``.

Each test serves a stream the way a person does and reads what the
command prints (and, with ``--metrics``, writes): the exit code, the
final comparison with from-scratch evaluation of the stream's own
mirror, and the per-round maintenance counts. It runs in-process, so a
patch (a counted ``threading.Thread.start``, a scripted stream, a
refusing analyzer) is a ``monkeypatch`` that ends with the test.
"""

from __future__ import annotations

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

import repro.runtime
from repro.cli import main

MATCHES = "final materialization matches"
VALIDATOR = (
    Path(__file__).resolve().parents[2] / "scripts" / "validate_chrome_trace.py"
)


def _serve(argv: list[str], capsys) -> str:
    """Run ``argv`` through ``main()``; it must exit 0 with the final
    comparison passing. Returns what it printed."""
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0 and MATCHES in out, out
    return out


def _rounds(path: Path) -> list[dict]:
    return json.loads(path.read_text())["rounds"]


#: the chaos seeds under which a smoke's rounds fail: it must print a
#: failed round whose delta was re-queued (seed 7's rounds never fail —
#: its serve case is the no-failure one)
FAILING_CHAOS_SEEDS = ("3", "8", "11")


def _assert_requeued(argv: str, out: str) -> None:
    """A smoke under a failing chaos seed printed a re-queued failure:
    its final comparison then shows the re-queued delta landed."""
    words = argv.split()
    if "--chaos-seed" in words and words[-1] in FAILING_CHAOS_SEEDS:
        assert re.search(r"^round failed: \w+ \(requeued=True\)$", out,
                         re.MULTILINE), out


def test_a_chain_round_starts_no_thread(started, capsys):
    """The thread that runs the round is processor 0: tc's G is a
    3-node chain, so nothing is handed off and no lane is started."""
    _serve(["serve", "--program", "tc", "--stream", "mixed",
            "--scheduler", "hybrid", "--rounds", "5"], capsys)
    assert started == [], started


def test_lanes_outlive_a_round(started, capsys):
    """A service keeps its lanes: pt's G has width, so its rounds hand
    units off, and at two workers the one lane the first hand-off starts
    parks between rounds and serves every later one; serve closes the
    service, which joins it."""
    _serve(["serve", "--program", "pt", "-w", "2", "--rounds", "30"], capsys)
    assert len(started) <= 1, started
    alive = [t.name for t in started if t.is_alive()]
    assert not alive, alive


def test_a_growth_only_round_maintains_a_retraction_does_not_continue(
    monkeypatch, tmp_path, capsys
):
    """tc over five growth-only ticks and a sixth holding one
    retraction: the fixpoint node of every warm growth round continues
    the committed fixpoint (``continued_nodes == 1``), the first round
    (a miss) recomputes and the retraction round retracts or recomputes
    (0)."""

    def ticks(wl, kind, rounds, batch_size):
        for i in range(rounds):
            yield [wl.random_batch(
                batch_size if i < 5 else 1,
                delete_frac=0.0 if i < 5 else 1.0,
            )]

    monkeypatch.setattr(repro.runtime, "make_stream", ticks)
    path = tmp_path / "m.json"
    out = _serve(["serve", "--program", "tc", "--stream", "steady",
                  "--scheduler", "hybrid", "--rounds", "6",
                  "--metrics", str(path)], capsys)
    rounds = _rounds(path)
    assert not any(m["noop"] or m["degraded"] for m in rounds), rounds
    assert [m["continued_nodes"] for m in rounds] == [0, 1, 1, 1, 1, 0]
    assert out.count("fixpoint(s) continued") == 4, out


def test_a_recursive_retraction_maintains(tmp_path, capsys):
    """tc over the deletions stream, checked and strict: the final
    comparison passes and its delete rounds retract (the fixpoint node
    takes out of its committed value only the rows that lost their
    support): ``retracted_nodes`` sums above 0."""
    path = tmp_path / "m.json"
    out = _serve(["serve", "--program", "tc", "--stream", "deletions",
                  "--rounds", "40", "--metrics", str(path)], capsys)
    assert sum(m["retracted_nodes"] for m in _rounds(path)) > 0
    assert "fixpoint(s) retracted" in out, out


def test_non_recursive_nodes_maintain_on_every_warm_round(
    monkeypatch, tmp_path, capsys
):
    """analytics (aggregates, negation, no recursion) over eight mixed
    ticks: the miss round maintains no task node, every warm round
    maintains some, and the result matches."""

    def ticks(wl, kind, rounds, batch_size):
        for _ in range(rounds):
            yield [wl.random_batch(batch_size, delete_frac=0.5)]

    monkeypatch.setattr(repro.runtime, "make_stream", ticks)
    path = tmp_path / "m.json"
    out = _serve(["serve", "--program", "analytics", "--stream", "steady",
                  "--scheduler", "hybrid", "--rounds", "8",
                  "--metrics", str(path)], capsys)
    rounds = _rounds(path)
    assert not any(m["noop"] or m["degraded"] for m in rounds), rounds
    maintained = [m["maintained_tasks"] for m in rounds]
    assert maintained[0] == 0 and all(n > 0 for n in maintained[1:])
    assert out.count("task(s) maintained") == 7, out


@pytest.mark.parametrize("program", ["pt", "retail"])
def test_the_analyzer_is_off_the_serving_path(program, monkeypatch, capsys):
    """Served for 30 rounds with the static analyzer refusing to run,
    under every name a serving module could look it up by: the rule
    planner orders every join, so neither constructing the service nor
    serving a round runs the analyzer."""
    import repro.verify.program as analyzer

    real = analyzer.analyze_program

    def refuse(*args, **kwargs):
        raise AssertionError("analyze_program ran on the serving path")

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and (
            getattr(module, "analyze_program", None) is real
        ):
            monkeypatch.setattr(module, "analyze_program", refuse)
    _serve(["serve", "--program", program, "--rounds", "30"], capsys)


@pytest.mark.parametrize("argv", [
    "--program retail --stream bursty --scheduler hybrid --rounds 20",
    # --no-verify rounds contain no from-scratch evaluation; the final
    # comparison (and the exit code) still gates them
    "--program tc --stream mixed --scheduler hybrid --rounds 20 --no-verify",
    "--program pt --stream mixed --scheduler hybrid --rounds 20 --no-verify",
    "--program flat --stream deletions --scheduler hybrid --rounds 12",
    "--program flat --stream mixed --scheduler hybrid --rounds 12",
    # seeded chaos: rounds of seeds 3 and 11 fail and are re-queued, and
    # the run still lands on the stream's mirror; seed 7's never fail
    "--program retail --stream steady --scheduler hybrid --rounds 12"
    " --chaos-seed 3",
    "--program retail --stream steady --scheduler hybrid --rounds 12"
    " --chaos-seed 7",
    "--program retail --stream steady --scheduler hybrid --rounds 12"
    " --chaos-seed 11",
])
def test_serve_smoke(argv, capsys):
    _assert_requeued(argv, _serve(["serve", *argv.split()], capsys))


def test_lethal_chaos_serves_degraded_rounds(tmp_path, capsys):
    """Every unit attempt on the executor fails, so only rounds the open
    breaker runs serially get served — no seeded chaos smoke reaches
    one."""
    spec = tmp_path / "lethal.json"
    spec.write_text('{"seed": 1, "unit_fail_prob": 1.0}')
    out = _serve(["serve", "--program", "retail", "--stream", "steady",
                  "--scheduler", "hybrid", "--rounds", "12",
                  "--chaos-spec", str(spec)], capsys)
    assert "DEGRADED" in out, out


def _validate_chrome_trace(path: Path) -> int:
    """``scripts/validate_chrome_trace.py path``'s exit code."""
    spec = importlib.util.spec_from_file_location("validate", VALIDATOR)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script.main([str(path)])


@pytest.mark.parametrize("argv", [
    # seed 8's rounds fail: the trace records the failed rounds too
    "--stream retail --scheduler hybrid --rounds 8 --chaos-seed 8",
    "--stream retail --scheduler levelbased --rounds 12 --jsonl {jsonl}",
])
def test_trace_smoke(argv, tmp_path, capsys):
    """A traced stream writes a Chrome trace that the schema validator
    accepts (and, with ``--jsonl``, its records)."""
    trace, jsonl = tmp_path / "trace.json", tmp_path / "trace.jsonl"
    out = _serve(
        ["trace", *argv.format(jsonl=jsonl).split(), "-o", str(trace)],
        capsys,
    )
    _assert_requeued(argv, out)
    assert _validate_chrome_trace(trace) == 0
    assert "--jsonl" not in argv or jsonl.read_text()
