"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def test_stats_generated_trace(capsys):
    assert main(["stats", "--trace", "5", "--scale", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "nodes" in out and "active jobs" in out


def test_simulate(capsys):
    rc = main(
        ["simulate", "--trace", "5", "--scale", "0.3",
         "--scheduler", "levelbased", "-P", "4"]
    )
    assert rc == 0
    assert "LevelBased" in capsys.readouterr().out


def test_unknown_scheduler():
    with pytest.raises(SystemExit):
        main(["simulate", "--trace", "5", "--scheduler", "wat"])


def test_lbl_scheduler_spec(capsys):
    rc = main(
        ["simulate", "--trace", "5", "--scale", "0.3",
         "--scheduler", "lbl:7", "-P", "4"]
    )
    assert rc == 0
    assert "LBL(k=7)" in capsys.readouterr().out


def test_bad_lbl_depth():
    with pytest.raises(SystemExit, match="look-ahead"):
        main(["simulate", "--trace", "5", "--scheduler", "lbl:x"])


def test_missing_trace_args():
    with pytest.raises(SystemExit):
        main(["stats"])


def test_compare(capsys):
    assert main(["compare", "--trace", "5", "--scale", "0.3", "-P", "4"]) == 0
    out = capsys.readouterr().out
    assert "Hybrid" in out and "LogicBlox" in out


def test_generate_and_reload(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(
        ["generate", "--trace", "5", "--scale", "0.2", "-o", str(out)]
    ) == 0
    data = json.loads(out.read_text())
    assert data["schema"] == 1
    # stats on the file round-trips
    assert main(["stats", "--trace-file", str(out)]) == 0
    assert "nodes" in capsys.readouterr().out


def test_simulate_strict_writes_result(tmp_path, capsys):
    out = tmp_path / "result.json"
    rc = main(
        ["simulate", "--trace", "5", "--scale", "0.2", "--strict",
         "-o", str(out)]
    )
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert data["schema"] == 1
    assert data["result"]["schedule"]  # strict recorded the schedule


def test_verify_lint_clean_schedulers(capsys):
    assert main(["verify", "--lint", "src/repro/schedulers"]) == 0
    assert "lint: clean" in capsys.readouterr().out


def test_verify_lint_reports_findings(tmp_path, capsys):
    bad = tmp_path / "bad_sched.py"
    bad.write_text(
        "from repro.schedulers.base import Scheduler\n"
        "class Cheat(Scheduler):\n"
        "    def prepare(self, ctx):\n"
        "        self._w = ctx.trace.propagation\n"
    )
    assert main(["verify", "--lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "[clairvoyance]" in out and "lint: 1 finding(s)" in out


def test_verify_result_file_ok(tmp_path, capsys):
    out = tmp_path / "result.json"
    main(["simulate", "--trace", "5", "--scale", "0.2", "-o", str(out)])
    capsys.readouterr()
    assert main(["verify", "--trace", str(out)]) == 0
    assert "OK" in capsys.readouterr().out


def test_verify_result_file_detects_corruption(tmp_path, capsys):
    out = tmp_path / "result.json"
    main(["simulate", "--trace", "5", "--scale", "0.2", "-o", str(out)])
    capsys.readouterr()
    data = json.loads(out.read_text())
    data["result"]["schedule"].pop()
    out.write_text(json.dumps(data))
    assert main(["verify", "--trace", str(out)]) == 1
    assert "missing-task" in capsys.readouterr().out


def test_verify_requires_an_input(capsys):
    assert main(["verify"]) == 2
    assert "nothing to do" in capsys.readouterr().err


def test_verify_program_clean(tmp_path, capsys):
    prog = tmp_path / "ok.dlog"
    prog.write_text(
        "% edb: edge/2\n"
        "% output: path\n"
        "path(X, Y) :- edge(X, Y).\n"
        "path(X, Z) :- path(X, Y), edge(Y, Z).\n"
    )
    assert main(["verify", "--program", str(prog)]) == 0
    assert "clean" in capsys.readouterr().out


def test_verify_program_reports_findings(tmp_path, capsys):
    prog = tmp_path / "bad.dlog"
    prog.write_text("p(X, Y) :- q(X).\n")
    assert main(["verify", "--program", str(prog)]) == 1
    out = capsys.readouterr().out
    assert "[safety]" in out and "1:1" in out


def test_verify_program_json_format(tmp_path, capsys):
    prog = tmp_path / "bad.dlog"
    prog.write_text("p(X, Y) :- q(X).\n")
    assert main(["verify", "--program", str(prog), "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == 1
    findings = data["programs"][0]["findings"]
    assert findings and findings[0]["rule"] == "safety"
    assert findings[0]["line"] == 1


def test_verify_program_missing_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "nope.dlog"
    assert main(["verify", "--program", str(missing)]) == 2
    assert "cannot analyze" in capsys.readouterr().err


def test_verify_lint_bad_path_is_usage_error(tmp_path, capsys):
    assert main(["verify", "--lint", str(tmp_path / "nope.txt")]) == 2
    assert "verify:" in capsys.readouterr().err


def test_datalog_command(tmp_path, capsys):
    prog = tmp_path / "p.dl"
    prog.write_text(
        """
        edge(1, 2). edge(2, 3).
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- path(X, Y), edge(Y, Z).
        """
    )
    assert main(["datalog", str(prog)]) == 0
    out = capsys.readouterr().out
    assert "path/2 (3 facts)" in out
    assert "path(1, 3)" in out


def test_serve_with_chaos_seed(capsys):
    rc = main(
        [
            "serve", "--program", "retail", "--rounds", "4",
            "--scheduler", "hybrid", "--chaos-seed", "7",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "chaos seed 7" in out
    assert "chaos:" in out
    assert "health=" in out


def test_serve_with_chaos_spec_file(tmp_path, capsys):
    from repro.runtime import ChaosPlan

    spec = tmp_path / "chaos.json"
    spec.write_text(
        json.dumps(
            ChaosPlan(
                seed=3, unit_fail_prob=0.2, unit_latency_prob=0.1
            ).to_json_dict()
        )
    )
    rc = main(
        [
            "serve", "--program", "retail", "--rounds", "3",
            "--chaos-spec", str(spec),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "chaos seed 3" in out


def test_serve_chaos_options(capsys):
    rc = main(
        [
            "serve", "--program", "retail", "--rounds", "3",
            "--chaos-seed", "11", "--unit-retries", "5",
            "--unit-timeout", "0.5", "--shed-policy", "coalesce-harder",
        ]
    )
    assert rc == 0
    assert "final materialization matches" in capsys.readouterr().out


def test_serve_no_chaos_unchanged(capsys):
    rc = main(["serve", "--program", "retail", "--rounds", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "chaos" not in out


def test_serve_refuses_a_round_no_worker_can_run():
    with pytest.raises(SystemExit, match=r"^serve: workers must be positive"):
        main(["serve", "--program", "tc", "--rounds", "2", "-w", "0"])


@pytest.mark.parametrize(
    "flags, message",
    [
        (["-P", "0"], "processors must be positive, got 0"),
        (["--deadline", "0"], "deadline must be positive, got 0.0"),
    ],
)
def test_simulate_refuses_limits_no_run_can_honour(flags, message):
    """One line and exit 1, before the run: ``-P 0`` used to print a
    traceback, ``--deadline 0`` to run and then report the deadline
    exceeded."""
    with pytest.raises(SystemExit, match=rf"^simulate: {message}$"):
        main(["simulate", "--trace", "5", "--scale", "0.2", *flags])
