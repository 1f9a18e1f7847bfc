"""Tests for the command-line interface."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.datalog import parse_program, seminaive_evaluate

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


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


def test_verify_program_states_a_syntax_errors_position_once(
    tmp_path, capsys
):
    prog = tmp_path / "bad.dlog"
    prog.write_text("p(X :- q(X).\n")
    assert main(["verify", "--program", str(prog)]) == 1
    out = capsys.readouterr().out
    assert (
        f"{prog}:1:5: [syntax] expected PUNCT ')', got ARROW(':-')\n" in out
    )


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


@pytest.mark.parametrize(
    "text, message",
    [
        # a lexing error: it used to print a two-exception traceback
        ("p(X) :- q(X), W = X / 0.", r"PROG:1:21: unexpected character '/'$"),
        # the position once, in the prefix
        ("p(X :- q(X).", r"PROG:1:5: expected PUNCT '\)', got ARROW\(':-'\)$"),
        ("p(1).\np(1, 2).", r"predicate p used with arities 1 and 2$"),
        ("q(1).\np(X) :- q(X), !p(X).", r"negation of 'p' inside its own"),
        # a rule comparing values of different types: it used to print a
        # traceback through the rule's kernel
        (
            'q("a"). q(1). p(X) :- q(X), X < 3.',
            r"TypeError: '<' not supported between instances of 'str' and "
            r"'int'$",
        ),
    ],
    ids=["lex", "parse", "arity", "stratification", "type"],
)
def test_datalog_user_errors_are_one_line(tmp_path, text, message):
    prog = tmp_path / "bad.dlog"
    prog.write_text(text)
    expected = "^datalog: " + message.replace("PROG", re.escape(str(prog)))
    with pytest.raises(SystemExit, match=expected):
        main(["datalog", str(prog)])


def test_datalog_missing_file_is_one_line(tmp_path):
    with pytest.raises(SystemExit, match=r"^datalog: .*No such file"):
        main(["datalog", str(tmp_path / "nope.dlog")])


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("*.dlog")), ids=lambda p: p.name
)
def test_datalog_prints_the_row_evaluators_answer(path, capsys):
    """``repro datalog`` evaluates in id space with the planner's join
    orders; what it prints is the row evaluator's answer, byte for
    byte."""
    db, _ = seminaive_evaluate(parse_program(path.read_text()))
    expected = "".join(
        f"{name}/{rel.arity} ({len(rel)} facts)\n"
        + "".join(f"  {name}{t}\n" for t in sorted(rel))
        for name, rel in sorted(db.relations.items())
    )
    assert main(["datalog", str(path)]) == 0
    assert capsys.readouterr().out == expected


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
        (["--deadline", "0"], "deadline must be positive, got 0.0"),
    ],
)
def test_simulate_refuses_limits_no_run_can_honour(flags, message):
    """One line and exit 1, before the run: ``--deadline 0`` used to run
    and then report the deadline exceeded. (``-P 0`` is argparse's to
    refuse, as for ``compare``: see the test below.)"""
    with pytest.raises(SystemExit, match=rf"^simulate: {message}$"):
        main(["simulate", "--trace", "5", "--scale", "0.2", *flags])


@pytest.mark.parametrize("cmd", ["serve", "trace"])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "-1"], "argument --seed: must be >= 0, got -1"),
        (["--rounds", "-3"], "argument --rounds: must be >= 0, got -3"),
        (["--batch-size", "0"], "argument --batch-size: must be >= 1, got 0"),
        (["--batch-size", "-1"],
         "argument --batch-size: must be >= 1, got -1"),
        (["--chaos-seed", "-1"],
         "argument --chaos-seed: must be >= 0, got -1"),
    ],
)
def test_serving_refuses_counts_out_of_range(cmd, flags, message, capsys):
    """argparse's one line and exit 2, before anything is served: a
    negative seed or chaos seed used to print a numpy traceback,
    negative rounds to serve nothing and a batch of 0 or fewer
    operations no-op rounds, both exiting 0."""
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--program" if cmd == "serve" else "--stream", "tc",
              *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"repro {cmd}: error: {message}"


@pytest.mark.parametrize("top", ["-1", "0"])
def test_trace_refuses_a_top_out_of_range(top, capsys):
    """The same for ``trace --top``, which ``serve`` does not have: it
    printed "slowest -1 rounds" and dropped a row."""
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--stream", "tc", "--top", top])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"repro trace: error: argument --top: must be >= 1, got {top}"
    )


@pytest.mark.parametrize(
    "spec, reason",
    [
        (None, "No such file or directory"),
        ('{"bogus": 1}', "unknown ChaosPlan field"),
        ('{"seed": -3}', "seed must be >= 0, got -3"),
    ],
)
def test_serve_refuses_a_chaos_plan_it_cannot_load(tmp_path, spec, reason):
    """One line and exit 1, as ``simulate --faults`` does: a missing
    file or a bad spec used to print a traceback."""
    path = tmp_path / "nope.json"
    if spec is not None:
        path.write_text(spec)
    with pytest.raises(SystemExit, match=(
        rf"^serve: cannot load chaos plan {path}: .*{reason}[^\n]*$"
    )):
        main(["serve", "--program", "tc", "--chaos-spec", str(path)])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["stats", "--trace", "99"],
         "repro stats: error: argument --trace: must be in 1..11, got 99"),
        (["simulate", "--trace", "0"],
         "repro simulate: error: argument --trace: must be in 1..11, got 0"),
        (["compare", "--trace", "12"],
         "repro compare: error: argument --trace: must be in 1..11, got 12"),
        (["generate", "--trace", "99", "-o", "t.json"],
         "repro generate: error: argument --trace: must be in 1..11, "
         "got 99"),
        (["generate", "--trace", "5", "--scale", "0", "-o", "t.json"],
         "repro generate: error: argument --scale: must be in (0, 1], "
         "got 0"),
        (["generate", "--trace", "5", "--scale", "-1", "-o", "t.json"],
         "repro generate: error: argument --scale: must be in (0, 1], "
         "got -1"),
        (["stats", "--trace", "5", "--scale", "1.5"],
         "repro stats: error: argument --scale: must be in (0, 1], got 1.5"),
        (["compare", "--trace", "5", "--scale", "0.2", "-P", "0"],
         "repro compare: error: argument -P/--processors: must be >= 1, "
         "got 0"),
        (["simulate", "--trace", "5", "--scale", "0.2", "-P", "0"],
         "repro simulate: error: argument -P/--processors: must be >= 1, "
         "got 0"),
        (["simulate", "--trace", "1", "--faults", "f.json", "--seed", "-1"],
         "repro simulate: error: argument --seed: must be >= 0, got -1"),
    ],
)
def test_trace_commands_refuse_arguments_out_of_range(argv, message, capsys):
    """argparse's one line and exit 2: an unknown trace index used to
    print a ``KeyError`` traceback, a scale outside (0, 1] and
    ``compare -P 0`` a ``ValueError`` one, each exiting 1; ``simulate
    -P 0`` printed its own one line and exited 1, and ``simulate --seed
    -1`` a numpy traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == message
