"""Tests for the whole-program Datalog static analyzer.

One seeded fixture exercises all five finding classes — safety,
stratification, arity, dead/unreachable rules, duplicate rules, and
cartesian joins — and the runtime hook (join-order hints) the plan
cache consumes.
"""

import json

import pytest

from repro.datalog import Program, parse_program
from repro.verify import findings_to_json
from repro.verify.program import (
    ALL_PROGRAM_RULES,
    analyze_path,
    analyze_program,
    analyze_source,
)

BAD = """\
% edb: edge/2, label/2
% output: report, pairs, link3, odd, even

report(X, Z) :- edge(X, Y), !label(Y, Z).
report(X, Z) :- edge(X, Z).
report(A, B) :- edge(A, B).
pairs(X, Y) :- edge(X, A), label(Y, B).
link3(X, Z) :- edge(X, Y), label(Z, W), edge(Y, W).
odd(X) :- edge(X, Y), !even(Y).
even(X) :- edge(X, Y), !odd(Y).
spook(X) :- shadow(X, X).
tri(X) :- edge(X, Y), edge(Y, X), edge(X, Y, Z).
"""

CLEAN = """\
% edb: edge/2, source/1
% output: reach

reach(X) :- source(X).
reach(Y) :- reach(X), edge(X, Y).
"""


@pytest.fixture(scope="module")
def bad():
    return analyze_source(BAD, "bad.dlog")


def test_clean_program_has_no_findings():
    assert analyze_source(CLEAN, "ok.dlog").findings == []


def test_all_five_classes_detected(bad):
    rules = {f.rule for f in bad.findings}
    assert {
        "safety",
        "stratification",
        "arity",
        "dead-rule",
        "duplicate-rule",
        "cartesian-join",
    } <= rules
    assert rules <= set(ALL_PROGRAM_RULES)


def test_findings_carry_file_and_line(bad):
    by_rule = {}
    for f in bad.findings:
        by_rule.setdefault(f.rule, f)
    # every class anchors to the offending source line
    assert by_rule["safety"].line == 4
    assert by_rule["duplicate-rule"].line == 6
    assert by_rule["cartesian-join"].line == 7
    assert by_rule["stratification"].line == 9
    assert by_rule["dead-rule"].line == 11
    assert by_rule["arity"].line == 12
    for f in bad.findings:
        assert f.path == "bad.dlog"
        assert f.format().startswith(f"bad.dlog:{f.line}:{f.col}:")


def test_safety_names_the_unbound_variable(bad):
    msgs = [f.message for f in bad.findings if f.rule == "safety"]
    assert any("head variable Z" in m for m in msgs)
    assert any("!label(Y, Z)" in m for m in msgs)


def test_stratification_names_the_cycle(bad):
    strat = [f for f in bad.findings if f.rule == "stratification"]
    assert len(strat) == 2  # one per negative edge inside the SCC
    assert any("odd -> even -> odd" in f.message for f in strat)
    assert all(f.severity == "error" for f in strat)


def test_arity_reports_the_declaration_source(bad):
    (f,) = [f for f in bad.findings if f.rule == "arity"]
    assert "arity 3" in f.message and "arity 2" in f.message
    assert "edb declaration" in f.message


def test_duplicate_is_alpha_renaming_aware(bad):
    (f,) = [f for f in bad.findings if f.rule == "duplicate-rule"]
    assert "report#3: duplicate of report#2" in f.message


def test_cartesian_hint_gives_a_repair_order(bad):
    carts = {f.line: f for f in bad.findings if f.rule == "cartesian-join"}
    assert "no reordering helps" in carts[7].hint
    assert "edge(X, Y), edge(Y, W), label(Z, W)" in carts[8].hint


def test_rule_ids_are_stable_per_head(bad):
    assert bad.rule_ids == [
        "report#1", "report#2", "report#3", "pairs#1", "link3#1",
        "odd#1", "even#1", "spook#1", "tri#1",
    ]


def test_dead_rule_flags_both_kinds(bad):
    dead = [f for f in bad.findings if f.rule == "dead-rule"]
    assert any("can never fire" in f.message for f in dead)
    # nothing prunes a dead rule: it stays in G, joined against nothing
    assert all(
        "only ever joined against an empty relation" in f.hint
        for f in dead
        if "can never fire" in f.message
    )
    assert any("unreachable from the declared outputs" in f.message
               for f in dead)
    assert sorted(bad.unreachable_rules) == [7, 8]


def test_undefined_predicate_warns(bad):
    (f,) = [f for f in bad.findings if f.rule == "undefined-predicate"]
    assert "'shadow'" in f.message and f.severity == "warning"


def test_errors_exclude_warnings(bad):
    errors = bad.errors()
    assert errors and all(f.severity == "error" for f in errors)
    assert {f.rule for f in errors} == {"safety", "stratification", "arity"}


def test_findings_sorted_by_position(bad):
    keys = [(f.path, f.line, f.col, f.rule) for f in bad.findings]
    assert keys == sorted(keys)


def test_json_round_trip(bad):
    data = json.loads(json.dumps(findings_to_json(bad.findings)))
    assert len(data) == len(bad.findings)
    assert data[0]["path"] == "bad.dlog"
    assert {d["severity"] for d in data} == {"error", "warning"}


def test_suppression_silences_one_rule_on_one_line():
    src = BAD.replace(
        "pairs(X, Y) :- edge(X, A), label(Y, B).",
        "pairs(X, Y) :- edge(X, A), label(Y, B)."
        "  % verify: ignore[cartesian-join]",
    )
    an = analyze_source(src, "bad.dlog")
    carts = [f for f in an.findings if f.rule == "cartesian-join"]
    assert [f.line for f in carts] == [8]  # line 7's is suppressed


def test_bare_suppression_silences_every_rule_on_the_line():
    src = "p(X, Z) :- q(X).  % verify: ignore\n"
    an = analyze_source(src, "p.dlog")
    assert an.findings == []


def test_malformed_pragmas_are_reported():
    an = analyze_source(
        "% edb: edge/two\n% output: Report\np(X) :- edge(X, X).\n",
        "p.dlog",
    )
    assert [f.rule for f in an.findings].count("pragma") == 2
    assert all(f.severity == "error" for f in an.findings
               if f.rule == "pragma")


def test_undeclared_output_warns():
    an = analyze_source(
        "% edb: edge/2\n% output: ghost\np(X) :- edge(X, X).\n",
        "p.dlog",
    )
    assert any(
        f.rule == "pragma" and "ghost" in f.message
        and f.severity == "warning"
        for f in an.findings
    )


def test_syntax_errors_recover_and_keep_analyzing():
    src = "p(X :- q(X).\nr(Y) :- s(Y, Y, Y).\nr(Z) :- s(Z, Z).\n"
    an = analyze_source(src, "p.dlog")
    rules = [f.rule for f in an.findings]
    assert "syntax" in rules  # the bad clause
    assert "arity" in rules  # analysis continued past it
    (syntax,) = [f for f in an.findings if f.rule == "syntax"]
    assert syntax.line == 1


def test_analyze_path_reads_the_example(tmp_path):
    p = tmp_path / "prog.dlog"
    p.write_text(CLEAN)
    an = analyze_path(p)
    assert an.findings == [] and an.path == str(p)


# ----------------------------------------------------------------------
# runtime hooks
# ----------------------------------------------------------------------
def test_negation_is_ignored_conservatively():
    # r reads !s; s empty makes the negation *more* permissive, so the
    # rule must not be considered dead — only s's own rule is
    an = analyze_source(
        "% edb: q/1\nr(X) :- q(X), !s(X).\ns(X) :- t(X).\n"
    )
    dead = [
        f.message for f in an.findings
        if f.rule == "dead-rule" and "can never fire" in f.message
    ]
    assert len(dead) == 1 and dead[0].startswith("s#1:")


def test_join_orders_rekeyed_for_pruned_program():
    prog = parse_program(
        "gone(X) :- vanished(X).\n"
        "wide(X, Z) :- edge(X, Y), label(Z, W), edge(Y, W).\n"
    )
    an = analyze_program(prog)
    assert an.join_orders == {1: (0, 2, 1)}
    sub = Program([prog.rules[1]])
    assert an.join_orders_for(sub) == {0: (0, 2, 1)}
    assert an.join_orders_for(prog) == {1: (0, 2, 1)}
