"""Tests for stratified aggregation (count/sum/min/max)."""

import pytest

from repro.datalog import (
    Database,
    Delta,
    IncrementalEngine,
    ParseError,
    StratificationError,
    compile_update,
    parse_program,
    seminaive_evaluate,
)
from repro.datalog.ast import Aggregate, Variable


class TestParsing:
    def test_aggregate_head_parses(self):
        prog = parse_program("total(C, sum(Q)) :- sales(C, Q).")
        rule = prog.proper_rules[0]
        assert rule.has_aggregate
        agg = next(rule.head.aggregates())
        assert agg.op == "sum" and agg.var == Variable("Q")

    def test_all_operators(self):
        for op in ("count", "sum", "min", "max"):
            prog = parse_program(f"t(C, {op}(Q)) :- s(C, Q).")
            assert prog.proper_rules[0].has_aggregate

    def test_aggregate_in_body_rejected(self):
        # the grammar cannot even produce an aggregate in a body atom
        with pytest.raises(ParseError):
            parse_program("t(C) :- s(C, sum(Q)).")

    def test_ast_level_body_aggregate_rejected(self):
        from repro.datalog.ast import Atom, Literal, Rule

        body_atom = Atom("s", (Variable("C"), Aggregate("sum", Variable("Q"))))
        with pytest.raises(ValueError, match="heads"):
            Rule(
                Atom("t", (Variable("C"),)),
                (Literal(atom=body_atom),),
            )

    def test_two_aggregates_rejected(self):
        with pytest.raises(ParseError, match="one aggregate"):
            parse_program("t(sum(A), sum(B)) :- s(A, B).")

    def test_unknown_op_is_plain_atom_call(self):
        # avg(Q) is not an aggregate op — parses as unexpected "(" term
        with pytest.raises(ParseError):
            parse_program("t(C, avg(Q)) :- s(C, Q).")

    def test_unbound_aggregate_var_rejected(self):
        with pytest.raises(ParseError, match="unsafe"):
            parse_program("t(C, sum(Q)) :- s(C, R).")

    def test_bad_op_in_ast(self):
        with pytest.raises(ValueError, match="unknown aggregate"):
            Aggregate("median", Variable("X"))


class TestEvaluation:
    def base(self):
        return parse_program(
            """
            sales(shirts, 10). sales(shirts, 5). sales(pants, 7).
            total(C, sum(Q)) :- sales(C, Q).
            lines(C, count(Q)) :- sales(C, Q).
            lo(C, min(Q)) :- sales(C, Q).
            hi(C, max(Q)) :- sales(C, Q).
            """
        )

    def test_all_aggregates(self):
        db, _ = seminaive_evaluate(self.base())
        d = db.as_dict()
        assert d["total"] == {("shirts", 15), ("pants", 7)}
        assert d["lines"] == {("shirts", 2), ("pants", 1)}
        assert d["lo"] == {("shirts", 5), ("pants", 7)}
        assert d["hi"] == {("shirts", 10), ("pants", 7)}

    def test_empty_group_emits_nothing(self):
        prog = parse_program("total(C, sum(Q)) :- sales(C, Q).")
        db, _ = seminaive_evaluate(prog)
        assert db.as_dict().get("total", set()) == set()

    def test_aggregate_feeds_downstream_rules(self):
        prog = parse_program(
            """
            sales(a, 10). sales(a, 20). sales(b, 1).
            total(C, sum(Q)) :- sales(C, Q).
            big(C) :- total(C, T), T > 15.
            """
        )
        db, _ = seminaive_evaluate(prog)
        assert db.as_dict()["big"] == {("a",)}

    def test_aggregate_over_recursive_predicate(self):
        prog = parse_program(
            """
            edge(1, 2). edge(2, 3). edge(1, 3).
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).
            out_reach(X, count(Y)) :- path(X, Y).
            """
        )
        db, _ = seminaive_evaluate(prog)
        assert db.as_dict()["out_reach"] == {(1, 2), (2, 1)}

    def test_aggregation_through_itself_rejected(self):
        prog = parse_program(
            """
            t(C, sum(Q)) :- s(C, Q).
            s(C, Q) :- t(C, Q).
            """
        )
        from repro.datalog import DependencyGraph

        with pytest.raises(StratificationError):
            DependencyGraph(prog).stratify()


class TestIncremental:
    def setup_engine(self):
        prog = parse_program("total(C, sum(Q)) :- sales(C, Q).")
        edb = Database()
        for f in [("a", 3), ("a", 4), ("b", 1)]:
            edb.add_fact("sales", f)
        return prog, edb

    def test_insert_updates_aggregate(self):
        prog, edb = self.setup_engine()
        eng = IncrementalEngine(prog, edb)
        eng.apply(Delta().insert("sales", ("a", 10)))
        assert eng.snapshot()["total"] == {("a", 17), ("b", 1)}

    def test_delete_updates_aggregate(self):
        prog, edb = self.setup_engine()
        eng = IncrementalEngine(prog, edb)
        eng.apply(Delta().delete("sales", ("a", 3)))
        assert eng.snapshot()["total"] == {("a", 4), ("b", 1)}

    def test_group_disappears_when_empty(self):
        prog, edb = self.setup_engine()
        eng = IncrementalEngine(prog, edb)
        eng.apply(Delta().delete("sales", ("b", 1)))
        assert eng.snapshot()["total"] == {("a", 7)}

    def test_matches_recompute_oracle(self):
        prog, edb = self.setup_engine()
        eng = IncrementalEngine(prog, edb)
        eng.apply(
            Delta().insert("sales", ("c", 9)).delete("sales", ("a", 4))
        )
        final = Database()
        for f in [("a", 3), ("b", 1), ("c", 9)]:
            final.add_fact("sales", f)
        oracle, _ = seminaive_evaluate(prog, final)
        assert eng.snapshot()["total"] == oracle.as_dict()["total"]


class TestCompilation:
    def test_aggregate_update_compiles_and_activates(self):
        prog = parse_program(
            """
            total(C, sum(Q)) :- sales(C, Q).
            big(C) :- total(C, T), T > 10.
            """
        )
        edb = Database()
        for f in [("a", 6), ("a", 6), ("b", 2)]:
            edb.add_fact("sales", f)
        cu = compile_update(prog, edb, Delta().insert("sales", ("b", 20)))
        trace = cu.trace
        assert trace.n_active_jobs >= 2  # both rules re-fire with changes
        from repro.schedulers import LevelBasedScheduler
        from repro.sim import simulate

        res = simulate(trace, LevelBasedScheduler(), processors=2)
        assert res.tasks_executed == trace.n_active
