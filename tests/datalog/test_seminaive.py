"""Tests for naive and semi-naive evaluation."""

import pytest

from repro.datalog import (
    Database,
    naive_evaluate,
    parse_program,
    seminaive_evaluate,
)


def tc_program():
    return parse_program(
        """
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- path(X, Y), edge(Y, Z).
        """
    )


def chain_edb(n):
    db = Database()
    for i in range(n - 1):
        db.add_fact("edge", (i, i + 1))
    return db


class TestTransitiveClosure:
    def test_chain_closure_count(self):
        db, _ = seminaive_evaluate(tc_program(), chain_edb(6))
        assert db.count("path") == 5 * 6 // 2  # C(6,2)

    def test_matches_naive(self):
        prog, edb = tc_program(), chain_edb(8)
        assert (
            naive_evaluate(prog, edb).as_dict()
            == seminaive_evaluate(prog, edb)[0].as_dict()
        )

    def test_facts_inline_in_program(self):
        prog = parse_program(
            """
            edge(1, 2). edge(2, 3).
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).
            """
        )
        db, _ = seminaive_evaluate(prog)
        assert db.as_dict()["path"] == {(1, 2), (2, 3), (1, 3)}

    def test_iteration_count_linear_in_depth(self):
        # a 9-edge chain: one Δ round per path length, so 9 rounds
        # reach the fixpoint and 8 do not
        with pytest.raises(RuntimeError, match="exceeded 8 iterations"):
            seminaive_evaluate(tc_program(), chain_edb(10), max_iterations=8)
        db, _ = seminaive_evaluate(
            tc_program(), chain_edb(10), max_iterations=9
        )
        assert db.count("path") == 9 * 10 // 2

    def test_input_database_not_mutated(self):
        edb = chain_edb(4)
        before = edb.as_dict()
        seminaive_evaluate(tc_program(), edb)
        assert edb.as_dict() == before


class TestNegationAndComparisons:
    def test_stratified_negation(self):
        prog = parse_program(
            """
            node(1). node(2). node(3).
            edge(1, 2).
            reach(1).
            reach(Y) :- reach(X), edge(X, Y).
            unreach(X) :- node(X), !reach(X).
            """
        )
        db, _ = seminaive_evaluate(prog)
        assert db.as_dict()["unreach"] == {(3,)}

    def test_comparison_in_recursion(self):
        prog = parse_program(
            """
            num(1). num(2). num(3). num(4).
            small(X) :- num(X), X < 3.
            """
        )
        db, _ = seminaive_evaluate(prog)
        assert db.as_dict()["small"] == {(1,), (2,)}

    def test_unstratifiable_raises(self):
        prog = parse_program("win(X) :- move(X, Y), !win(Y).")
        with pytest.raises(Exception, match="negation"):
            seminaive_evaluate(prog)


class TestNonlinearRecursion:
    def test_doubling_rule(self):
        prog = parse_program(
            """
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), path(Y, Z).
            """
        )
        db, _ = seminaive_evaluate(prog, chain_edb(9), max_iterations=4)
        assert db.count("path") == 8 * 9 // 2
        # nonlinear recursion converges in O(log n) delta rounds: an
        # 8-edge chain needs 4, paths of length 1, 2, 4 and 8
        with pytest.raises(RuntimeError, match="exceeded 3 iterations"):
            seminaive_evaluate(prog, chain_edb(9), max_iterations=3)

    def test_mutual_recursion(self):
        prog = parse_program(
            """
            zero(0).
            succ(0, 1). succ(1, 2). succ(2, 3). succ(3, 4).
            even(X) :- zero(X).
            even(Y) :- succ(X, Y), odd(X).
            odd(Y) :- succ(X, Y), even(X).
            """
        )
        db, _ = seminaive_evaluate(prog)
        assert db.as_dict()["even"] == {(0,), (2,), (4,)}
        assert db.as_dict()["odd"] == {(1,), (3,)}
