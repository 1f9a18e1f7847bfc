"""Query interface: match goals against a materialized database.

The paper's setting is *query-driven*: "queries in Datalog-based systems
are answered by checking them against the stored dataset of all facts
that can be derived" — incremental maintenance exists so these lookups
stay cheap after updates. This module provides that lookup surface:

>>> answers = query(db, "path(1, X), X > 2")
>>> sorted(a["X"] for a in answers)
[3, 4]

Goals are comma-separated body literals (same syntax as rule bodies,
including negation and comparisons) evaluated against the materialized
relations — no rule firing happens at query time.
"""

from __future__ import annotations

from typing import Iterator

from .ast import Literal
from .database import Database
from .parser import ParseError, _Parser
from .unify import join_body

__all__ = ["parse_goal", "query", "query_facts"]


def parse_goal(text: str) -> tuple[Literal, ...]:
    """Parse a comma-separated conjunction of body literals."""
    p = _Parser(text.rstrip().rstrip("."))
    literals = [p.parse_literal()]
    while p.at("PUNCT", ","):
        p.next()
        literals.append(p.parse_literal())
    tok = p.peek()
    if tok is not None:
        raise ParseError(
            f"trailing input after goal: {tok!r}", tok.line, tok.col
        )
    goal = tuple(literals)
    _check_goal_safety(goal)
    return goal


def _check_goal_safety(goal: tuple[Literal, ...]) -> None:
    bound = {
        v.name
        for lit in goal
        if not lit.negated and lit.atom is not None
        for v in lit.variables()
    }
    for lit in goal:
        if lit.negated or lit.is_comparison:
            for v in lit.variables():
                if v.name not in bound:
                    raise ParseError(
                        f"unsafe goal: variable {v.name} in {lit!r} is not "
                        "bound by a positive literal"
                    )


def query(db: Database, goal: str | tuple[Literal, ...]) -> Iterator[dict]:
    """All substitutions satisfying ``goal`` against ``db``.

    Yields plain dicts mapping variable names to values; a ground goal
    yields one empty dict if it holds and nothing otherwise.
    """
    literals = parse_goal(goal) if isinstance(goal, str) else goal
    seen: set[tuple] = set()
    names = sorted(
        {v.name for lit in literals for v in lit.variables()}
    )
    for subst in join_body(literals, db):
        key = tuple(subst.get(n) for n in names)
        if key in seen:
            continue
        seen.add(key)
        yield {n: subst[n] for n in names if n in subst}


def query_facts(db: Database, goal: str) -> list[dict]:
    """Eager, list-returning convenience wrapper over :func:`query`."""
    return list(query(db, goal))
