"""Substitutions, matching, and rule-body join evaluation.

The evaluator works with plain dict substitutions ``{var name: value}``.
:func:`join_body` enumerates all substitutions satisfying a rule body
against given relations, indexing each atom on its already-bound
positions — the standard bottom-up nested-loop join with hash lookup.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping

from .ast import Atom, Comparison, Constant, Literal, Variable
from .database import Database, Relation

__all__ = [
    "Subst",
    "match_atom",
    "apply_subst",
    "eval_comparison",
    "join_body",
    "instantiate_head",
    "eval_rule",
]

Subst = dict[str, object]


def match_atom(atom: Atom, fact: tuple, subst: Subst) -> Subst | None:
    """Extend ``subst`` to match ``atom`` against a ground ``fact``.

    Returns the extended substitution, or None on mismatch. The input
    dict is not mutated.
    """
    out = None  # copy lazily
    for term, value in zip(atom.terms, fact):
        if isinstance(term, Constant):
            if term.value != value:
                return None
        else:
            bound = (out or subst).get(term.name, _MISSING)
            if bound is _MISSING:
                if out is None:
                    out = dict(subst)
                out[term.name] = value
            elif bound != value:
                return None
    return out if out is not None else dict(subst)


_MISSING = object()


def apply_subst(atom: Atom, subst: Mapping[str, object]) -> tuple:
    """Ground ``atom``'s terms under ``subst`` (must bind all variables)."""
    out = []
    for t in atom.terms:
        if isinstance(t, Constant):
            out.append(t.value)
        else:
            v = subst.get(t.name, _MISSING)
            if v is _MISSING:
                raise KeyError(f"unbound variable {t.name} in {atom!r}")
            out.append(v)
    return tuple(out)


_CMP: dict[str, Callable[[object, object], bool]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_comparison(cmp: Comparison, subst: Mapping[str, object]) -> bool:
    """Evaluate a ground comparison under ``subst``."""

    def val(t):
        if isinstance(t, Constant):
            return t.value
        return subst[t.name]

    return _CMP[cmp.op](val(cmp.left), val(cmp.right))


_ARITH: dict[str, Callable[[object, object], object]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}


def eval_assignment(assign, subst: Mapping[str, object]) -> object:
    """Value of an assignment's right-hand side under ``subst``."""

    def val(t):
        if isinstance(t, Constant):
            return t.value
        return subst[t.name]

    if assign.op is None:
        return val(assign.left)
    return _ARITH[assign.op](val(assign.left), val(assign.right))


def _bound_positions(atom: Atom, subst: Subst) -> dict[int, object]:
    bound: dict[int, object] = {}
    for i, t in enumerate(atom.terms):
        if isinstance(t, Constant):
            bound[i] = t.value
        elif t.name in subst:
            bound[i] = subst[t.name]
    return bound


def join_body(
    body: tuple[Literal, ...],
    db: Database,
    subst: Subst | None = None,
    delta_overrides: Mapping[str, Relation] | None = None,
    delta_at: int | None = None,
) -> Iterator[Subst]:
    """Enumerate substitutions satisfying ``body`` left to right.

    ``delta_overrides``/``delta_at``: when evaluating semi-naive rule
    variants, the literal at index ``delta_at`` reads from the override
    relation (the Δ of the previous iteration) instead of the full one.
    Negated atoms and comparisons filter; both are guaranteed ground by
    rule safety once the positive atoms to their left and right are
    processed — we defer them until all their variables are bound.
    """
    subst = dict(subst or {})

    def rec(i: int, s: Subst, deferred: list[Literal]) -> Iterator[Subst]:
        # fire any deferred filters/assignments that became evaluable;
        # assignments bind variables, which may unlock further items
        work = list(deferred)
        progressed = True
        while progressed:
            progressed = False
            still: list[Literal] = []
            for lit in work:
                if lit.is_assignment:
                    a = lit.assignment
                    if all(v.name in s for v in a.inputs()):
                        val = eval_assignment(a, s)
                        bound = s.get(a.target.name, _MISSING)
                        if bound is _MISSING:
                            s = {**s, a.target.name: val}
                        elif bound != val:
                            return
                        progressed = True
                    else:
                        still.append(lit)
                elif all(v.name in s for v in lit.variables()):
                    if lit.is_comparison:
                        if not eval_comparison(lit.comparison, s):
                            return
                    else:  # negated ground atom
                        if db.has_fact(
                            lit.atom.predicate, apply_subst(lit.atom, s)
                        ):
                            return
                    progressed = True
                else:
                    still.append(lit)
            work = still
        still = work
        if i == len(body):
            if still:  # unsafe rule slipped through — should not happen
                raise RuntimeError(f"unresolved filters {still!r}")
            yield s
            return
        lit = body[i]
        if lit.is_comparison or lit.is_assignment or lit.negated:
            yield from rec(i + 1, s, still + [lit])
            return
        atom = lit.atom
        if delta_overrides is not None and i == delta_at:
            rel: Relation | None = delta_overrides.get(atom.predicate)
        else:
            rel = db.relations.get(atom.predicate)
        if rel is None:
            return
        bound = _bound_positions(atom, s)
        for fact in rel.match(bound):
            s2 = match_atom(atom, fact, s)
            if s2 is not None:
                yield from rec(i + 1, s2, still)

    yield from rec(0, subst, [])


def instantiate_head(rule_head: Atom, subst: Subst) -> tuple:
    """Ground the head under a complete body substitution."""
    return apply_subst(rule_head, subst)


def eval_rule(
    rule,
    db: Database,
    delta_overrides: Mapping[str, Relation] | None = None,
    delta_at: int | None = None,
) -> set:
    """All facts one rule derives from ``db`` (aggregate-aware).

    For a plain rule this is the set of instantiated heads over the
    body join. For an aggregate head ``p(G…, op(V))`` the body's
    substitutions are grouped by the plain head terms and the ``op``
    folds the multiset of ``V`` bindings per group (``count`` counts
    substitutions; ``sum``/``min``/``max`` fold the values). Groups are
    only emitted when non-empty, so aggregates over empty bodies derive
    nothing (SQL's ``GROUP BY`` convention).
    """
    from .ast import Aggregate

    if not rule.has_aggregate:
        return {
            instantiate_head(rule.head, s)
            for s in join_body(
                rule.body, db,
                delta_overrides=delta_overrides, delta_at=delta_at,
            )
        }

    terms = rule.head.terms
    agg = next(t for t in terms if isinstance(t, Aggregate))
    groups: dict[tuple, list] = {}
    for s in join_body(
        rule.body, db, delta_overrides=delta_overrides, delta_at=delta_at,
    ):
        key = tuple(
            t.value if isinstance(t, Constant) else s[t.name]
            for t in terms
            if not isinstance(t, Aggregate)
        )
        groups.setdefault(key, []).append(s[agg.var.name])

    out = set()
    for key, values in groups.items():
        if agg.op == "count":
            result: object = len(values)
        elif agg.op == "sum":
            result = sum(values)
        elif agg.op == "min":
            result = min(values)
        else:  # max
            result = max(values)
        fact = []
        ki = iter(key)
        for t in terms:
            fact.append(result if isinstance(t, Aggregate) else next(ki))
        out.add(tuple(fact))
    return out
