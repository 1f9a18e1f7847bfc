"""Provenance: explain *why* a derived fact holds.

``explain`` searches for one derivation tree of a fact in a
materialized database: the rule that produced it, the body facts that
fired it, and recursively their derivations down to EDB/program facts.
This is the "why" query every Datalog debugger grows eventually, and it
doubles as a readable witness when incremental maintenance results look
surprising.

>>> d = explain(program, db, "path", (1, 4))
>>> print(d.pretty())
path(1, 4)  [rule 1: path(X, Z) :- path(X, Y), edge(Y, Z).]
├─ path(1, 3)  [rule 1: ...]
...

Only one derivation is produced (facts can have many); the search
prefers base facts and avoids cycles, so it terminates on recursive
programs. Negated literals and comparisons hold by absence/arithmetic
and contribute no child nodes. For aggregate rules the children are the
group's contributing body facts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import Aggregate, Constant, Program, Rule
from .database import Database
from .unify import apply_subst, join_body

__all__ = ["Derivation", "explain"]


@dataclass
class Derivation:
    """One node of a derivation tree."""

    predicate: str
    fact: tuple
    #: index into ``program.proper_rules``; None for EDB/program facts
    rule_index: int | None = None
    rule_repr: str | None = None
    children: list["Derivation"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return self.rule_index is None

    def depth(self) -> int:
        """Height of this derivation tree (leaf = 1)."""
        return 1 + max((c.depth() for c in self.children), default=0)

    def pretty(self, indent: str = "") -> str:
        """Render the tree with box-drawing guides."""
        label = f"{self.predicate}{self.fact}"
        if self.rule_repr is not None:
            label += f"  [rule {self.rule_index}: {self.rule_repr}]"
        else:
            label += "  [base fact]"
        lines = [indent + label]
        for i, child in enumerate(self.children):
            last = i == len(self.children) - 1
            branch = "└─ " if last else "├─ "
            cont = "   " if last else "│  "
            sub = child.pretty("").splitlines()
            lines.append(indent + branch + sub[0])
            lines.extend(indent + cont + l for l in sub[1:])
        return "\n".join(lines)


def _head_subst(rule: Rule, fact: tuple) -> dict | None:
    """Bindings forced by unifying the head with a ground fact.

    Aggregate positions match any value (the aggregate result is not a
    join variable); plain terms unify as usual.
    """
    subst: dict = {}
    for term, value in zip(rule.head.terms, fact):
        if isinstance(term, Constant):
            if term.value != value:
                return None
        elif isinstance(term, Aggregate):
            continue  # the aggregated output; checked by re-evaluation
        else:
            bound = subst.get(term.name)
            if bound is None:
                subst[term.name] = value
            elif bound != value:
                return None
    return subst


def explain(
    program: Program,
    db: Database,
    predicate: str,
    fact: tuple,
    max_attempts: int = 64,
) -> Derivation | None:
    """One derivation tree for ``fact``, or None if it does not hold.

    ``db`` must be a materialized database (e.g. from
    :func:`~repro.datalog.seminaive_evaluate` or an engine's ``.db``).
    ``max_attempts`` caps how many body substitutions are tried per
    rule before giving up on that rule (guards pathological searches).
    """
    if not db.has_fact(predicate, fact):
        return None
    return _explain(
        program, db, predicate, fact, frozenset(), max_attempts
    )


def _explain(
    program: Program,
    db: Database,
    predicate: str,
    fact: tuple,
    in_progress: frozenset,
    max_attempts: int,
) -> Derivation | None:
    key = (predicate, fact)
    rules = [
        (ri, r)
        for ri, r in enumerate(program.proper_rules)
        if r.head.predicate == predicate
    ]
    stated = program.stated_facts.get(predicate, ())
    is_base = predicate in program.edb_predicates() or fact in stated
    if is_base or not rules:
        return Derivation(predicate, fact)
    if key in in_progress:
        return None  # avoid cyclic self-justification
    marked = in_progress | {key}

    for ri, rule in rules:
        seed = _head_subst(rule, fact)
        if seed is None:
            continue
        if rule.has_aggregate:
            deriv = _explain_aggregate(ri, rule, db, fact, seed)
            if deriv is not None:
                return deriv
            continue
        attempts = 0
        for subst in join_body(rule.body, db, subst=seed):
            attempts += 1
            if attempts > max_attempts:
                break
            if apply_subst(rule.head, subst) != fact:
                continue  # pragma: no cover - seed unification prevents this
            children = []
            ok = True
            for lit in rule.body:
                if lit.atom is None or lit.negated:
                    continue  # filters/negation contribute no children
                body_fact = apply_subst(lit.atom, subst)
                child = _explain(
                    program, db, lit.atom.predicate, body_fact,
                    marked, max_attempts,
                )
                if child is None:
                    ok = False
                    break
                children.append(child)
            if ok:
                return Derivation(
                    predicate, fact, rule_index=ri,
                    rule_repr=repr(rule), children=children,
                )
    return None


def _explain_aggregate(
    ri: int, rule: Rule, db: Database, fact: tuple, seed: dict
) -> Derivation | None:
    """Aggregate facts are justified by their whole contributing group."""
    from .unify import eval_rule

    if fact not in eval_rule(rule, db):
        return None
    children = []
    for subst in join_body(rule.body, db, subst=seed):
        for lit in rule.body:
            if lit.atom is None or lit.negated:
                continue
            body_fact = apply_subst(lit.atom, subst)
            node = Derivation(lit.atom.predicate, body_fact)
            if node not in children:
                children.append(node)
    return Derivation(
        rule.head.predicate, fact, rule_index=ri,
        rule_repr=repr(rule), children=children,
    )
