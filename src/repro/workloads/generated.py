"""Generated stratified programs and weighted update streams.

The shipped live programs are six fixed shapes; the maintenance
contract — the served materialization is the from-scratch one, round
after round — has to hold for programs nobody wrote by hand. This module
draws them, seeded:

* :func:`stratified_program` (:func:`stratified_rules` over inputs of
  the caller's) — the *non-recursive* half of the
  generator: levels of predicates, each level's rules reading only
  lower levels, so every stratum is a set of task nodes plus one merge
  node per predicate. The rule shapes cover what a task node's value
  has to count: joins, self-joins (a repeated predicate), filters,
  assignments, constants in the body and the head, repeated variables,
  negation of a lower level, ``count`` / ``sum`` / ``min`` / ``max``
  heads with and without group columns, and 0-ary heads. Some
  predicates get two rules, so a merge node unions several writers.
  Recursive SCCs (the other half) are not drawn here.
* :class:`UpdateStream` — weighted update batches over the program's
  EDB: ``delete_frac`` weighs deletions of present facts against
  insertions (``0.0`` insert-only, ``1.0`` delete-only, anything
  between mixed), and a batch may carry an insert/delete pair of one
  fact that cancels. The stream keeps a mirror of the EDB so every
  deletion names a present fact.

Every program is legal: it parses, analyzes without an error-severity
finding (:mod:`repro.verify.program`) and is stratified by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..datalog import Database, Delta, Program, parse_program

__all__ = [
    "GeneratedProgram",
    "UpdateStream",
    "stratified_program",
    "stratified_rules",
]

#: rule shapes over binary inputs ``A`` / ``B``: (head arity, whether
#: the head aggregates, rule); ``{c}`` is a small integer. Every value is
#: an integer, so every filter and sum is defined
_BINARY_SHAPES = (
    (2, False, "{H}(X, Z) :- {A}(X, Y), {B}(Y, Z)."),
    (2, False, "{H}(X, Z) :- {A}(X, Y), {A}(Y, Z)."),
    (2, False, "{H}(X, Y) :- {A}(X, Y), X < Y."),
    (2, False, "{H}(X, Y) :- {A}(X, Y), !{B}(Y, X)."),
    (2, False, "{H}(X, S) :- {A}(X, Y), S = Y + 1."),
    (2, False, "{H}(X, Y) :- {A}(X, Y), {B}(Y, {c})."),
    (2, False, "{H}(X, {c}) :- {A}(X, Y)."),
    (2, True, "{H}(X, count(Y)) :- {A}(X, Y)."),
    (2, True, "{H}(X, sum(Y)) :- {A}(X, Y), {B}(Y, Z)."),
    (2, True, "{H}(Y, min(X)) :- {A}(X, Y)."),
    (2, True, "{H}(X, max(Z)) :- {A}(X, Y), {B}(Y, Z), Z != X."),
    (1, False, "{H}(X) :- {A}(X, X)."),
    (1, False, "{H}(X) :- {A}(X, {c})."),
    (1, True, "{H}(sum(Y)) :- {A}(X, Y)."),
    (1, True, "{H}(count(X)) :- {A}(X, Y), !{B}(X, X)."),
    (0, False, "{H} :- {A}(X, Y), {B}(Y, X)."),
)

#: … and over unary inputs ``U`` / ``V``
_UNARY_SHAPES = (
    (1, False, "{H}(X) :- {U}(X), !{V}(X)."),
    (2, False, "{H}(X, Y) :- {U}(X), {A}(X, Y)."),
)


@dataclass
class GeneratedProgram:
    """One drawn program and the EDB it starts from."""

    program: Program
    edb: Database
    #: EDB predicate → arity
    edb_arities: dict[str, int]


def stratified_rules(
    rng: random.Random,
    inputs: dict[str, int],
    levels: int = 3,
    preds_per_level: int = 3,
    domain: int = 6,
) -> list[str]:
    """Rules of ``levels`` levels of ``preds_per_level`` new predicates
    ``p<level>_<j>``, each level's bodies over ``inputs`` (predicate →
    arity, at least one binary) and the levels below it."""
    by_arity: dict[int, list[str]] = {0: [], 1: [], 2: []}
    for pred, arity in sorted(inputs.items()):
        by_arity[arity].append(pred)
    lines: list[str] = []
    for level in range(1, levels + 1):
        made: dict[int, list[str]] = {0: [], 1: [], 2: []}
        for j in range(preds_per_level):
            head = f"p{level}_{j}"
            shapes = list(_BINARY_SHAPES)
            if by_arity[1]:
                shapes += _UNARY_SHAPES
            arity, aggregate, shape = rng.choice(shapes)
            rules = [shape]
            if not aggregate and rng.random() < 0.3:
                # a second writer of the same head: the merge node unions
                rules.append(rng.choice([
                    s for a, agg, s in shapes if a == arity and not agg
                ]))
            for rule in rules:
                lines.append(rule.format(
                    H=head,
                    A=rng.choice(by_arity[2]),
                    B=rng.choice(by_arity[2]),
                    U=rng.choice(by_arity[1] or [""]),
                    V=rng.choice(by_arity[1] or [""]),
                    c=rng.randrange(domain),
                ))
            made[arity].append(head)
        for arity, heads in made.items():
            by_arity[arity] += heads
    return lines


def stratified_program(
    seed: int,
    n_edb: int = 3,
    levels: int = 3,
    preds_per_level: int = 3,
    domain: int = 6,
    facts_per_edb: int = 12,
) -> GeneratedProgram:
    """A random non-recursive stratified program over the EDB predicates
    ``e0 … e<n_edb-1>`` (every third one unary, the rest binary) and an
    EDB of up to ``facts_per_edb`` facts each over ``0 .. domain-1``."""
    rng = random.Random(seed)
    arities = {f"e{i}": 1 if i % 3 == 2 else 2 for i in range(n_edb)}
    lines = stratified_rules(rng, arities, levels, preds_per_level, domain)
    edb = Database()
    for pred, arity in arities.items():
        edb.relation(pred, arity)
        for _ in range(facts_per_edb):
            edb.add_fact(
                pred, tuple(rng.randrange(domain) for _ in range(arity))
            )
    return GeneratedProgram(parse_program("\n".join(lines)), edb, arities)


class UpdateStream:
    """Seeded weighted update batches over a generated program's EDB.

    Each op is a deletion of a present fact with probability
    ``delete_frac`` (an insertion when its relation is empty) and the
    insertion of a random fact otherwise (a present one inserts
    nothing); with probability ``cancel`` a batch also inserts and
    deletes one absent fact, a pair that cancels in the round's clamped
    delta.
    """

    def __init__(
        self,
        gen: GeneratedProgram,
        seed: int,
        delete_frac: float = 0.5,
        cancel: float = 0.1,
        domain: int = 6,
    ) -> None:
        self.rng = random.Random(seed)
        self.arities = dict(gen.edb_arities)
        self.delete_frac = delete_frac
        self.cancel = cancel
        self.domain = domain
        #: predicate → the facts the EDB holds once every batch so far
        #: has landed
        self.mirror = {
            p: set(gen.edb.relations[p]) for p in sorted(self.arities)
        }

    def _random_fact(self, pred: str) -> tuple:
        arity = self.arities[pred]
        return tuple(self.rng.randrange(self.domain + 2) for _ in range(arity))

    def batch(self, size: int = 3) -> Delta:
        """The next batch of ``size`` ops."""
        delta = Delta()
        preds = sorted(self.arities)
        for _ in range(size):
            pred = self.rng.choice(preds)
            facts = self.mirror[pred]
            if facts and self.rng.random() < self.delete_frac:
                victim = self.rng.choice(sorted(facts))
                facts.discard(victim)
                delta.delete(pred, victim)
            else:
                fact = self._random_fact(pred)
                facts.add(fact)
                delta.insert(pred, fact)
        if self.rng.random() < self.cancel:
            pred = self.rng.choice(preds)
            fact = self._random_fact(pred)
            if fact not in self.mirror[pred] and not any(
                fact in side.get(pred, ())
                for side in (delta.insertions, delta.deletions)
            ):
                delta.insert(pred, fact)
                delta.delete(pred, fact)
        return delta
