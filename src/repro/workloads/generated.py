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
* :func:`recursive_program` — the *recursive* half: :data:`SCC_BASE`
  (heads ``a`` and ``b`` over ``e`` and ``f``), rules of
  :data:`SCC_RECURSIVE` (linear, mutual, same-generation, nonlinear),
  of :data:`SCC_ABOVE` (a count, a max, a negation, joins) and
  :func:`stratified_rules` levels over the SCC's heads and the EDB.
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
    "SCC_ABOVE",
    "SCC_BASE",
    "SCC_RECURSIVE",
    "UpdateStream",
    "recursive_program",
    "stratified_program",
    "stratified_rules",
]

#: two heads, ``a`` and ``b``, seeded from the two EDB relations …
SCC_BASE = ["a(X, Y) :- e(X, Y).", "b(X, Y) :- f(X, Y)."]
#: … recursive rules over them: any non-empty subset is drawn, so
#: linear, mutual (``pt`` shape), same-generation (``sg`` shape) and
#: nonlinear strata with both heads in one SCC all occur
SCC_RECURSIVE = [
    "a(X, Z) :- b(X, Y), e(Y, Z).",
    "b(X, Z) :- a(X, Y), f(Y, Z).",
    "a(X, Z) :- a(X, Y), b(Y, Z).",
    "b(X, Y) :- e(P, X), a(P, Q), e(Q, Y).",
    "a(X, Y) :- f(P, X), b(P, Q), f(Q, Y).",
    "b(X, Z) :- b(X, Y), b(Y, Z).",
    "a(X, X) :- b(X, Y), a(Y, X).",
]
#: … and strata above that read the SCC's heads
SCC_ABOVE = [
    "fan(X, count(Y)) :- a(X, Y).",
    "top(max(Y)) :- b(X, Y).",
    "miss(X, Y) :- e(X, Y), !b(X, Y).",
    "meet(X) :- a(X, Y), b(Y, X).",
    "some :- a(X, Y), b(X, Y).",
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


def _edb_arities(names) -> dict[str, int]:
    """EDB predicate → arity: every third one unary, the rest binary."""
    return {name: 1 if i % 3 == 2 else 2 for i, name in enumerate(names)}


def _random_edb(
    rng: random.Random, arities: dict[str, int], domain: int, n: int
) -> Database:
    """Up to ``n`` random facts per predicate over ``0 .. domain-1``."""
    edb = Database()
    for pred, arity in arities.items():
        edb.relation(pred, arity)
        for _ in range(n):
            edb.add_fact(
                pred, tuple(rng.randrange(domain) for _ in range(arity))
            )
    return edb


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
    arities = _edb_arities(f"e{i}" for i in range(n_edb))
    lines = stratified_rules(rng, arities, levels, preds_per_level, domain)
    edb = _random_edb(rng, arities, domain, facts_per_edb)
    return GeneratedProgram(parse_program("\n".join(lines)), edb, arities)


def recursive_program(
    seed: int,
    n_edb: int = 3,
    levels: int = 3,
    preds_per_level: int = 3,
    domain: int = 6,
    facts_per_edb: int = 12,
) -> GeneratedProgram:
    """A random stratified program with a recursive SCC, over the EDB
    predicates ``e``, ``f`` and ``e2 … e<n_edb-1>`` (``n_edb`` ≥ 2),
    its EDB drawn as :func:`stratified_program` draws one: :data:`SCC_BASE`,
    a subset of :data:`SCC_RECURSIVE` in which ``a`` or ``b`` is
    recursive, a subset of :data:`SCC_ABOVE` and ``levels`` levels of
    :func:`stratified_rules` over ``a``, ``b`` and the EDB."""
    if n_edb < 2:
        raise ValueError(f"n_edb must be >= 2 (e and f), got {n_edb}")
    rng = random.Random(seed)
    arities = _edb_arities(["e", "f", *(f"e{i}" for i in range(2, n_edb))])
    while True:
        recursive = [r for r in SCC_RECURSIVE if rng.random() < 0.5]
        scc = parse_program("\n".join(SCC_BASE + recursive))
        if scc.depgraph.recursive_predicates():
            break
    lines = [
        *SCC_BASE,
        *recursive,
        *(r for r in SCC_ABOVE if rng.random() < 0.5),
        *stratified_rules(
            rng, {**arities, "a": 2, "b": 2}, levels, preds_per_level,
            domain,
        ),
    ]
    edb = _random_edb(rng, arities, domain, facts_per_edb)
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
