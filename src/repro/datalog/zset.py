"""Weighted (Z-set) deltas: one representation for both update directions.

DBSP-style Z-sets generalize sets to integer *weights* per element: an
insertion carries weight ``+1``, a retraction ``-1``, and addition is
pointwise — so the same algebra expresses updates, their composition,
and their cancellation. A :class:`ZSetDelta` is a Z-set partitioned by
predicate: ``predicate → fact → weight``. Everything downstream of the
update queue speaks this representation:

* :class:`Delta` is the unclamped intent at the queue edge (a builder,
  :func:`merge_deltas`, :func:`apply_delta`); :func:`effective_zdelta`
  clamps it against the live EDB into *exact* weights — inserting a
  present fact or deleting an absent one has weight 0 and vanishes, so
  insert/retract pairs coalesced by :func:`merge_deltas` cancel
  **before** any compilation or index maintenance happens;
* the plan cache (:mod:`repro.datalog.plancache`) stages a round from
  one: :func:`derive_zdelta` patches each touched EDB relation in
  O(|delta|) through :meth:`ZSetDelta.apply_to`, and a task node reads
  an EDB input's Z-set off it (:mod:`repro.datalog.units`);
* :func:`check_update` is the one refusal at every entry point — a
  service's ``submit`` and the engine's ``apply``: a derived predicate,
  or a fact whose length is not its predicate's arity;
* :class:`~repro.datalog.incremental.IncrementalEngine` takes one as an
  update and returns one — ``MaintenanceTrace.net``, the whole change,
  EDB and derived, diffed off the node values the round replaced:
  Z-set in, Z-set out.

A net change records only transitions that actually happened (a fact
appearing or disappearing from the set semantics' point of view), so
its weights stay in ``{-1, 0, +1}`` — the ``distinct``-normalized form
of a Z-set. The algebra still sums arbitrary integers, which the tests
use to check cancellation laws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Iterator

from .ast import Program
from .database import Database, Relation

__all__ = [
    "Delta",
    "ZSetDelta",
    "apply_delta",
    "merge_deltas",
    "effective_zdelta",
    "apply_zdelta",
    "derive_zdelta",
    "check_update",
    "check_program_update",
    "check_edb",
]


@dataclass
class Delta:
    """An update: EDB facts to insert and to delete.

    The builder methods keep the two sets disjoint — the *later*
    operation on a fact wins, so ``.insert(p, f).delete(p, f)`` is a
    pure deletion and the reverse a pure insertion. A delta whose dicts
    were populated directly may still hold a fact in both sets; for
    those, :func:`apply_delta` applies deletions first, so the fact ends
    up present.
    """

    insertions: dict[str, set[tuple]] = field(default_factory=dict)
    deletions: dict[str, set[tuple]] = field(default_factory=dict)

    def insert(self, predicate: str, fact: tuple) -> "Delta":
        """Record an EDB insertion (superseding any queued deletion of
        the same fact); returns self for chaining."""
        gone = self.deletions.get(predicate)
        if gone is not None:
            gone.discard(fact)
        self.insertions.setdefault(predicate, set()).add(fact)
        return self

    def delete(self, predicate: str, fact: tuple) -> "Delta":
        """Record an EDB deletion (superseding any queued insertion of
        the same fact); returns self for chaining."""
        ins = self.insertions.get(predicate)
        if ins is not None:
            ins.discard(fact)
        self.deletions.setdefault(predicate, set()).add(fact)
        return self

    @property
    def is_empty(self) -> bool:
        """Whether the update changes nothing."""
        return not any(self.insertions.values()) and not any(
            self.deletions.values()
        )

    def touched_predicates(self) -> set[str]:
        """Predicates with at least one inserted or deleted fact."""
        return {p for p, s in self.insertions.items() if s} | {
            p for p, s in self.deletions.items() if s
        }


def apply_delta(edb: Database, delta: Delta) -> Database:
    """A copy of ``edb`` with ``delta`` applied (deletions first)."""
    out = edb.copy()
    for pred, facts in delta.deletions.items():
        rel = out.relations.get(pred)
        if rel is not None:
            for f in facts:
                rel.discard(f)
    for pred, facts in delta.insertions.items():
        for f in facts:
            out.relation(pred, len(f)).add(f)
    return out


def merge_deltas(deltas: list[Delta]) -> Delta:
    """Coalesce sequential updates into one equivalent :class:`Delta`.

    ``apply_delta(db, merge_deltas([d1, d2]))`` equals
    ``apply_delta(apply_delta(db, d1), d2)`` for every ``db``: later
    operations win, so an insert followed by a delete nets out to a
    delete and vice versa. This is what the runtime service uses to
    coalesce batches that queued up while a maintenance round was in
    flight.
    """
    merged = Delta()
    for d in deltas:
        for pred, facts in d.deletions.items():
            ins = merged.insertions.get(pred)
            for f in facts:
                if ins is not None:
                    ins.discard(f)
                merged.deletions.setdefault(pred, set()).add(f)
        for pred, facts in d.insertions.items():
            gone = merged.deletions.get(pred)
            for f in facts:
                if gone is not None:
                    gone.discard(f)
                merged.insertions.setdefault(pred, set()).add(f)
    return merged


class ZSetDelta:
    """A weighted update: ``predicate → fact → non-zero integer weight``.

    Positive weight means the fact is (net) inserted, negative that it
    is retracted. Weight-zero entries are coalesced away eagerly, so
    ``is_empty`` and ``op_count`` reflect the *net* update.
    """

    __slots__ = ("weights",)

    def __init__(
        self, weights: dict[str, dict[tuple, int]] | None = None
    ) -> None:
        self.weights: dict[str, dict[tuple, int]] = {}
        if weights:
            for pred, facts in weights.items():
                for fact, w in facts.items():
                    self.add(pred, fact, w)

    # ------------------------------------------------------------------
    # construction / algebra
    # ------------------------------------------------------------------
    def add(self, pred: str, fact: tuple, weight: int = 1) -> "ZSetDelta":
        """Add ``weight`` to ``(pred, fact)``; zero entries vanish."""
        if weight == 0:
            return self
        facts = self.weights.setdefault(pred, {})
        w = facts.get(fact, 0) + weight
        if w == 0:
            del facts[fact]
            if not facts:
                del self.weights[pred]
        else:
            facts[fact] = w
        return self

    def insert(self, pred: str, fact: tuple) -> "ZSetDelta":
        """Record one insertion (weight ``+1``); chains."""
        return self.add(pred, fact, 1)

    def delete(self, pred: str, fact: tuple) -> "ZSetDelta":
        """Record one retraction (weight ``-1``); chains."""
        return self.add(pred, fact, -1)

    def merge(self, other: "ZSetDelta") -> "ZSetDelta":
        """Pointwise addition of ``other`` into self; chains."""
        for pred, facts in other.weights.items():
            for fact, w in facts.items():
                self.add(pred, fact, w)
        return self

    def __add__(self, other: "ZSetDelta") -> "ZSetDelta":
        return self.copy().merge(other)

    def __neg__(self) -> "ZSetDelta":
        out = ZSetDelta()
        for pred, facts in self.weights.items():
            out.weights[pred] = {f: -w for f, w in facts.items()}
        return out

    def copy(self) -> "ZSetDelta":
        out = ZSetDelta()
        out.weights = {p: dict(fs) for p, fs in self.weights.items()}
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZSetDelta):
            return NotImplemented
        return self.weights == other.weights

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{p}:{'+' if w > 0 else ''}{w}×{f!r}"
            for p, fs in sorted(self.weights.items())
            for f, w in sorted(fs.items(), key=repr)
        )
        return f"ZSetDelta({parts})"

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def weight(self, pred: str, fact: tuple) -> int:
        """The weight of one fact (0 when absent)."""
        return self.weights.get(pred, {}).get(fact, 0)

    @property
    def is_empty(self) -> bool:
        """Whether the net update changes nothing."""
        return not any(self.weights.values())

    def op_count(self) -> int:
        """Total absolute weight — the number of net operations."""
        return sum(
            abs(w) for facts in self.weights.values() for w in facts.values()
        )

    def touched_predicates(self) -> set[str]:
        """Predicates with at least one non-zero weight."""
        return {p for p, facts in self.weights.items() if facts}

    def touches(self, pred: str) -> bool:
        """Whether ``pred`` has any non-zero weight."""
        return bool(self.weights.get(pred))

    def positive(self) -> dict[str, set[tuple]]:
        """Per-predicate facts with positive weight (net insertions)."""
        out: dict[str, set[tuple]] = {}
        for pred, facts in self.weights.items():
            plus = {f for f, w in facts.items() if w > 0}
            if plus:
                out[pred] = plus
        return out

    def negative(self) -> dict[str, set[tuple]]:
        """Per-predicate facts with negative weight (net retractions)."""
        out: dict[str, set[tuple]] = {}
        for pred, facts in self.weights.items():
            minus = {f for f, w in facts.items() if w < 0}
            if minus:
                out[pred] = minus
        return out

    def items(self) -> Iterator[tuple[str, tuple, int]]:
        """Iterate ``(predicate, fact, weight)`` triples."""
        for pred, facts in self.weights.items():
            for fact, w in facts.items():
                yield pred, fact, w

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def ops_for(self, pred: str) -> Iterable[tuple[tuple, int]]:
        """``(fact, weight)`` pairs for one predicate (possibly empty)."""
        return self.weights.get(pred, {}).items()

    def apply_to(self, rel: Relation, pred: str | None = None) -> int:
        """Patch ``rel`` in place with this delta's ops for its predicate.

        Uses :meth:`Relation.add`/:meth:`Relation.discard`, so every
        hash index already built on the relation is maintained in
        O(|delta|). Returns the number of facts that actually changed.
        """
        changed = 0
        for fact, w in self.ops_for(pred if pred is not None else rel.name):
            if w > 0:
                changed += rel.add(fact)
            else:
                changed += rel.discard(fact)
        return changed


def effective_zdelta(edb: Database, delta: Delta) -> ZSetDelta:
    """Clamp ``delta`` against ``edb`` into exact weights.

    The result holds weight ``+1`` exactly for insertions of facts the
    EDB lacks and ``-1`` for deletions of facts it holds — every other
    queued operation is a set-semantics no-op and cancels to weight 0.
    ``apply_delta(edb, delta)`` and ``apply_zdelta(edb,
    effective_zdelta(edb, delta))`` produce the same fact sets, but the
    effective form exposes *how little* actually changes: an empty
    result means the whole round can be skipped, and its ``op_count``
    is the real index-maintenance bill.

    A fact named in both sets of a non-canonical delta resolves as an
    insertion (deletions apply first), matching :func:`apply_delta`.
    """
    out = ZSetDelta()
    for pred, facts in delta.deletions.items():
        rel = edb.relations.get(pred)
        ins = delta.insertions.get(pred)
        for f in facts:
            if ins is not None and f in ins:
                continue  # insertion wins; handled below
            if rel is not None and f in rel:
                out.add(pred, f, -1)
    for pred, facts in delta.insertions.items():
        rel = edb.relations.get(pred)
        for f in facts:
            if rel is None or f not in rel:
                out.add(pred, f, 1)
    return out


def apply_zdelta(edb: Database, zdelta: ZSetDelta) -> Database:
    """A copy of ``edb`` with ``zdelta`` applied.

    Exact weighted twin of :func:`apply_delta`: retractions discard,
    insertions add, and only the touched relations are visited beyond
    the initial copy.
    """
    out = edb.copy()
    for pred, fact, w in zdelta.items():
        if w > 0:
            out.relation(pred, len(fact)).add(fact)
        else:
            rel = out.relations.get(pred)
            if rel is not None:
                rel.discard(fact)
    return out


def derive_zdelta(edb: Database, zdelta: ZSetDelta) -> Database:
    """``edb``'s successor under ``zdelta``, sharing what did not change.

    Same fact sets as :func:`apply_zdelta`, but only the touched
    relations are new objects — each a :meth:`Relation.copy_indexed` of
    its predecessor (hash indexes and columnar mirror included) patched
    in O(|delta|) — and every other relation is carried over *by
    identity*. Sound when both databases' relations are treated as
    immutable from here on (the plan cache's committed baseline is).
    """
    out = Database(dict(edb.relations))
    for pred, facts in zdelta.weights.items():
        if not facts:
            continue
        old = edb.relations.get(pred)
        rel = (
            old.copy_indexed()
            if old is not None
            else Relation(pred, len(next(iter(facts))))
        )
        zdelta.apply_to(rel, pred)
        out.relations[pred] = rel
    return out


def check_update(
    delta: "Delta | ZSetDelta",
    derived: Collection[str],
    arity_of: Callable[[str], int | None],
) -> dict[str, int]:
    """Raise ``ValueError`` for an update no maintenance can apply.

    Refused: a fact of a ``derived`` predicate, and a fact whose length
    is not its predicate's arity — ``arity_of(pred)``, else (nobody
    knows the predicate) the length of the update's own first fact of
    it. Returns the arities fixed that second way, for a caller that
    remembers them. The one check of every update entry point: a
    service's ``submit`` and :class:`~repro.datalog.incremental
    .IncrementalEngine`'s ``apply``.
    """
    sides = (
        (delta.weights,)
        if isinstance(delta, ZSetDelta)
        else (delta.insertions, delta.deletions)
    )
    fresh: dict[str, int] = {}
    for side in sides:
        for pred, facts in side.items():
            if not facts:  # normalization can leave empty sets behind
                continue
            if pred in derived:
                raise ValueError(f"update targets derived predicate {pred!r}")
            arity = arity_of(pred)
            if arity is None:
                arity = fresh.setdefault(pred, len(next(iter(facts))))
            for fact in facts:
                if len(fact) != arity:
                    raise ValueError(
                        f"{pred}: tuple {fact!r} has arity {len(fact)}, "
                        f"expected {arity}"
                    )
    return fresh


def check_program_update(
    program: Program, edb: Database, delta: "Delta | ZSetDelta"
) -> None:
    """:func:`check_update` for an update of ``program`` over ``edb``:
    refused, a fact of a derived predicate or one whose length is not
    its predicate's arity in the program, else in ``edb``."""
    arities, held = program.arities(), edb.relations
    check_update(
        delta,
        program.idb_predicates(),
        lambda p: arities.get(p, held[p].arity if p in held else None),
    )


def check_edb(program: Program, edb: Database) -> None:
    """Raise ``ValueError`` for an EDB no round of ``program`` can
    maintain: one holding a relation whose arity is not the arity the
    program uses its predicate with. A service checks it at
    construction; the plan cache on its miss path, which every
    :class:`~repro.datalog.incremental.IncrementalEngine` and
    :func:`~repro.datalog.compiler.compile_update` starts with."""
    arities = program.arities()
    for pred, rel in edb.relations.items():
        want = arities.get(pred)
        if want is not None and rel.arity != want:
            raise ValueError(
                f"EDB relation {pred!r} has arity {rel.arity}, but the "
                f"program uses it with arity {want}"
            )
