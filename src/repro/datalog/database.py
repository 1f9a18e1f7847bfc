"""Fact storage: relations, indexes, and the EDB/IDB database.

A relation is a set of ground tuples plus hash indexes built lazily per
bound-position pattern, so joins probe O(1) buckets instead of scanning.
This is the storage layer under both from-scratch evaluation and
incremental maintenance.

A relation has two faces — value tuples and a columnar mirror of
interned id-rows — and each is built from the other the first time
someone needs it: an EDB relation is born with value tuples, a derived
one from the mirror a fixpoint grew (:meth:`Relation.adopt`), and facts
cross from id space back to value space only when a reader asks for
them.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Collection, Iterable, Iterator

from .columnar import ColumnarRelation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .columnar import InternPool

__all__ = ["Relation", "Database"]

Tuple_ = tuple  # ground tuples of int | str


class Relation:
    """A named set of ground tuples with lazy hash indexes.

    Indexes map a tuple of bound positions, e.g. ``(0,)`` or ``(0, 2)``,
    to buckets keyed by the values at those positions. They are built on
    first use and maintained incrementally on insert/discard.

    ``rows`` / :meth:`extend` / :meth:`wrap` are the bulk face a
    semi-naive loop grows a relation through — the same three names
    :class:`~repro.datalog.columnar.ColumnarRelation` has, so
    :func:`~repro.datalog.seminaive.evaluate_stratum` is one loop over
    either layout.

    At least one of the two faces always exists. Whoever reads facts
    (iteration, membership, :attr:`rows`, :meth:`match`, :meth:`copy`,
    a mutation) gets the value tuples, externed from the mirror on the
    first such read and kept; ``len``, ``==`` and :meth:`diff_count`
    answer from whichever face is there.
    """

    def __init__(self, name: str, arity: int) -> None:
        self.name = name
        self.arity = arity
        #: value face; ``None`` until first read for a relation born
        #: from a mirror (:meth:`adopt`)
        self._tuples: set[Tuple_] | None = set()
        self._indexes: dict[tuple[int, ...], dict[tuple, set[Tuple_]]] = {}
        #: columnar mirror (interned id-rows + indexes), built on first
        #: columnar() call and maintained incrementally by add/discard
        self._columnar: ColumnarRelation | None = None

    # ------------------------------------------------------------------
    @property
    def rows(self) -> set[Tuple_]:
        """The tuple set itself (read-only by convention) — externed
        from the mirror, once, if the relation was born from one and
        nobody has read its facts yet."""
        tuples = self._tuples
        if tuples is None:
            # built whole, then published: a concurrent reader sees no
            # face or all of it
            tuples = set(self._columnar.facts())  # type: ignore[union-attr]
            self._tuples = tuples
        return tuples

    def _id_rows(self, other: "Relation") -> tuple[set, set] | None:
        """Both relations' id-row sets, where comparing those compares
        the facts: mirrors of one pool (ids are pool-local) and a face
        to spare externing."""
        a, b = self._columnar, other._columnar
        if (
            a is not None
            and b is not None
            and a.pool is b.pool
            and (self._tuples is None or other._tuples is None)
        ):
            return a.rows, b.rows
        return None

    def __len__(self) -> int:
        tuples = self._tuples
        return len(self._columnar if tuples is None else tuples)  # type: ignore[arg-type]

    def __iter__(self) -> Iterator[Tuple_]:
        return iter(self.rows)

    def __contains__(self, t: Tuple_) -> bool:
        return t in self.rows

    def __eq__(self, other: object) -> bool:
        """Same predicate, same tuples — indexes and mirrors aside.

        What a round's check compares materializations with (a work
        unit's change signal is its Z-set): a set comparison on the
        relations' own storage — id-rows when a side has no value tuples
        yet and both mirror into one pool — no copy, and a size mismatch
        answers without looking at a tuple.
        """
        if not isinstance(other, Relation):
            return NotImplemented
        if self.name != other.name:
            return False
        ids = self._id_rows(other)
        return ids[0] == ids[1] if ids else self.rows == other.rows

    __hash__ = None  # type: ignore[assignment]  # mutable, compared by value

    def diff_count(self, other: "Relation") -> int:
        """How many tuples are in exactly one of the two relations."""
        ids = self._id_rows(other)
        return len(ids[0] ^ ids[1] if ids else self.rows ^ other.rows)

    def add(self, t: Tuple_) -> bool:
        """Insert; returns True if the tuple is new."""
        if len(t) != self.arity:
            raise ValueError(
                f"{self.name}: tuple {t!r} has arity {len(t)}, "
                f"expected {self.arity}"
            )
        tuples = self.rows
        if t in tuples:
            return False
        tuples.add(t)
        for positions, index in self._indexes.items():
            index[tuple(t[p] for p in positions)].add(t)
        c = self._columnar
        if c is not None:
            c.add_fact(t)
        return True

    def extend(self, facts: Collection[Tuple_]) -> None:
        """Bulk :meth:`add`: one ``set.update``; built indexes and the
        mirror take in ``facts`` only (present facts are harmless)."""
        self._take(facts)
        c = self._columnar
        if c is not None:
            intern_fact = c.pool.intern_fact
            c.extend([intern_fact(self.name, t) for t in facts])

    def _take(self, facts: Collection[Tuple_]) -> None:
        """``facts`` into the tuple set and the built indexes."""
        if facts and set(map(len, facts)) != {self.arity}:
            raise ValueError(
                f"{self.name}: expected tuples of arity {self.arity}"
            )
        self.rows.update(facts)
        for positions, index in self._indexes.items():
            for t in facts:
                index[tuple(t[p] for p in positions)].add(t)

    def wrap(self, facts: set[Tuple_]) -> "Relation":
        """An index-less relation of this predicate around ``facts``,
        taken as is — what a fixpoint iteration's Δ is."""
        out = Relation(self.name, self.arity)
        out._tuples = facts
        return out

    def adopt(self, mirror: ColumnarRelation) -> None:
        """Publish what a fixpoint grew in id space.

        ``mirror`` — this relation's facts plus whatever was derived on
        top, rows, indexes and all — becomes the relation: nothing is
        externed or interned, and the value tuples and value-space
        indexes, which knew the earlier facts only, are dropped for the
        first reader to rebuild.
        """
        self._columnar = mirror
        self._indexes = {}
        self._tuples = None

    def discard(self, t: Tuple_) -> bool:
        """Remove; returns True if the tuple was present."""
        tuples = self.rows
        if t not in tuples:
            return False
        tuples.remove(t)
        for positions, index in self._indexes.items():
            key = tuple(t[p] for p in positions)
            bucket = index.get(key)
            if bucket is not None:
                bucket.discard(t)
                if not bucket:
                    del index[key]
        c = self._columnar
        if c is not None:
            c.discard_fact(t)
        return True

    def _ensure_index(
        self, positions: tuple[int, ...]
    ) -> dict[tuple, set[Tuple_]]:
        index = self._indexes.get(positions)
        if index is None:
            index = defaultdict(set)
            for t in self.rows:
                index[tuple(t[p] for p in positions)].add(t)
            self._indexes[positions] = index
        return index

    def match(
        self, bound: dict[int, int | str] | None = None
    ) -> Iterable[Tuple_]:
        """Tuples whose values at the bound positions equal the given
        values; full scan when ``bound`` is empty.

        Fully-bound patterns short-circuit to a set membership probe —
        building (and thereafter maintaining) a hash index keyed on
        *every* column would just duplicate the tuple set.
        """
        if not bound:
            return self.rows
        if len(bound) == self.arity:
            probe = tuple(bound[p] for p in range(self.arity))
            return (probe,) if probe in self.rows else ()
        positions = tuple(sorted(bound))
        index = self._ensure_index(positions)
        return index.get(tuple(bound[p] for p in positions), ())

    def columnar(self, pool: "InternPool") -> ColumnarRelation:
        """Get-or-build this relation's columnar mirror under ``pool``.

        Built in one pass on first request (interning every fact through
        the pool's per-predicate dictionaries); afterwards :meth:`add`
        and :meth:`discard` maintain the mirror — rows *and* any hash
        indexes probed into existence — incrementally in O(|delta|). A
        mirror keyed to a different pool is discarded and rebuilt: id
        spaces are pool-local.
        """
        c = self._columnar
        if c is None or c.pool is not pool:
            c = ColumnarRelation.from_facts(
                pool, self.name, self.arity, self.rows
            )
            self._columnar = c
        return c

    def copy(self) -> "Relation":
        return self.wrap(set(self.rows))

    def copy_indexed(self) -> "Relation":
        """Copy that also clones the built hash indexes.

        ``copy()`` drops indexes (cheap, lazily rebuilt on demand); the
        plan cache instead derives a changed relation's successor from
        its predecessor — clone indexes once, then apply the round's
        delta through :meth:`add`/:meth:`discard`, which maintain every
        cloned index incrementally in O(|delta|). The columnar mirror
        (with its own indexes) is cloned the same way.
        """
        r = self.copy()
        if self._columnar is not None:
            r._columnar = self._columnar.clone()
        # snapshot: concurrent match() calls may publish new lazy
        # indexes while we iterate
        for positions, index in list(self._indexes.items()):
            clone: dict[tuple, set[Tuple_]] = defaultdict(set)
            for key, bucket in index.items():
                clone[key] = set(bucket)
            r._indexes[positions] = clone
        return r

    def index_patterns(self) -> tuple[tuple[int, ...], ...]:
        """The bound-position patterns currently indexed (for tests)."""
        return tuple(sorted(self._indexes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.name}/{self.arity}, {len(self)} tuples)"


@dataclass
class Database:
    """A map predicate → relation, with convenience constructors."""

    relations: dict[str, Relation] = field(default_factory=dict)

    def relation(self, name: str, arity: int | None = None) -> Relation:
        """Get-or-create a relation; checks arity consistency."""
        rel = self.relations.get(name)
        if rel is None:
            if arity is None:
                raise KeyError(f"unknown relation {name!r}")
            rel = Relation(name, arity)
            self.relations[name] = rel
        elif arity is not None and rel.arity != arity:
            raise ValueError(
                f"relation {name} has arity {rel.arity}, requested {arity}"
            )
        return rel

    def add_fact(self, name: str, t: Tuple_) -> bool:
        """Insert a fact (creating the relation); True if new."""
        return self.relation(name, len(t)).add(t)

    def has_fact(self, name: str, t: Tuple_) -> bool:
        """Membership test tolerant of missing relations."""
        rel = self.relations.get(name)
        return rel is not None and t in rel

    def count(self, name: str) -> int:
        """Fact count of a relation (0 if absent)."""
        rel = self.relations.get(name)
        return len(rel) if rel is not None else 0

    def total_facts(self) -> int:
        """Total facts across all relations."""
        return sum(len(r) for r in self.relations.values())

    def copy(self) -> "Database":
        """Deep copy (relations are copied, tuples shared)."""
        return Database({n: r.copy() for n, r in self.relations.items()})

    def as_dict(self) -> dict[str, set[Tuple_]]:
        """Snapshot: predicate → frozen set of tuples (for comparisons)."""
        return {n: set(r) for n, r in self.relations.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{n}/{r.arity}:{len(r)}" for n, r in sorted(self.relations.items())
        )
        return f"Database({parts})"
