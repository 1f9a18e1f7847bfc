"""Columnar (interned) relation storage and one generated join per rule.

The row evaluator in :mod:`repro.datalog.unify` enumerates rule-body
substitutions one tuple at a time, copying a ``{var: value}`` dict per
matched fact. That is the hot loop of every maintenance round. This
module replaces it with a column-oriented pipeline in the style of the
differential-Datalog interpreters cited in PAPERS.md:

* every constant is *interned* once into a small integer id through a
  shared :class:`InternTable` (one table per :class:`InternPool`, so
  ids are join-compatible across predicates), with per-predicate fact
  dictionaries memoizing whole-row encodings;
* relations are mirrored as :class:`ColumnarRelation` — sets of interned
  id-rows plus hash indexes per bound-position pattern, maintained
  incrementally as the underlying :class:`~repro.datalog.database
  .Relation` absorbs weighted deltas;
* :func:`compile_rule_plan` compiles each ``(rule, join order,
  Δ-position)`` into *one generated Python function*, the kernel — the
  nested-loop join the rule is: a ``for`` over an index bucket per
  scan with the fact unpacked into locals, filters, assignments and
  negation probes inlined where their variables are first bound, the
  head id-row built at the innermost level — and :func:`run_rule_plan`
  calls it. No binding row is ever materialised.

A kernel resolves a relation (its mirror, its key constants' ids, its
index) when the first binding reaches that scan, so nothing is built of
an empty relation or behind a dead branch, and reaching a missing or
empty relation ends the kernel with nothing derived; head and negation
constants are interned at first use the same way, which keeps plans
pool-independent. ``pool.probes`` grows by the bindings that reached
each scan (the first scan counts one), added once per call;
``pool.builds`` only by real mirror and index builds. A kernel mutates
nothing it reads and returns a fresh set — work units run it on worker
lanes. A plan compiled in *counted* mode returns instead how many
bindings reach each head row (each group and aggregated value,
unfolded): what a task unit maintains its value with. CPython allows 20
statically nested blocks, so past
``_MAX_LOOPS`` open loops a rule continues in a nested ``def`` generated
the same way. The source is assembled from invented names, integer
positions, operator tokens of the closed tables and ``repr`` of
predicate names only; program constants are bound in the kernel's
globals. It can be read on :attr:`RulePlan.source` and, while the plan
is memoised, through ``linecache`` — a traceback through a kernel shows
the generated line.

The boundary: facts are interned where they enter — an EDB relation's
mirror, built once and patched by each round's delta — and externed
where a materialization is read: a stratum publishes its head relations
as the mirrors its fixpoint grew
(:meth:`~repro.datalog.database.Relation.adopt`), and the first reader
of a relation's facts externs them. Everything in between is id space:
:func:`run_rule_plan` *returns id-rows* (head constants and aggregate
results are interned, only an aggregated column is externed), so a
fixpoint's ``produced - known`` is one set difference and its Δ the
fresh rows as they are. :func:`eval_rule_columnar` is the value-space
wrapper: same plan, one bulk extern of the result.

The kernels are generated by the same deferral fixpoint
:func:`~repro.datalog.unify.join_body` runs dynamically — variable
binding order is static per (rule, order, Δ-position), so filters and
assignments can be *placed* at compile time at exactly the point the
dynamic evaluator would first fire them. The two evaluators therefore
produce identical fact sets (and identical "unresolved filter" errors
on unsafe rules), which the differential and property test suites pin.
"""

from __future__ import annotations

import linecache
import threading
from collections import OrderedDict, defaultdict
from itertools import count, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Iterator

from .ast import (
    ARITH_OPS,
    COMPARISON_OPS,
    Aggregate,
    Atom,
    Constant,
    Rule,
    Variable,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import Database

__all__ = [
    "InternTable",
    "InternPool",
    "ColumnarRelation",
    "RulePlan",
    "compile_rule_plan",
    "body_order",
    "full_seed",
    "run_rule_plan",
    "eval_rule_columnar",
    "fold_groups",
    "share_key",
]


# ----------------------------------------------------------------------
# interning
# ----------------------------------------------------------------------
class InternTable:
    """A bijection value ↔ small integer id, append-only.

    Ids are dense (``0 .. len-1``) so extern is a list index, not a
    dict probe. The table never forgets: values are immutable Datalog
    constants and the id space must stay stable for every columnar
    index built on it.
    """

    __slots__ = ("ids", "values", "_lock")

    def __init__(self) -> None:
        self.ids: dict[object, int] = {}
        self.values: list[object] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.values)

    def intern(self, value: object) -> int:
        i = self.ids.get(value)
        if i is None:
            # work units intern on worker threads (head constants,
            # arithmetic and aggregate results): allot the id once
            with self._lock:
                i = self.ids.get(value)
                if i is None:
                    i = len(self.values)
                    self.values.append(value)
                    self.ids[value] = i
        return i

    def extern(self, i: int) -> object:
        return self.values[i]


class InternPool:
    """Shared intern table plus per-predicate fact-row dictionaries.

    One pool serves one evaluation domain (a plan cache, a service):
    the single :class:`InternTable` keeps ids join-compatible across
    predicates, while ``_fact_rows[pred]`` memoizes whole-fact → id-row
    encodings per predicate so repeated mirror builds and delta
    application pay one dict probe per fact instead of one per column.

    ``builds``/``probes``/``externs`` count constructions, hash-join
    probe operations and rows taken from id space back to value space
    (:meth:`extern_rows`, :meth:`extern_row`) — surfaced in
    ``RoundMetrics``. A *build* is a pass over a relation's facts to
    make a mirror (:meth:`ColumnarRelation.from_facts`) or a hash index
    (:meth:`ColumnarRelation.index`), nothing else: the empty mirror a
    stratum grows a head relation from is not one, and neither is a
    fixpoint iteration's Δ, wrapped around rows that already are
    id-rows (:meth:`ColumnarRelation.wrap`) — so builds per round do not
    grow with fixpoint depth.
    """

    __slots__ = ("table", "_fact_rows", "builds", "probes", "externs")

    def __init__(self) -> None:
        self.table = InternTable()
        self._fact_rows: dict[str, dict[tuple, tuple]] = {}
        self.builds = 0
        self.probes = 0
        self.externs = 0

    def __len__(self) -> int:
        return len(self.table)

    def intern(self, value: object) -> int:
        return self.table.intern(value)

    def extern(self, i: int) -> object:
        return self.table.values[i]

    def intern_fact(self, pred: str, fact: tuple) -> tuple:
        """Interned id-row for ``fact``, memoized per predicate."""
        memo = self._fact_rows.get(pred)
        if memo is None:
            memo = self._fact_rows[pred] = {}
        row = memo.get(fact)
        if row is None:
            intern = self.table.intern
            row = tuple(intern(v) for v in fact)
            memo[fact] = row
        return row

    def intern_facts(self, pred: str, facts: Iterable[tuple]) -> set:
        """Bulk :meth:`intern_fact`: the id-rows of ``facts``, one memo
        probe per fact that was interned before."""
        memo = self._fact_rows.setdefault(pred, {})
        get, intern = memo.get, self.table.intern
        out = set()
        for fact in facts:
            row = get(fact)
            if row is None:
                row = memo[fact] = tuple(intern(v) for v in fact)
            out.add(row)
        return out

    def extern_row(self, row: tuple) -> tuple:
        """Value-space fact for an interned id-row."""
        self.externs += 1
        values = self.table.values
        return tuple(values[i] for i in row)

    def extern_rows(self, rows: Collection[tuple]) -> Iterable[tuple]:
        """Value-space facts of same-arity id-rows, a column at a time."""
        self.externs += len(rows)
        get = self.table.values.__getitem__
        columns = [map(get, column) for column in zip(*rows)]
        # zip(*rows) has no columns for 0-ary rows (or no rows)
        return zip(*columns) if columns else [()] * len(rows)

    def stats(self) -> dict[str, int]:
        """Counters for metrics/span reporting."""
        return {
            "intern_table_size": len(self.table),
            "columnar_builds": self.builds,
            "columnar_probes": self.probes,
            "columnar_externs": self.externs,
        }


# ----------------------------------------------------------------------
# columnar relations
# ----------------------------------------------------------------------
class ColumnarRelation:
    """A set of interned id-rows with incremental per-pattern indexes.

    The columnar twin of :class:`~repro.datalog.database.Relation`:
    indexes map a bound-position pattern to buckets of rows, built on
    first probe and maintained by :meth:`add_row`/:meth:`discard_row`
    and, in bulk, :meth:`extend`. Single-position patterns key buckets
    by the bare id (no tuple allocation on the probe path). A
    :meth:`clone` or a :meth:`successor` borrows its donor's buckets
    and copies one on its first write to it; a successor takes the row
    set itself, and the donor reads on as a :class:`_PastColumnar`.
    """

    __slots__ = ("name", "arity", "pool", "rows", "_indexes", "_lent",
                 "_past")

    def __init__(self, name: str, arity: int, pool: InternPool) -> None:
        self.name = name
        self.arity = arity
        self.pool = pool
        self.rows: set[tuple] = set()
        self._indexes: dict[tuple[int, ...], dict[object, set[tuple]]] = {}
        #: pattern → the donor's index a clone shares buckets with
        self._lent: dict[tuple[int, ...], dict[object, set[tuple]]] = {}
        #: once a successor took the rows: it and the Δ that made it
        self._past: _Past | None = None

    @classmethod
    def from_facts(
        cls, pool: InternPool, name: str, arity: int,
        facts: Iterable[tuple],
    ) -> "ColumnarRelation":
        out = cls(name, arity, pool)
        intern_fact = pool.intern_fact
        out.rows = {intern_fact(name, f) for f in facts}
        # the empty mirror a stratum starts growing a head from is no
        # pass over anything
        pool.builds += bool(out.rows)
        return out

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: tuple) -> bool:
        return row in self.rows

    def facts(self) -> Iterator[tuple]:
        """Iterate rows back in value space."""
        return iter(self.pool.extern_rows(self.rows))

    def wrap(self, rows: set) -> "ColumnarRelation":
        """An index-less relation of this predicate around ``rows``.

        The set is taken as is — already id-rows of this pool, so
        nothing is interned and no build is counted. What a fixpoint
        iteration's Δ is.
        """
        out = ColumnarRelation(self.name, self.arity, self.pool)
        out.rows = rows
        return out

    # ------------------------------------------------------------------
    def add_row(self, row: tuple) -> bool:
        if row in self.rows:
            return False
        self.extend((row,))
        return True

    def extend(self, rows: Collection[tuple]) -> None:
        """Bulk :meth:`add_row`: one ``set.update``, and every built
        index takes in ``rows`` only (present rows are harmless)."""
        self.rows.update(rows)
        lent = self._lent
        for positions, index in self._indexes.items():
            _index_rows(index, positions, rows, lent.get(positions))

    def discard_row(self, row: tuple) -> bool:
        if row not in self.rows:
            return False
        self.rows.remove(row)
        lent = self._lent
        for positions, index in self._indexes.items():
            _unfile(index, positions, row, lent.get(positions))
        return True

    def discard_rows(self, rows: Collection[tuple]) -> None:
        """Bulk :meth:`discard_row`: one ``set.difference_update``, and
        every built index lets go of ``rows`` only (absent rows are
        harmless)."""
        self.rows.difference_update(rows)
        lent = self._lent
        for positions, index in self._indexes.items():
            _unfile_rows(index, positions, rows, lent.get(positions))

    def add_fact(self, fact: tuple) -> bool:
        return self.add_row(self.pool.intern_fact(self.name, fact))

    def discard_fact(self, fact: tuple) -> bool:
        return self.discard_row(self.pool.intern_fact(self.name, fact))

    # ------------------------------------------------------------------
    def index(
        self, positions: tuple[int, ...]
    ) -> dict[object, set[tuple]]:
        """Get-or-build the hash index on ``positions`` (build counted)."""
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            _index_rows(index, positions, self.rows)
            self._indexes[positions] = index
            self.pool.builds += 1
        return index

    def index_patterns(self) -> tuple[tuple[int, ...], ...]:
        """Currently-built bound-position patterns (for tests)."""
        return tuple(sorted(self._indexes))

    def clone(self) -> "ColumnarRelation":
        """A copy of the rows that *lends* the built indexes.

        The clone takes a shallow copy of each built index — every
        bucket shared with this relation — and copies a bucket on its
        own first write to it, so a successor patched by a Δ costs its
        row-set copy plus O(|Δ|), not a pass over the buckets. The
        donor contract: this relation is never written again (lazy index
        builds aside) — a write to a bucket it still lends would show in
        the clone. A predecessor :meth:`successor` left behind and the
        committed mirrors a fixpoint or a ``pred`` node grows a clone
        from keep it. Unlike :meth:`successor`, the clone copies the
        row set: its donor may still be live.
        """
        out = ColumnarRelation(self.name, self.arity, self.pool)
        out.rows = set(self.rows)
        out._indexes, out._lent = _lend(self._indexes)
        return out

    def successor(self, plus: set, minus: set) -> "ColumnarRelation":
        """This relation moved by a clamped Δ — ``plus`` rows it lacks,
        ``minus`` rows it holds — as a new relation, in O(|Δ|).

        The successor takes the row set object as it is and is lent
        every built index (as :meth:`clone`'s), then takes in the Δ.
        This relation becomes a :class:`_PastColumnar` in place: it
        answers ``len`` and ``in`` from the successor and the Δ, probes
        its own index buckets — the originals, which the successor
        copies before writing — and rebuilds its rows on the first read
        that needs them all. A past relation's successor materializes
        it first (a round retried after a rollback derives again from
        the committed generation). The donor contract, as for
        :meth:`clone`, and one more: the successor is written only
        through its own successor, or its predecessor reads wrong.
        """
        out = ColumnarRelation(self.name, self.arity, self.pool)
        out.rows = self.rows
        out._indexes, out._lent = _lend(self._indexes)
        self._past = _Past(out, plus, minus)
        self.__class__ = _PastColumnar
        del self.rows
        out.extend(plus)
        out.discard_rows(minus)
        return out

    def _held_rows(self) -> set | None:
        """The rows, which a live relation holds itself."""
        return self.rows

    def view(self) -> "ColumnarRelation":
        """A read-only face of this relation: its rows and built indexes
        shared, an index built through the view kept on the view until
        :meth:`keep_indexes` hands it over."""
        out = ColumnarRelation(self.name, self.arity, self.pool)
        out.rows = self.rows
        out._indexes = dict(self._indexes)
        return out

    def keep_indexes(self, view: "ColumnarRelation") -> None:
        """Take the indexes built on ``view`` — a :meth:`view` of this
        relation, its rows unchanged since — that this one lacks."""
        for positions, index in view._indexes.items():
            self._indexes.setdefault(positions, index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarRelation({self.name}/{self.arity}, "
            f"{len(self.rows)} rows)"
        )


class _PastColumnar(ColumnarRelation):
    """A relation whose rows its successor took (the class
    :meth:`ColumnarRelation.successor` gives it in place): the rows
    slot is empty until a read needs them all, ``len`` and ``in``
    answer from the successor and the Δ, and a built index is its own.
    """

    __slots__ = ()

    def __getattr__(self, name: str) -> set:
        # only an empty slot gets here: the rows, rebuilt once — built
        # whole, then published — and the relation is live-shaped again
        if name != "rows":
            raise AttributeError(name)
        rows = _past_rows(self._past)  # type: ignore[arg-type]
        self.rows = rows
        self.__class__ = ColumnarRelation
        return rows

    def __len__(self) -> int:
        return _past_len(self._past)  # type: ignore[arg-type]

    def __contains__(self, row: tuple) -> bool:
        return _past_holds(self._past, row)  # type: ignore[arg-type]

    def _held_rows(self) -> None:
        return None


class _Past:
    """What a generation whose successor took its rows reads through:
    that successor, and the clamped Δ that made it — the facts (or
    id-rows) it added, all absent before, and removed, all present.
    So ``x`` was held iff ``x in minus`` or (``x not in plus`` and the
    successor holds it), and ``len = len(successor) − |plus| + |minus|``.
    A successor may be past in turn: every read walks the chain to the
    first generation that holds its rows, iteratively.
    :class:`~repro.datalog.database.Relation` and
    :class:`ColumnarRelation` keep one each."""

    __slots__ = ("succ", "plus", "minus")

    def __init__(self, succ, plus: set, minus: set) -> None:
        self.succ = succ
        self.plus = plus
        self.minus = minus


def _past_len(past: _Past) -> int:
    n = 0
    while True:
        n += len(past.minus) - len(past.plus)
        rows = past.succ._held_rows()
        if rows is not None:
            return n + len(rows)
        past = past.succ._past


def _past_holds(past: _Past, x: tuple) -> bool:
    while True:
        if x in past.minus:
            return True
        if x in past.plus:
            return False
        rows = past.succ._held_rows()
        if rows is not None:
            return x in rows
        past = past.succ._past


def _past_rows(past: _Past) -> set:
    """A past generation's rows, built whole: the first later one that
    holds its rows, every Δ since undone, newest first."""
    steps = [past]
    rows = past.succ._held_rows()
    while rows is None:
        steps.append(steps[-1].succ._past)
        rows = steps[-1].succ._held_rows()
    out = set(rows)
    for step in reversed(steps):
        out.difference_update(step.plus)
        out.update(step.minus)
    return out


def _index_rows(
    index: dict[object, set[tuple]],
    positions: tuple[int, ...],
    rows: Collection[tuple],
    lent: dict[object, set[tuple]] | None = None,
) -> None:
    """File ``rows`` into ``index`` under their key at ``positions``,
    first copying each bucket they land in that still *is* the one
    ``lent`` (a donor's index) holds. :class:`~repro.datalog.database
    .Relation` files its value tuples the same way."""
    # itemgetter of one position is the bare value, of several the
    # tuple of values: exactly the two key shapes
    key_of = itemgetter(*positions)
    if lent:
        _unshare(index, lent, map(key_of, rows))
    get = index.get
    for row in rows:
        key = key_of(row)
        bucket = get(key)
        if bucket is None:
            index[key] = {row}
        else:
            bucket.add(row)


def _unfile(
    index: dict[object, set[tuple]],
    positions: tuple[int, ...],
    row: tuple,
    lent: dict[object, set[tuple]] | None = None,
) -> None:
    """Take ``row`` out of its bucket in ``index`` (a bucket it empties
    goes; one still lent is copied first, as in :func:`_index_rows`)."""
    key = itemgetter(*positions)(row)
    if lent:
        _unshare(index, lent, (key,))
    bucket = index.get(key)
    if bucket is not None:
        bucket.discard(row)
        if not bucket:
            del index[key]


def _unfile_rows(
    index: dict[object, set[tuple]],
    positions: tuple[int, ...],
    rows: Collection[tuple],
    lent: dict[object, set[tuple]] | None = None,
) -> None:
    """Bulk :func:`_unfile`: one key function for all of ``rows``."""
    key_of = itemgetter(*positions)
    if lent:
        _unshare(index, lent, map(key_of, rows))
    get = index.get
    for row in rows:
        key = key_of(row)
        bucket = get(key)
        if bucket is not None:
            bucket.discard(row)
            if not bucket:
                del index[key]


def _unshare(
    index: dict[object, set[tuple]],
    lent: dict[object, set[tuple]],
    keys: Iterable[object],
) -> None:
    """Give ``index`` its own copy of each bucket under ``keys`` that is
    still the one ``lent`` holds: a lent bucket's first write goes to a
    copy, never to the donor."""
    for key in keys:
        bucket = index.get(key)
        if bucket is not None and bucket is lent.get(key):
            index[key] = set(bucket)


def _lend(indexes: dict) -> tuple[dict, dict]:
    """A clone's indexes and what it borrowed: a shallow copy of each of
    ``indexes`` (every bucket shared), and the donor's own index per
    pattern, to tell a bucket still shared by."""
    # snapshot: a concurrent probe may publish a new lazy index
    lent = dict(indexes)
    return {p: dict(index) for p, index in lent.items()}, lent


# ----------------------------------------------------------------------
# rule compilation
# ----------------------------------------------------------------------
#: CPython refuses more than 20 statically nested blocks in one function
#: (a kernel's ``try`` is one of them): past this many open loops the
#: rest of the rule continues in a nested ``def``
_MAX_LOOPS = 16


class RulePlan:
    """A compiled (rule, order, Δ-position): one generated function."""

    __slots__ = ("kernel", "source", "filename", "reads", "grouped")

    def __init__(
        self, kernel: Callable, source: str, filename: str,
        reads: frozenset[str], grouped: Callable | None = None,
    ) -> None:
        #: ``kernel(relations, delta_overrides, pool) -> set of id-rows``
        #: (counted mode: a dict of binding counts, see ``_compile_rule``)
        self.kernel = kernel
        #: an aggregate plan's join without its fold, same arguments:
        #: group key → the aggregated column's ids, one per binding —
        #: what ``kernel`` hands :func:`fold_groups` (``None`` for a plain
        #: head, a one-relation GROUP BY and the other modes)
        self.grouped = grouped
        #: the kernel's text, also in ``linecache`` under ``filename``
        #: while the plan is memoised — tracebacks show the failing line
        self.source = source
        self.filename = filename
        #: predicates the plan reads from the database — every scan
        #: outside the Δ-restricted occurrence plus every negation
        #: probe. A caller need materialise no other relation; the
        #: Δ-restricted scan reads ``delta_overrides`` instead.
        self.reads = reads


def _mirror(rel, pool: InternPool) -> ColumnarRelation | None:
    """The columnar face of a relation that has rows, else ``None`` — no
    mirror is built of an empty relation, which every later insert
    would have to feed."""
    if rel is None or not len(rel):
        return None
    return rel if isinstance(rel, ColumnarRelation) else rel.columnar(pool)


def _op(token: str, table: tuple[str, ...]) -> str:
    """``token``, one of ``table``: operators are the only text of a
    rule that reaches a kernel's source as written."""
    if token not in table:
        raise ValueError(f"cannot compile operator {token!r}")
    return token


def _intern_stmt(k: str) -> str:
    """Set local ``k3`` to the id of the constant global ``K3``."""
    return f"{k} = intern({k.upper()})"


def _tuple(items: list[str]) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def _key(items: list[str]) -> str:
    """A hash key of ``items``: one is the bare id, like a one-position
    index key; none or several a tuple."""
    return items[0] if len(items) == 1 else _tuple(items)


class _Body:
    """The statements of a kernel under construction.

    A rule's code only ever grows inward — each scan's loop holds the
    rest of the rule — so a function body is a list of lines and the
    number of loops open around the next one. ``funcs[0]`` is the
    kernel's own body, the others the nested ``def``s it continues in.
    """

    def __init__(self, support: bool = False) -> None:
        self.funcs: list[list[str]] = [[]]
        self.depth = 0
        #: a head-bound kernel's: the outermost loop is over the
        #: candidates, and a nested ``def`` returns whether the candidate
        #: has a derivation
        self.support = support

    def emit(self, *lines: str, depth: int | None = None) -> None:
        pad = "    " * (2 + (self.depth if depth is None else depth))
        self.funcs[-1] += [pad + line for line in lines]

    def loop(self, header: str) -> None:
        self.emit(header)
        self.depth += 1

    @property
    def nested(self) -> bool:
        return len(self.funcs) > 1

    def first_time(self, local: str, *lines: str) -> None:
        """``lines`` set ``local`` (``None`` so far) when the first
        binding gets here — where only one ever does, just ``lines``."""
        if self.depth or self.nested:
            self.emit(f"if {local} is None:", *("    " + x for x in lines))
        else:
            self.emit(*lines)

    @property
    def dead(self) -> str:
        """Leave the kernel: a scanned relation is empty, so nothing
        was or will be derived (a nested ``def`` tells its caller, or in
        a head-bound kernel gives up on its candidate)."""
        if self.nested:
            return "return" if self.support else "return True"
        return "return out"

    @property
    def skip(self) -> str:
        """Drop the current binding."""
        if self.depth:
            return "continue"
        return "return" if self.nested else "return out"

    def found(self) -> None:
        """A head-bound kernel's candidate has a derivation: a nested
        ``def`` says so; the kernel keeps the candidate and leaves every
        loop it opened inside the candidates' — ``break`` out of the
        innermost, and after each loop ``else: continue`` (it ran out)
        then ``break``."""
        if self.nested:
            self.emit("return True")
            return
        self.emit("add(head)")
        if self.depth > 1:
            self.emit("break")
        for depth in range(self.depth - 1, 1, -1):
            self.emit("else:", "    continue", "break", depth=depth)

    def continue_in_def(self, bound: Iterable[str]) -> None:
        args = ", ".join(bound)
        name = f"part{len(self.funcs)}"
        if not self.support:
            self.emit(f"if {name}({args}): {self.dead}")
        else:  # the part says whether it found a derivation
            self.emit(f"if not {name}({args}): {self.skip}")
            self.found()
        self.funcs.append([f"    def {name}({args}):"])
        self.depth = 0


def _close(assigns: list, bound: set[str]) -> None:
    """Add to ``bound`` what ``assigns`` bind once their inputs are: a
    kernel fires an assignment as soon as it can."""
    grew = True
    while grew:
        grew = False
        for a in assigns:
            if a.target.name not in bound and all(
                v.name in bound for v in a.inputs()
            ):
                bound.add(a.target.name)
                grew = True


def _fixed(atom, bound: set[str]) -> tuple[int, int]:
    """How much of ``atom`` a scan finds fixed: its variables in
    ``bound``, its constants."""
    variables = constants = 0
    for t in atom.terms:
        if isinstance(t, Constant):
            constants += 1
        elif isinstance(t, Variable) and t.name in bound:
            variables += 1
    return variables, constants


def body_order(
    rule: Rule,
    at: int | None,
    bound: Iterable[str] = (),
    late: Collection[str] = (),
) -> tuple[int, ...]:
    """The body order of a plan seeded at the positive occurrence
    ``at``: every filter, assignment and negation (each waits, as
    always, until its variables are bound, so only a ground one runs
    ahead of the seed), then ``at``, then the remaining atoms
    bound-first — each time the one with the most variables already
    bound, then the most constants, then one whose predicate is not in
    ``late``, then the textual first. A Δ-plan is seeded at its Δ, so a
    Δ of one row probes the other relations instead of scanning them; a
    full plan at :func:`full_seed`'s pick; a head-bound plan
    (``at=None``) starts from the head's variables, ``bound``, and puts
    the SCC's own occurrences, ``late``, behind an input that fixes as
    much. The one order function: every id-space plan but the
    semi-naive loop's Δ-plans over SCC heads (textual, DESIGN §16), and
    the static analyzer's ``cartesian-join`` hint, are ordered here."""
    body = rule.body
    atoms = {
        i: lit.atom for i, lit in enumerate(body)
        if lit.atom is not None and not lit.negated
    }
    bound = set(bound)
    seq = [
        i for i, lit in enumerate(body) if lit.atom is None or lit.negated
    ]
    if at is not None:
        bound.update(
            t.name for t in atoms.pop(at).terms if isinstance(t, Variable)
        )
        seq.append(at)
    assigns = [lit.assignment for lit in body if lit.assignment is not None]
    _close(assigns, bound)
    while atoms:
        best = max(atoms, key=lambda i: (
            *_fixed(atoms[i], bound), atoms[i].predicate not in late, -i,
        ))
        seq.append(best)
        bound.update(
            t.name for t in atoms.pop(best).terms if isinstance(t, Variable)
        )
        _close(assigns, bound)
    return tuple(seq)


def full_seed(rule: Rule, relations) -> int | None:
    """The positive occurrence a full (non-Δ) plan of ``rule`` scans
    first, over ``relations`` (predicate → relation; a missing one has
    no rows), which seeds :func:`body_order` — ``None`` only for a body
    with no positive atom, whose plan is textual order's
    (``order=None``); a body with one is seeded there, sizes unread.

    The pick is the top of (variables the ground assignments bind,
    constants, −rows, −textual index), where rows count only for an
    occurrence that fixes neither: the outer loop of a nested-loop
    kernel is its cost, so of the occurrences read whole the smallest
    goes outside. One that fixes something is read through an index
    bucket, and the text keeps deciding among those. At most one
    ``len`` per occurrence, once per full plan run.
    """
    body = rule.body
    positive = [
        (i, lit.atom) for i, lit in enumerate(body)
        if lit.atom is not None and not lit.negated
    ]
    if len(positive) < 2:
        return positive[0][0] if positive else None
    bound: set[str] = set()
    _close(
        [lit.assignment for lit in body if lit.assignment is not None],
        bound,
    )
    best = seed = None
    for i, atom in positive:
        fixed = _fixed(atom, bound)
        rows = 0
        if not any(fixed):
            rel = relations.get(atom.predicate)
            rows = 0 if rel is None else len(rel)
        rank = (*fixed, -rows, -i)
        if best is None or rank > best:
            best, seed = rank, i
    return seed


def _one_relation_group(rule: Rule) -> dict[str, int] | None:
    """Variable → position in the body's one atom, when ``rule``'s
    groups are its relation's index buckets: the body is one positive
    atom of distinct variables, and every head term — plain or
    aggregated — is one of them. A bucket's rows are then exactly its
    group's bindings, one per row."""
    atom = rule.body[0].atom if len(rule.body) == 1 else None
    if atom is None or rule.body[0].negated:
        return None
    at: dict[str, int] = {}
    for pos, t in enumerate(atom.terms):
        if not isinstance(t, Variable) or t.name in at:
            return None
        at[t.name] = pos
    for t in rule.head.terms:
        v = t.var if isinstance(t, Aggregate) else t
        if not isinstance(v, Variable) or v.name not in at:
            return None
    return at


#: the fold of a group's values, by aggregate (``count`` is ``len``)
_FOLDS = {"sum": sum, "min": min, "max": max}


def fold_groups(head: Atom, groups: dict, pool: InternPool) -> set:
    """The id-rows the aggregate ``head`` derives from ``groups`` (group
    key → the aggregated column's ids, one per binding; the key is the
    head's plain columns, one column on its bare id): per group, ``len``
    for ``count``, one ``sum`` / ``min`` / ``max`` over the ids' values,
    interned into the head at the aggregate's place. The fold every
    per-binding aggregate kernel ends in, and every rule that reads a
    grouped join another rule of the same body ran."""
    if not groups:
        return set()
    terms = head.terms
    for at, agg in enumerate(terms):
        if isinstance(agg, Aggregate):
            break
    if agg.op == "count":
        folded = map(len, groups.values())
    else:  # per group, one C call over its ids' values
        values = map(map, repeat(pool.table.values.__getitem__),
                     groups.values())
        folded = map(_FOLDS[agg.op], values)
    keys, results = groups.keys(), map(pool.table.intern, folded)
    if len(terms) == 2:  # one group column, keyed on its bare id
        return set(zip(keys, results) if at else zip(results, keys))
    return {(*g[:at], v, *g[at:]) for g, v in zip(keys, results)}


def share_key(rule: Rule) -> tuple | None:
    """What an aggregate rule's grouped join is, up to a consistent
    renaming of its variables: the body's literals in order, the head's
    plain columns (the group key) and the aggregated variable — each
    variable numbered by its first appearance in the body, a constant
    kept with its type. Two rules with equal keys group equal bindings
    under equal keys, whatever their heads' predicates, aggregates and
    the aggregate's place; :func:`fold_groups` then folds one join's
    groups for both. ``None`` for a plain head and for a one-relation
    GROUP BY, which folds index buckets and has no join to share."""
    if not rule.has_aggregate or _one_relation_group(rule) is not None:
        return None
    number: dict[str, int] = {}

    def term(t) -> object:
        if isinstance(t, Variable):
            return number.setdefault(t.name, len(number))
        return (type(t.value).__name__, t.value)

    body = []
    for lit in rule.body:
        if lit.atom is not None:
            body.append((
                "!" if lit.negated else "", lit.atom.predicate,
                tuple(map(term, lit.atom.terms)),
            ))
        elif lit.comparison is not None:
            c = lit.comparison
            body.append(("?", c.op, term(c.left), term(c.right)))
        else:
            a = lit.assignment
            body.append((
                "=", term(a.target), term(a.left), a.op,
                None if a.right is None else term(a.right),
            ))
    terms = rule.head.terms
    agg = next(t for t in terms if isinstance(t, Aggregate))
    plain = tuple(term(t) for t in terms if not isinstance(t, Aggregate))
    return tuple(body), plain, term(agg.var)


def _compile_rule(
    rule: Rule,
    order: tuple[int, ...] | None,
    delta_at: int | None,
    counted: bool = False,
    stamped: frozenset[str] | None = None,
) -> RulePlan:
    """Generate the nested-loop join ``join_body`` runs dynamically.

    Binding order is fixed per (rule, order, Δ-position), so each
    deferred comparison / assignment / negation is emitted inside the
    loop where the dynamic evaluator would first find all its variables
    bound. Literals that never become evaluable compile to a ``raise``
    at the innermost level, reached only if a binding gets there —
    byte-compatible with ``join_body``'s "unresolved filters" error on
    unsafe rules.

    ``counted`` generates the kernel's counted mode: it returns a dict
    that counts the bindings reaching the head — per head id-row, or for
    an aggregate head per ``(group id-row, aggregated column's id)``,
    unfolded — instead of the set of heads (folded groups). The source
    of the plain mode does not depend on it.

    ``stamped`` (the predicates of a recursive SCC) generates the
    *head-bound existence* mode a fixpoint node's retraction checks
    support with: ``kernel(relations, heads, pool, stamps)`` takes
    candidate head id-rows, each mapped to a stamp bound, binds the
    head's variables from each before the body's first scan (a head
    constant or repeated variable the row does not match skips it),
    reads an occurrence of a ``stamped`` predicate only at rows whose
    stamp — ``stamps[predicate][row]``, the iteration the row first
    appeared in — is below the bound, and returns the candidates one
    binding reaches the head for, the body left at the first. Plain
    heads and whole bodies only; neither other mode's source depends on
    it.

    A plain aggregate whose full plan reads one relation
    (:func:`_one_relation_group`) folds its groups straight from that
    relation's index on the group columns (the whole row set when there
    are none): per bucket, ``len`` for ``count``, one ``sum`` / ``min``
    / ``max`` over the aggregated column's values — a C call per group
    instead of a Python step per binding. Any other plain aggregate is
    two functions: ``grouped``, the join, which appends each binding's
    aggregated id to its group's list and returns the groups
    (:attr:`RulePlan.grouped`), and ``kernel``, which folds them through
    :func:`fold_groups` — the fold a rule sharing that join applies to
    another rule's groups.

    The source is made of invented names, integer positions, operator
    tokens of the closed tables and ``repr`` of predicate names; program
    constants live in the kernel's globals (``K0``, ``K1``, …) and are
    never rendered.
    """
    body = rule.body
    if order is None:
        seq: tuple[int, ...] = tuple(range(len(body)))
    else:
        if sorted(order) != list(range(len(body))):
            raise ValueError(
                f"order {order!r} is not a permutation of body indices"
            )
        seq = tuple(order)

    support = stamped is not None
    if support and (delta_at is not None or counted or rule.has_aggregate):
        raise ValueError(
            "a head-bound plan is a whole-body plan of a plain head"
        )
    by = None
    if not counted and delta_at is None and rule.head.has_aggregate():
        by = _one_relation_group(rule)
        if by is not None:
            seq = ()  # the fold below reads the atom
    env: dict[str, object] = {
        "mirror": _mirror, "defaultdict": defaultdict, "itemgetter": itemgetter,
    }
    var: dict[str, str] = {}  # Datalog variable → local holding its id
    lazy: list[str] = []  # locals that are None until first needed
    counters: list[str] = []
    reads: set[str] = set()
    pending: list = []
    stamp_of: dict[str, str] = {}  # stamped predicate → its stamps' local
    w = _Body(support)
    numbers = count()

    def value(term) -> str:
        """Value-space expression of a constant or bound variable."""
        if isinstance(term, Variable):
            return f"values[{var[term.name]}]"
        name = f"K{next(numbers)}"
        env[name] = term.value
        return name

    def ident(term, interned: list[str]) -> str:
        """Id-space expression. A constant's id is a local the kernel
        sets when it first needs it (plans are pool-independent): the
        caller places ``intern_stmt`` of the names added to
        ``interned``."""
        if isinstance(term, Variable):
            return var[term.name]
        k = value(term).lower()
        lazy.append(k)
        interned.append(k)
        return k

    def flush() -> None:
        progressed = True
        while progressed:
            progressed = False
            still: list = []
            for lit in pending:
                if lit.is_assignment:
                    a = lit.assignment
                    if not all(v.name in var for v in a.inputs()):
                        still.append(lit)
                        continue
                    expr = value(a.left)
                    if a.op is not None:
                        expr += f" {_op(a.op, ARITH_OPS)} {value(a.right)}"
                    if a.target.name in var:
                        w.emit(
                            f"if not (values[{var[a.target.name]}] == "
                            f"({expr})): {w.skip}"
                        )
                    else:
                        var[a.target.name] = f"v{next(numbers)}"
                        w.emit(f"{var[a.target.name]} = intern({expr})")
                elif not all(v.name in var for v in lit.variables()):
                    still.append(lit)
                    continue
                elif lit.is_comparison:
                    c = lit.comparison
                    w.emit(
                        f"if not ({value(c.left)} "
                        f"{_op(c.op, COMPARISON_OPS)} {value(c.right)}): "
                        f"{w.skip}"
                    )
                else:  # negated ground atom: probe the mirror's row set
                    reads.add(lit.atom.predicate)
                    rows = f"N{next(numbers)}"
                    lazy.append(rows)
                    interned: list[str] = []
                    row = _tuple([ident(t, interned) for t in lit.atom.terms])
                    w.first_time(
                        rows,
                        f"{rows} = mirror(relations.get("
                        f"{lit.atom.predicate!r}), pool)",
                        f"if {rows} is None:",
                        f"    {rows} = ()",
                        "else:",
                        *(f"    {_intern_stmt(k)}" for k in interned),
                        f"    {rows} = {rows}.rows",
                    )
                    w.emit(f"if {row} in {rows}: {w.skip}")
                progressed = True
            pending[:] = still

    # a head-bound kernel passes each candidate's stamp bound down
    extra = ["bound"] if support else []
    if support:
        # the candidates are the outermost loop: a row binds the head's
        # variables, and the body's loops leave at the first binding
        # that reaches the head
        w.loop("for head, bound in heads.items():")
        cols = [f"h{i}" for i in range(len(rule.head.terms))]
        w.emit(f"{_tuple(cols) if cols else '()'} = head")
        for col, t in zip(cols, rule.head.terms):
            if isinstance(t, Variable) and t.name not in var:
                var[t.name] = col
                continue
            interned = []
            x = ident(t, interned)
            for k in interned:
                w.first_time(k, _intern_stmt(k))
            w.emit(f"if {col} != {x}: continue")
        flush()

    for idx in seq:
        lit = body[idx]
        if lit.is_comparison or lit.is_assignment or lit.negated:
            pending.append(lit)
            flush()
            continue
        atom = lit.atom
        if w.depth == _MAX_LOOPS:
            w.continue_in_def([*var.values(), *extra])
        scan, n = f"S{len(counters)}", f"n{len(counters)}"
        lazy.append(scan)
        counters.append(n)
        if delta_at is not None and idx == delta_at:
            source = "deltas"
        else:
            source = "relations"
            reads.add(atom.predicate)
        pattern: list[int] = []
        key: list[str] = []
        interned = []
        targets: list[str] = []
        new: dict[str, str] = {}
        repeats: list[str] = []
        for pos, t in enumerate(atom.terms):
            if isinstance(t, Constant) or t.name in var:
                pattern.append(pos)
                key.append(ident(t, interned))
                targets.append("_")
            elif t.name in new:
                targets.append(f"r{next(numbers)}")
                repeats.append(f"if {targets[-1]} != {new[t.name]}: continue")
            else:
                new[t.name] = f"v{next(numbers)}"
                targets.append(new[t.name])
        # a stamped occurrence reads a row only below the bound: the
        # loop takes the row whole, then checks its stamp
        stamp = None
        if support and atom.predicate in stamped:
            stamp = stamp_of.setdefault(atom.predicate, f"T{len(stamp_of)}")
        row = f"r{next(numbers)}" if stamp else _tuple(targets)
        if not new:
            # fully bound: membership probe, no index (as Relation.match)
            found = ".rows"
            if stamp:
                probe = (
                    f"if {row} not in {scan} or {stamp}[{row}] >= bound: "
                    f"{w.skip}"
                )
            else:
                probe = f"if {_tuple(key)} not in {scan}: {w.skip}"
        elif not pattern:
            # nothing bound: cross join against the whole relation
            found, probe = ".rows", f"for {row} in {scan}:"
        else:
            lookup = _key(key)
            found = f".index({tuple(pattern)!r}).get"
            if len(interned) == len(key):
                # all constants: one bucket for every binding
                found += f"({lookup}, ())"
                probe = f"for {row} in {scan}:"
            else:
                probe = f"for {row} in {scan}({lookup}) or ():"
        # resolved by the first binding that gets here: no mirror or
        # index is built behind an empty relation or a dead branch
        w.first_time(
            scan,
            f"{scan} = mirror({source}.get({atom.predicate!r}), pool)",
            f"if {scan} is None: {w.dead}",
            *map(_intern_stmt, interned),
            f"{scan} = {scan}{found}",
        )
        w.emit(f"{n} += 1")
        if new:
            w.loop(probe)
            if stamp:
                w.emit(
                    f"if {stamp}[{row}] >= bound: continue",
                    f"{_tuple(targets)} = {row}",
                )
            w.emit(*repeats)
            var.update(new)
        else:
            if stamp:  # after the key's constants are interned above
                w.emit(f"{row} = {_tuple(key)}")
            w.emit(probe)
        flush()

    flush()
    head = rule.head.terms
    fold: list[str] = []  # the kernel around a grouped join
    prelude: list[str] = []
    if pending:
        env["UNRESOLVED"] = f"unresolved filters {pending!r}"
        w.emit("raise RuntimeError(UNRESOLVED)")
    elif support:
        # a binding reached the head: the candidate holds
        w.found()
    elif by is not None:
        # GROUP BY over one relation: a bucket of its index on the group
        # columns (ascending positions, one on the bare id) is a group
        atom = body[0].atom
        reads.add(atom.predicate)
        lazy.append("S0")
        counters.append("n0")
        agg = next(t for t in head if isinstance(t, Aggregate))
        group = sorted({by[t.name] for t in head if isinstance(t, Variable)})
        if agg.op == "count":
            folded = "len(rows)"
        else:
            prelude = [
                "    value_of = values.__getitem__",
                f"    column = itemgetter({by[agg.var.name]})",
            ]
            folded = (
                f"{_op(agg.op, ('sum', 'min', 'max'))}"
                "(map(value_of, map(column, rows)))"
            )
        row = _tuple([
            f"intern({folded})" if isinstance(t, Aggregate)
            else f"v{by[t.name]}"
            for t in head
        ])
        w.emit(
            f"S0 = mirror(relations.get({atom.predicate!r}), pool)",
            f"if S0 is None: {w.dead}",
            "n0 += 1",
        )
        if group:
            w.emit(
                f"for {_key([f'v{i}' for i in group])}, rows in "
                f"S0.index({tuple(group)!r}).items():",
                f"    add({row})",
            )
        else:  # one group: every row
            w.emit("rows = S0.rows", f"add({row})")
    else:
        interned = []
        plain = [
            ident(t, interned) for t in head if not isinstance(t, Aggregate)
        ]
        for k in interned:
            w.first_time(k, _intern_stmt(k))
        if counted:
            # one count per binding; an aggregate's group and value as
            # they are, for the caller to fold
            agg = next(
                (t for t in head if isinstance(t, Aggregate)), None
            )
            key = _tuple(plain) if agg is None else (
                f"({_tuple(plain)}, {var[agg.var.name]})"
            )
            w.emit(f"out[{key}] += 1")
        elif not rule.head.has_aggregate():
            w.emit(f"add({_tuple(plain)})")
        else:
            # group on id columns (one column on its bare id): the join
            # returns its groups, and the kernel folds them
            agg = next(t for t in head if isinstance(t, Aggregate))
            w.emit(f"groups[{_key(plain)}].append({var[agg.var.name]})")
            env.update(fold_groups=fold_groups, HEAD=rule.head)
            fold = [
                "def kernel(relations, deltas, pool):",
                "    groups = grouped(relations, deltas, pool)",
                "    return fold_groups(HEAD, groups, pool)",
            ]

    state = ", ".join(lazy + counters)
    lines = [
        "def kernel(relations, heads, pool, stamps):" if support
        else "def grouped(relations, deltas, pool):" if fold
        else "def kernel(relations, deltas, pool):",
        "    intern = pool.table.intern",
        "    values = pool.table.values",
        *(
            ["    out = defaultdict(int)"] if counted
            else ["    out = groups = defaultdict(list)"] if fold
            else ["    out = set()", "    add = out.add"]
        ),
        *prelude,
        *(f"    {t} = stamps[{p!r}]" for p, t in stamp_of.items()),
        *([f"    {' = '.join(lazy)} = None"] if lazy else []),
        *([f"    {' = '.join(counters)} = 0"] if counters else []),
    ]
    for part in w.funcs[1:]:
        lines += [part[0], f"        nonlocal {state}", *part[1:]]
    lines += [
        "    try:",
        *w.funcs[0],
        "        return out",
        "    finally:",
        f"        pool.probes += {' + '.join(counters) or 0}",
        *fold,
    ]
    source = "\n".join(lines) + "\n"
    filename = (
        f"<rule kernel: {rule!r} order={order} delta={delta_at}"
        + (" counted" if counted else "")
        + (f" stamped={sorted(stamped)}" if support else "")
        + ">"
    )
    exec(compile(source, filename, "exec"), env)
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename
    )
    return RulePlan(
        env["kernel"], source, filename, frozenset(reads), env.get("grouped")
    )


#: (rule, order, Δ-position) → compiled plan, least recently used
#: first. Pool-independent: a kernel holds value-space constants and
#: takes their ids from the pool it is run with, so two services with
#: separate InternPools share compiled plans safely. Serves
#: :func:`eval_rule_columnar` (from-scratch evaluation, probes) and plan
#: construction; work units hold their plans directly and never come
#: here per execution.
_RULE_PLANS: OrderedDict[tuple, RulePlan] = OrderedDict()
_RULE_PLAN_CAP = 4096
_RULE_PLANS_LOCK = threading.Lock()


def compile_rule_plan(
    rule: Rule,
    order: tuple[int, ...] | None,
    delta_at: int | None,
    counted: bool = False,
    stamped: frozenset[str] | None = None,
) -> RulePlan:
    """The memoised kernel of ``(rule, order, Δ-position)`` — in counted
    mode with ``counted`` (see :func:`_compile_rule`), which only the
    non-recursive task units of a served plan request, and head-bound
    over the SCC ``stamped``, which only a fixpoint node's retraction
    does.

    Past the cap the least recently used plan is evicted (its source
    leaves ``linecache`` with it) — never the whole memo, so a plan in
    steady use is not recompiled because other programs passed through.
    """
    key = (rule, order, delta_at, counted, stamped)
    with _RULE_PLANS_LOCK:
        plan = _RULE_PLANS.get(key)
        if plan is not None:
            _RULE_PLANS.move_to_end(key)
            return plan
    plan = _compile_rule(rule, order, delta_at, counted, stamped)
    with _RULE_PLANS_LOCK:
        plan = _RULE_PLANS.setdefault(key, plan)
        while len(_RULE_PLANS) > _RULE_PLAN_CAP:
            _key, evicted = _RULE_PLANS.popitem(last=False)
            linecache.cache.pop(evicted.filename, None)
    return plan


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------
def eval_rule_columnar(
    rule: Rule,
    db: "Database",
    pool: InternPool,
    delta_overrides=None,
    delta_at: int | None = None,
) -> set:
    """All facts one rule derives — columnar twin of ``eval_rule``.

    Accepts the same arguments as :func:`~repro.datalog.unify.eval_rule`
    and returns the identical value-space fact set: the value-space
    wrapper of :func:`run_rule_plan`, whose id-rows it externs in one
    pass. Relations are read through their columnar mirrors (built on
    first touch, maintained incrementally afterwards);
    ``delta_overrides`` relations get a mirror of their own, keyed to
    ``pool``.
    """
    plan = compile_rule_plan(
        rule, None, delta_at if delta_overrides is not None else None
    )
    return set(
        pool.extern_rows(run_rule_plan(plan, db, pool, delta_overrides))
    )


def run_rule_plan(
    plan: RulePlan,
    db: "Database",
    pool: InternPool,
    delta_overrides=None,
) -> set:
    """Run a compiled kernel; the head's **id-rows** under ``pool``.

    ``db`` need hold only ``plan.reads``, each as a
    :class:`~repro.datalog.database.Relation` (read through its mirror)
    or a :class:`ColumnarRelation`; the Δ-restricted scan of a plan
    compiled with a Δ-position reads ``delta_overrides`` and nothing
    else. No fact is externed on the way: filters and arithmetic read
    the values of the ids they compare, an aggregate those of the
    column it folds, and what either computes is interned. The kernel
    mutates nothing it reads and returns a fresh set — a fresh dict of
    binding counts for a counted plan; ``pool.probes`` grows, once, by
    the bindings that reached each of its scans.
    """
    return plan.kernel(db.relations, delta_overrides, pool)
