"""Columnar (interned) relation storage and batch hash-join evaluation.

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
  Δ-position)`` into a static step program (scans, filters,
  assignments, negation probes, head projection/aggregation) and
  :func:`run_rule_plan` runs the whole binding *batch* through each
  step — a vectorized hash join: build once on the interned key
  columns, probe in bulk, no per-tuple dict copies.

The boundary: facts are interned where they enter — an EDB relation's
mirror, built once and patched by each round's delta — and externed
where a materialization is read: a stratum publishes its head relations
as the mirrors its fixpoint grew
(:meth:`~repro.datalog.database.Relation.adopt`), and the first reader
of a relation's facts externs them. Everything in between is id space:
:func:`run_rule_plan` *returns id-rows* (head projection is an ``itemgetter`` over binding slots, head constants and
aggregate results are interned, only an aggregated column is externed),
so a fixpoint's ``produced - known`` is one set difference and its Δ the
fresh rows as they are. :func:`eval_rule_columnar` is the value-space
wrapper: same plan, one bulk extern of the result.

The step programs are compiled from the same deferral fixpoint
:func:`~repro.datalog.unify.join_body` runs dynamically — variable
binding order is static per (rule, order, Δ-position), so filters and
assignments can be *scheduled* at compile time at exactly the point the
dynamic evaluator would first fire them. The two evaluators therefore
produce identical fact sets (and identical "unresolved filter" errors
on unsafe rules), which the differential and property test suites pin.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, defaultdict
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Iterator

from .ast import Aggregate, Constant, Rule, Variable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import Database

__all__ = [
    "InternTable",
    "InternPool",
    "ColumnarRelation",
    "RulePlan",
    "compile_rule_plan",
    "run_rule_plan",
    "eval_rule_columnar",
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
    by the bare id (no tuple allocation on the probe path).
    """

    __slots__ = ("name", "arity", "pool", "rows", "_indexes")

    def __init__(self, name: str, arity: int, pool: InternPool) -> None:
        self.name = name
        self.arity = arity
        self.pool = pool
        self.rows: set[tuple] = set()
        self._indexes: dict[tuple[int, ...], dict[object, set[tuple]]] = {}

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
        for positions, index in self._indexes.items():
            _index_rows(index, positions, rows)

    def discard_row(self, row: tuple) -> bool:
        if row not in self.rows:
            return False
        self.rows.remove(row)
        for positions, index in self._indexes.items():
            key = itemgetter(*positions)(row)
            bucket = index.get(key)
            if bucket is not None:
                bucket.discard(row)
                if not bucket:
                    del index[key]
        return True

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
        """Copy rows *and* built indexes (for ``copy_indexed``)."""
        out = ColumnarRelation(self.name, self.arity, self.pool)
        out.rows = set(self.rows)
        for positions, index in list(self._indexes.items()):
            out._indexes[positions] = {
                key: set(bucket) for key, bucket in index.items()
            }
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarRelation({self.name}/{self.arity}, "
            f"{len(self.rows)} rows)"
        )


def _index_rows(
    index: dict[object, set[tuple]],
    positions: tuple[int, ...],
    rows: Iterable[tuple],
) -> None:
    """File ``rows`` into ``index`` under their key at ``positions``."""
    # itemgetter of one position is the bare id, of several the tuple
    # of ids: exactly the two key shapes
    key_of = itemgetter(*positions)
    get = index.get
    for row in rows:
        key = key_of(row)
        bucket = get(key)
        if bucket is None:
            index[key] = {row}
        else:
            bucket.add(row)


# ----------------------------------------------------------------------
# rule compilation
# ----------------------------------------------------------------------
# the comparison/arithmetic tables are tiny and duplicated from
# repro.datalog.unify on purpose: importing unify here would close an
# import cycle through database.py (which mirrors into this module)
_CMP: dict[str, Callable[[object, object], bool]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ARITH: dict[str, Callable[[object, object], object]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}

# step tags
_SCAN, _FILTER, _BIND, _NEG, _UNRESOLVED = 0, 1, 2, 3, 4


class RulePlan:
    """A compiled (rule, order, Δ-position) step program."""

    __slots__ = ("steps", "emit", "reads")

    def __init__(self, steps: list[tuple], emit: tuple) -> None:
        self.steps = tuple(steps)
        self.emit = emit
        #: predicates the plan reads from the database — every scan
        #: outside the Δ-restricted occurrence plus every negation
        #: probe. A caller need materialise no other relation; the
        #: Δ-restricted scan reads ``delta_overrides`` instead.
        self.reads: frozenset[str] = frozenset(
            step[1]
            for step in self.steps
            if (step[0] == _SCAN and not step[2]) or step[0] == _NEG
        )


def _value_fn(term, slots: dict[str, int]):
    """Compile a term to ``(row, values) -> value``."""
    if isinstance(term, Constant):
        v = term.value
        return lambda row, values: v
    s = slots[term.name]
    return lambda row, values: values[row[s]]


def _cmp_filter(cmp, slots: dict[str, int]):
    op = _CMP[cmp.op]
    left = _value_fn(cmp.left, slots)
    right = _value_fn(cmp.right, slots)

    def run(rows: list, values: list) -> list:
        return [r for r in rows if op(left(r, values), right(r, values))]

    return run


def _assign_value_fn(assign, slots: dict[str, int]):
    left = _value_fn(assign.left, slots)
    if assign.op is None:
        return left
    op = _ARITH[assign.op]
    right = _value_fn(assign.right, slots)
    return lambda row, values: op(left(row, values), right(row, values))


def _assign_bind(assign, slots: dict[str, int]):
    fn = _assign_value_fn(assign, slots)

    def run(rows: list, values: list, pool: InternPool) -> list:
        intern = pool.intern
        return [r + (intern(fn(r, values)),) for r in rows]

    return run


def _assign_check(assign, slots: dict[str, int]):
    fn = _assign_value_fn(assign, slots)
    target = slots[assign.target.name]

    def run(rows: list, values: list) -> list:
        return [r for r in rows if values[r[target]] == fn(r, values)]

    return run


def _row_getter(positions: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """``row -> tuple(row[p] for p in positions)``, at C speed where
    ``itemgetter`` returns a tuple (it returns a scalar for one
    position and refuses none)."""
    if len(positions) >= 2:
        return itemgetter(*positions)
    if positions:
        p = positions[0]
        return lambda row: (row[p],)
    return lambda row: ()


def _id_row_fn(terms, slots: dict[str, int]) -> tuple[tuple, Callable]:
    """Compile an atom's plain terms to ``(constants, project)``.

    ``project(binding_row + constant_ids)`` is the atom's id-row: a
    variable reads its binding slot, the ``j``-th constant the ``j``-th
    position past the slots. The constants stay in value space — plans
    are pool-independent — and are interned when the plan runs.
    """
    constants: list = []
    positions: list[int] = []
    for t in terms:
        if isinstance(t, Constant):
            positions.append(len(slots) + len(constants))
            constants.append(t.value)
        else:
            positions.append(slots[t.name])
    return tuple(constants), _row_getter(tuple(positions))


def _compile_rule(
    rule: Rule, order: tuple[int, ...] | None, delta_at: int | None
) -> RulePlan:
    """Statically schedule the deferral fixpoint ``join_body`` runs.

    Binding order is fixed per (rule, order, Δ-position), so each
    deferred comparison / assignment / negation is emitted at exactly
    the step where the dynamic evaluator would first find all its
    variables bound. Literals that never become evaluable compile to a
    trailing ``_UNRESOLVED`` step that raises only if a binding row
    actually reaches it — byte-compatible with ``join_body``'s
    "unresolved filters" error on unsafe rules.
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

    slots: dict[str, int] = {}
    steps: list[tuple] = []
    pending: list = []

    def flush() -> None:
        progressed = True
        while progressed:
            progressed = False
            still: list = []
            for lit in pending:
                if lit.is_assignment:
                    a = lit.assignment
                    if all(v.name in slots for v in a.inputs()):
                        if a.target.name in slots:
                            steps.append(
                                (_FILTER, _assign_check(a, slots))
                            )
                        else:
                            fn = _assign_bind(a, slots)
                            slots[a.target.name] = len(slots)
                            steps.append((_BIND, fn))
                        progressed = True
                    else:
                        still.append(lit)
                elif all(v.name in slots for v in lit.variables()):
                    if lit.is_comparison:
                        steps.append(
                            (_FILTER, _cmp_filter(lit.comparison, slots))
                        )
                    else:  # negated ground atom
                        steps.append((
                            _NEG,
                            lit.atom.predicate,
                            *_id_row_fn(lit.atom.terms, slots),
                        ))
                    progressed = True
                else:
                    still.append(lit)
            pending[:] = still

    for idx in seq:
        lit = body[idx]
        if lit.is_comparison or lit.is_assignment or lit.negated:
            pending.append(lit)
            flush()
            continue
        atom = lit.atom
        keyed: list[tuple[int, tuple]] = []
        new: dict[str, int] = {}
        repeats: list[tuple[int, int]] = []
        for pos, t in enumerate(atom.terms):
            if isinstance(t, Constant):
                keyed.append((pos, (True, t.value)))
            elif t.name in slots:
                keyed.append((pos, (False, slots[t.name])))
            elif t.name in new:
                repeats.append((new[t.name], pos))
            else:
                new[t.name] = pos
        keyed.sort()
        pattern = tuple(pos for pos, _src in keyed)
        sources = tuple(src for _pos, src in keyed)
        new_positions = tuple(new.values())
        for name in new:
            slots[name] = len(slots)
        use_delta = delta_at is not None and idx == delta_at
        # None: every column new, in order — a fact is its own extension
        project = (
            None if new_positions == tuple(range(atom.arity))
            else _row_getter(new_positions)
        )
        steps.append((
            _SCAN, atom.predicate, use_delta, pattern, sources,
            new_positions, tuple(repeats), project,
        ))
        flush()

    flush()
    if pending:
        steps.append((_UNRESOLVED, tuple(pending)))

    # head projection / aggregation, both onto id-rows
    terms = rule.head.terms
    if not rule.head.has_aggregate():
        emit: tuple = ("plain", *_id_row_fn(terms, slots))
    else:
        agg = next(t for t in terms if isinstance(t, Aggregate))
        plain = [t for t in terms if not isinstance(t, Aggregate)]
        # the head row is read off ``group key + (result id,)``
        ki = iter(range(len(plain)))
        assemble = _row_getter(tuple(
            len(plain) if isinstance(t, Aggregate) else next(ki)
            for t in terms
        ))
        emit = (
            "agg", *_id_row_fn(plain, slots), agg.op,
            slots[agg.var.name], assemble,
        )
    return RulePlan(steps, emit)


#: (rule, order, Δ-position) → compiled plan, least recently used
#: first. Pool-independent: plans hold value-space constants and slot
#: indices only, so two services with separate InternPools share
#: compiled plans safely. Serves :func:`eval_rule_columnar` (from-scratch
#: evaluation, probes) and plan construction; work units hold their
#: plans directly and never come here per execution.
_RULE_PLANS: OrderedDict[tuple, RulePlan] = OrderedDict()
_RULE_PLAN_CAP = 4096
_RULE_PLANS_LOCK = threading.Lock()


def compile_rule_plan(
    rule: Rule, order: tuple[int, ...] | None, delta_at: int | None
) -> RulePlan:
    """The memoised step program of ``(rule, order, Δ-position)``.

    Past the cap the least recently used plan is evicted — never the
    whole memo, so a plan in steady use is not recompiled because other
    programs passed through.
    """
    key = (rule, order, delta_at)
    with _RULE_PLANS_LOCK:
        plan = _RULE_PLANS.get(key)
        if plan is not None:
            _RULE_PLANS.move_to_end(key)
            return plan
    plan = _compile_rule(rule, order, delta_at)
    with _RULE_PLANS_LOCK:
        plan = _RULE_PLANS.setdefault(key, plan)
        while len(_RULE_PLANS) > _RULE_PLAN_CAP:
            _RULE_PLANS.popitem(last=False)
    return plan


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------
def _run_scan(
    step: tuple, crel: ColumnarRelation, rows: list, pool: InternPool,
) -> list:
    """One vectorized hash-join step: probe all rows against one atom."""
    (_tag, _pred, _ud, pattern, sources, new_positions, repeats,
     project) = step
    pool.probes += len(rows)
    if not pattern:
        # no bound positions: cross join against the whole relation
        return _emit_bucket(rows, crel.rows, repeats, project)

    out: list = []
    intern = pool.intern
    # resolve key sources: constants intern to ids here (plans are
    # pool-independent), bound variables read their slot per row
    resolved = tuple(
        (True, intern(payload)) if is_const else (False, payload)
        for is_const, payload in sources
    )
    if len(pattern) == crel.arity:
        # fully bound: membership probe, no index (mirrors Relation.match)
        target = crel.rows
        for row in rows:
            key = tuple(
                payload if is_const else row[payload]
                for is_const, payload in resolved
            )
            if key in target:
                out.append(row)
        return out

    index = crel.index(pattern)
    if all(is_const for is_const, _p in resolved):
        # one shared key: one bucket for every row
        ids = tuple(payload for _ic, payload in resolved)
        bucket = index.get(ids[0] if len(ids) == 1 else ids)
        return _emit_bucket(rows, bucket, repeats, project) if bucket else []

    get = index.get
    if len(pattern) == 1:
        slot = resolved[0][1]
        if len(new_positions) == 1 and not repeats:
            p0 = new_positions[0]
            for row in rows:
                bucket = get(row[slot])
                if bucket:
                    for f in bucket:
                        out.append(row + (f[p0],))
            return out
        key_of: Callable = itemgetter(slot)
    else:
        def key_of(row: tuple) -> tuple:
            return tuple(
                payload if is_const else row[payload]
                for is_const, payload in resolved
            )
    for row in rows:
        bucket = get(key_of(row))
        if not bucket:
            continue
        for f in bucket:
            if repeats and not all(f[a] == f[b] for a, b in repeats):
                continue
            out.append(row + project(f))
    return out


def _emit_bucket(
    rows: list, bucket: Collection[tuple], repeats: tuple,
    project: Callable[[tuple], tuple] | None,
) -> list:
    """Extend every row with every bucket member (shared-key case)."""
    if repeats:
        bucket = [
            f for f in bucket if all(f[a] == f[b] for a, b in repeats)
        ]
    ext = list(bucket if project is None else map(project, bucket))
    if rows == [()]:
        # a plan's first scan: the projected rows are the binding rows
        return ext
    return [row + e for row in rows for e in ext]


def eval_rule_columnar(
    rule: Rule,
    db: "Database",
    pool: InternPool,
    delta_overrides=None,
    delta_at: int | None = None,
    order: tuple[int, ...] | None = None,
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
        rule, order, delta_at if delta_overrides is not None else None
    )
    return set(
        pool.extern_rows(run_rule_plan(plan, db, pool, delta_overrides))
    )


_FOLD: dict[str, Callable[[Iterable], object]] = {
    "sum": sum, "min": min, "max": max,
}


def run_rule_plan(
    plan: RulePlan,
    db: "Database",
    pool: InternPool,
    delta_overrides=None,
) -> set:
    """Run a compiled step program; the head's **id-rows** under ``pool``.

    ``db`` need hold only ``plan.reads``, each as a
    :class:`~repro.datalog.database.Relation` (read through its mirror)
    or a :class:`ColumnarRelation`; the Δ-restricted scan of a plan
    compiled with a Δ-position reads ``delta_overrides`` and nothing
    else. No fact is externed on the way: filters and arithmetic read
    the values of the ids they compare, an aggregate those of the
    column it folds, and what either computes is interned.
    """
    values = pool.table.values
    rows: list = [()]
    for step in plan.steps:
        tag = step[0]
        if tag == _SCAN:
            if step[2]:  # Δ-restricted occurrence
                rel = delta_overrides.get(step[1])
            else:
                rel = db.relations.get(step[1])
            if rel is None or not len(rel):
                # nothing to join with — and no mirror built of an empty
                # relation, which every later insert would have to feed
                return set()
            crel = rel if isinstance(rel, ColumnarRelation) else (
                rel.columnar(pool)
            )
            rows = _run_scan(step, crel, rows, pool)
        elif tag == _FILTER:
            rows = step[1](rows, values)
        elif tag == _BIND:
            rows = step[1](rows, values, pool)
        elif tag == _NEG:
            _t, pred, constants, id_row = step
            rel = db.relations.get(pred)
            if rel is not None and len(rel):
                present = (
                    rel if isinstance(rel, ColumnarRelation)
                    else rel.columnar(pool)
                ).rows
                ids = tuple(map(pool.intern, constants))
                rows = [r for r in rows if id_row(r + ids) not in present]
        else:  # _UNRESOLVED
            if rows:
                raise RuntimeError(f"unresolved filters {list(step[1])!r}")
        if not rows:
            return set()

    kind, constants, id_row = plan.emit[:3]
    if constants:
        ids = tuple(map(pool.intern, constants))
        rows = [r + ids for r in rows]
    if kind == "plain":
        return set(map(id_row, rows))

    # aggregate: group on id columns, extern only the folded column
    op, agg_slot, assemble = plan.emit[3:]
    groups: defaultdict[tuple, list] = defaultdict(list)
    for r in rows:
        groups[id_row(r)].append(r[agg_slot])
    intern = pool.intern
    value_of = values.__getitem__
    return {
        assemble(key + (intern(
            len(ids) if op == "count" else _FOLD[op](map(value_of, ids))
        ),))
        for key, ids in groups.items()
    }
