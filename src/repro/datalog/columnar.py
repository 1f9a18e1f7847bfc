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
* :func:`eval_rule_columnar` compiles each ``(rule, join order,
  Δ-position)`` into a static step program (scans, filters,
  assignments, negation probes, head projection/aggregation) and runs
  the whole binding *batch* through each step — a vectorized hash join:
  build once on the interned key columns, probe in bulk, no per-tuple
  dict copies.

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
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

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

    __slots__ = ("ids", "values")

    def __init__(self) -> None:
        self.ids: dict[object, int] = {}
        self.values: list[object] = []

    def __len__(self) -> int:
        return len(self.values)

    def intern(self, value: object) -> int:
        i = self.ids.get(value)
        if i is None:
            i = len(self.values)
            self.ids[value] = i
            self.values.append(value)
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

    ``builds``/``probes`` count columnar mirror constructions and
    hash-join probe operations — surfaced in ``RoundMetrics`` and the
    execute trace span.
    """

    __slots__ = ("table", "_fact_rows", "builds", "probes")

    def __init__(self) -> None:
        self.table = InternTable()
        self._fact_rows: dict[str, dict[tuple, tuple]] = {}
        self.builds = 0
        self.probes = 0

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
        values = self.table.values
        return tuple(values[i] for i in row)

    def stats(self) -> dict[str, int]:
        """Counters for metrics/span reporting."""
        return {
            "intern_table_size": len(self.table),
            "columnar_builds": self.builds,
            "columnar_probes": self.probes,
        }


# ----------------------------------------------------------------------
# columnar relations
# ----------------------------------------------------------------------
class ColumnarRelation:
    """A set of interned id-rows with incremental per-pattern indexes.

    The columnar twin of :class:`~repro.datalog.database.Relation`:
    indexes map a bound-position pattern to buckets of rows, built on
    first probe and maintained by :meth:`add_row`/:meth:`discard_row`.
    Single-position patterns key buckets by the bare id (no tuple
    allocation on the probe path).
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
        pool.builds += 1
        return out

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: tuple) -> bool:
        return row in self.rows

    def facts(self) -> Iterator[tuple]:
        """Iterate rows back in value space."""
        values = self.pool.table.values
        for row in self.rows:
            yield tuple(values[i] for i in row)

    # ------------------------------------------------------------------
    def add_row(self, row: tuple) -> bool:
        if row in self.rows:
            return False
        self.rows.add(row)
        for positions, index in self._indexes.items():
            if len(positions) == 1:
                key: object = row[positions[0]]
            else:
                key = tuple(row[p] for p in positions)
            bucket = index.get(key)
            if bucket is None:
                index[key] = {row}
            else:
                bucket.add(row)
        return True

    def discard_row(self, row: tuple) -> bool:
        if row not in self.rows:
            return False
        self.rows.remove(row)
        for positions, index in self._indexes.items():
            if len(positions) == 1:
                key: object = row[positions[0]]
            else:
                key = tuple(row[p] for p in positions)
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
            if len(positions) == 1:
                p = positions[0]
                for row in self.rows:
                    key = row[p]
                    bucket = index.get(key)
                    if bucket is None:
                        index[key] = {row}
                    else:
                        bucket.add(row)
            else:
                for row in self.rows:
                    key = tuple(row[p] for p in positions)
                    bucket = index.get(key)
                    if bucket is None:
                        index[key] = {row}
                    else:
                        bucket.add(row)
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


def _ground_fn(terms, slots: dict[str, int]):
    """Compile an atom's terms to ``(row, values) -> value fact``."""
    parts = tuple(_value_fn(t, slots) for t in terms)

    def run(row: tuple, values: list) -> tuple:
        return tuple(p(row, values) for p in parts)

    return run


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
                            _ground_fn(lit.atom.terms, slots),
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
        steps.append((
            _SCAN, atom.predicate, use_delta, pattern, sources,
            new_positions, tuple(repeats),
        ))
        flush()

    flush()
    if pending:
        steps.append((_UNRESOLVED, tuple(pending)))

    # head projection / aggregation
    terms = rule.head.terms
    if not rule.head.has_aggregate():
        emit: tuple = ("plain", tuple(
            (True, t.value) if isinstance(t, Constant)
            else (False, slots[t.name])
            for t in terms
        ))
    else:
        agg = next(t for t in terms if isinstance(t, Aggregate))
        group = tuple(
            (True, t.value) if isinstance(t, Constant)
            else (False, slots[t.name])
            for t in terms
            if not isinstance(t, Aggregate)
        )
        is_agg = tuple(isinstance(t, Aggregate) for t in terms)
        emit = ("agg", agg.op, slots[agg.var.name], group, is_agg)
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
    step: tuple, crel: ColumnarRelation | None, rows: list,
    pool: InternPool,
) -> list:
    """One vectorized hash-join step: probe all rows against one atom."""
    _tag, _pred, _ud, pattern, sources, new_positions, repeats = step
    if crel is None:
        return []
    out: list = []
    nnew = len(new_positions)
    if not pattern:
        # no bound positions: cross join against the whole relation
        base: Iterable[tuple] = crel.rows
        if repeats:
            base = [
                f for f in base
                if all(f[a] == f[b] for a, b in repeats)
            ]
        pool.probes += len(rows)
        if nnew == 1:
            p0 = new_positions[0]
            for row in rows:
                for f in base:
                    out.append(row + (f[p0],))
        else:
            for row in rows:
                for f in base:
                    out.append(row + tuple(f[p] for p in new_positions))
        return out

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
        pool.probes += len(rows)
        for row in rows:
            key = tuple(
                payload if is_const else row[payload]
                for is_const, payload in resolved
            )
            if key in target:
                out.append(row)
        return out

    index = crel.index(pattern)
    pool.probes += len(rows)
    single = len(pattern) == 1
    if single:
        is_const, payload = resolved[0]
        if is_const:
            bucket = index.get(payload)
            if not bucket:
                return []
            return _emit_bucket(rows, bucket, new_positions, repeats)
        slot = payload
        get = index.get
        if nnew == 1 and not repeats:
            p0 = new_positions[0]
            for row in rows:
                bucket = get(row[slot])
                if bucket:
                    for f in bucket:
                        out.append(row + (f[p0],))
            return out
        for row in rows:
            bucket = get(row[slot])
            if not bucket:
                continue
            for f in bucket:
                if repeats and not all(f[a] == f[b] for a, b in repeats):
                    continue
                out.append(row + tuple(f[p] for p in new_positions))
        return out

    if all(is_const for is_const, _p in resolved):
        key = tuple(payload for _ic, payload in resolved)
        bucket = index.get(key)
        if not bucket:
            return []
        return _emit_bucket(rows, bucket, new_positions, repeats)
    get = index.get
    for row in rows:
        key = tuple(
            payload if is_const else row[payload]
            for is_const, payload in resolved
        )
        bucket = get(key)
        if not bucket:
            continue
        for f in bucket:
            if repeats and not all(f[a] == f[b] for a, b in repeats):
                continue
            out.append(row + tuple(f[p] for p in new_positions))
    return out


def _emit_bucket(
    rows: list, bucket: set, new_positions: tuple, repeats: tuple
) -> list:
    """Extend every row with every bucket member (shared-key case)."""
    ext = [
        tuple(f[p] for p in new_positions)
        for f in bucket
        if not repeats or all(f[a] == f[b] for a, b in repeats)
    ]
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
    and returns the identical value-space fact set; relations are read
    through their columnar mirrors (built on first touch, maintained
    incrementally afterwards). ``delta_overrides`` relations get a
    mirror of their own, keyed to ``pool``.
    """
    plan = compile_rule_plan(
        rule, order, delta_at if delta_overrides is not None else None
    )
    return run_rule_plan(plan, db, pool, delta_overrides)


def run_rule_plan(
    plan: RulePlan,
    db: "Database",
    pool: InternPool,
    delta_overrides=None,
) -> set:
    """Run a compiled step program; ``db`` need hold only ``plan.reads``.

    The Δ-restricted scan of a plan compiled with a Δ-position reads
    ``delta_overrides`` and nothing else.
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
            values = pool.table.values
        elif tag == _FILTER:
            rows = step[1](rows, values)
        elif tag == _BIND:
            rows = step[1](rows, values, pool)
            values = pool.table.values
        elif tag == _NEG:
            _t, pred, ground = step
            has_fact = db.has_fact
            rows = [
                r for r in rows if not has_fact(pred, ground(r, values))
            ]
        else:  # _UNRESOLVED
            if rows:
                raise RuntimeError(f"unresolved filters {list(step[1])!r}")
        if not rows:
            return set()

    kind = plan.emit[0]
    if kind == "plain":
        getters = plan.emit[1]
        return {
            tuple(
                payload if is_const else values[r[payload]]
                for is_const, payload in getters
            )
            for r in rows
        }

    _kind, op, agg_slot, group, is_agg = plan.emit
    groups: dict[tuple, list] = {}
    for r in rows:
        key = tuple(
            payload if is_const else values[r[payload]]
            for is_const, payload in group
        )
        groups.setdefault(key, []).append(values[r[agg_slot]])
    out = set()
    for key, vals in groups.items():
        if op == "count":
            result: object = len(vals)
        elif op == "sum":
            result = sum(vals)
        elif op == "min":
            result = min(vals)
        else:  # max
            result = max(vals)
        fact = []
        ki = iter(key)
        for flag in is_agg:
            fact.append(result if flag else next(ki))
        out.add(tuple(fact))
    return out
