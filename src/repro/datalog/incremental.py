"""Incremental maintenance of materialized Datalog programs.

This is the computation the paper's schedulers exist to serve: a
program has been materialized, the base data (EDB) changes, and the
derived facts (IDB) must be brought up to date without recomputing from
scratch.

:class:`IncrementalEngine` is the library's one fact-level maintenance
procedure. It processes strata bottom-up, carrying net fact changes as
a weighted :class:`~repro.datalog.zset.ZSetDelta` (+1 = net insert, −1
= net retract per fact) from each stratum to the next:

* **Positive strata** (no changed negated or aggregated input) run
  Backward/Forward (Motik, Nenov, Piro, Horrocks — "Optimised
  Maintenance of Datalog Materialisations", PAPERS.md): (1) propagate
  Δ⁻ **forward** only to collect *candidates* — facts with at least one
  derivation through a deleted fact — without touching the database
  (joins evaluate against the pre-deletion view, so multi-hop
  derivations are found); (2) check **backward** which candidates still
  have a derivation from the surviving facts; (3) delete the
  unsupported remainder in one step, so a fact with alternative support
  is never deleted at all; (4) *insert* — semi-naive propagation of Δ⁺.
* **Negation- or aggregate-affected strata** (some rule negates or
  aggregates over a predicate whose extension changed) are recomputed
  from the current lower strata and diffed — stratified negation makes
  insertions act as deletions for consumers and vice versa, and
  recompute-and-diff handles both directions exactly.

The engine runs on the evaluator the served round runs on: it owns an
:class:`~repro.datalog.columnar.InternPool` and works on the relations'
columnar mirrors in id space — its joins are the compiled Δ-plans of
:func:`~repro.datalog.columnar.compile_rule_plan`, a recompute is
:func:`~repro.datalog.seminaive.evaluate_stratum`, and only the rows an
update changed are externed, into :class:`MaintenanceTrace`'s ``net``.
The served round calls the half of it that is measured to win: step (4),
:func:`_insert_stratum`, is the body of a static DAG's fixpoint node
whenever everything the node reads only grew (:mod:`repro.datalog
.units`). After a retraction the node recomputes its SCC — against a
columnar recompute Backward/Forward's candidate volume still loses on
small deep graphs (DESIGN §18). Steps (1)–(3) and the recompute-and-diff
of affected strata serve no round: a served *non-recursive* node keeps
derivation counts instead and maintains both signs by counting
(:class:`~repro.datalog.units.CountedRows`), so the engine and the
served round still answer "how is a delete maintained" differently.
Row ``seminaive_evaluate`` is the oracle the engine is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterator

from .ast import Program, Rule
from .columnar import (
    ColumnarRelation,
    InternPool,
    RulePlan,
    compile_rule_plan,
    run_rule_plan,
)
from .database import Database, Relation
from .depgraph import DependencyGraph
from .seminaive import evaluate_stratum, seminaive_evaluate
from .zset import ZSetDelta, apply_zdelta, effective_zdelta

__all__ = [
    "Delta",
    "MaintenanceTrace",
    "IncrementalEngine",
    "apply_delta",
    "merge_deltas",
    "ZSetDelta",
    "apply_zdelta",
    "effective_zdelta",
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


@dataclass
class MaintenanceTrace:
    """Which maintenance steps actually changed facts.

    ``events`` is a list of ``(phase, stratum_idx, iteration, rule_idx,
    n_changed)`` with phase ∈ {"bf_candidates", "bf_delete", "insert",
    "recompute"}.
    """

    events: list[tuple[str, int, int, int, int]] = field(default_factory=list)
    #: net fact changes over the whole update, EDB and derived
    net: ZSetDelta = field(default_factory=ZSetDelta)

    def record(
        self, phase: str, stratum: int, iteration: int, rule: int, n: int
    ) -> None:
        """Log one maintenance step that changed ``n`` facts."""
        if n:
            self.events.append((phase, stratum, iteration, rule, n))

    def total_changed(self) -> int:
        """Total fact derivations touched across all steps."""
        return sum(e[4] for e in self.events)


@dataclass(frozen=True)
class _Stratum:
    """One stratum as the maintenance steps read it."""

    index: int
    rules: list[tuple[int, Rule]]
    recursive: set[str]
    #: program facts stated for the heads, re-seeded by a recompute
    facts: list[Rule]
    #: every predicate a rule body mentions, and those it mentions
    #: under negation or in an aggregate rule — neither has a delta
    #: form here, so a change to one recomputes the stratum
    reads: frozenset[str]
    sensitive: frozenset[str]
    #: proper-rule index → body evaluation order (the analyzer's hints)
    orders: dict[int, tuple[int, ...]]
    #: (rule index, Δ-position) → its compiled plan, from its first use
    plans: dict[tuple[int, int | None], RulePlan]

    @classmethod
    def of(
        cls,
        index: int,
        rules: list[tuple[int, Rule]],
        recursive: set[str],
        facts: list[Rule],
        orders: dict[int, tuple[int, ...]],
    ) -> "_Stratum":
        """The stratum of ``rules``, its read sets taken off their bodies."""
        atoms = [
            (lit.atom.predicate, lit.negated or r.has_aggregate)
            for _, r in rules
            for lit in r.body
            if lit.atom is not None
        ]
        return cls(
            index, rules, recursive, facts,
            frozenset(p for p, _ in atoms),
            frozenset(p for p, sensitive in atoms if sensitive),
            orders,
            {},
        )


# The per-stratum steps read the stratum, a database, the pool of its
# mirrors and id-row Δs — nothing of an engine.
def _mirror(db: Database, pool: InternPool, pred: str) -> ColumnarRelation:
    rel = db.relations[pred]
    return rel if isinstance(rel, ColumnarRelation) else rel.columnar(pool)


def _deltas(
    st: _Stratum, view: Database, pool: InternPool, wave: dict[str, set]
) -> dict[str, ColumnarRelation]:
    """A wave's id-rows as Δ relations of the predicates the stratum
    reads, wrapped as they are: no intern, no build."""
    return {
        p: _mirror(view, pool, p).wrap(rows)
        for p, rows in wave.items()
        if rows and p in st.reads
    }


def _joins(
    st: _Stratum, ri: int, rule: Rule, view: Database, pool: InternPool,
    deltas: dict | None,
) -> Iterator[set]:
    """The id-rows ``rule`` derives over ``view``: its whole plan, once,
    when ``deltas`` is None; else one compiled Δ-plan per positive body
    occurrence of a predicate in ``deltas``, that occurrence restricted
    to its Δ."""
    occurrences = [None] if deltas is None else [
        pos
        for pos, lit in enumerate(rule.body)
        if lit.atom and not lit.negated and lit.atom.predicate in deltas
    ]
    for pos in occurrences:
        plan = st.plans.get((ri, pos))
        if plan is None:
            plan = st.plans[ri, pos] = compile_rule_plan(
                rule, st.orders.get(ri), pos
            )
        yield run_rule_plan(plan, view, pool, deltas)


def _propagate(
    st: _Stratum, rules, view: Database, pool: InternPool,
    deltas: dict | None, take,
    trace: MaintenanceTrace | None = None, phase: str = "",
) -> None:
    """The semi-naive wave loop the three passes share.

    A wave runs ``rules``' joins over ``view`` (whole plans for
    ``deltas=None``, Δ-plans after) and hands each join's id-rows to
    ``take(head, produced)``; the rows it returns — what the pass
    accepted as new — are the next wave's Δ, until a wave adds none.
    """
    iteration = 0
    while deltas is None or deltas:
        wave: dict[str, set] = {}
        for ri, rule in rules:
            head = rule.head.predicate
            n_taken = 0
            for produced in _joins(st, ri, rule, view, pool, deltas):
                new = take(head, produced)
                if new:
                    wave.setdefault(head, set()).update(new)
                    n_taken += len(new)
            if trace is not None:
                trace.record(phase, st.index, iteration, ri, n_taken)
        deltas = _deltas(st, view, pool, wave)
        iteration += 1


def _insert_stratum(
    st: _Stratum, db: Database, pool: InternPool, born: dict[str, set],
    shared: Collection[str], trace: MaintenanceTrace | None,
) -> dict[str, set]:
    """Continue a positive stratum's fixpoint from Δ⁺.

    ``db``'s heads hold the fixpoint of ``st.rules`` over what the
    stratum read *before* the id-rows ``born`` (predicate → rows) came:
    rows of a predicate the stratum reads from below are in ``db``
    already, rows of one of its own heads — its entry relation grew —
    are added here; no predicate of ``born`` may be in ``st.sensitive``.
    The Δ-plans of every occurrence of a grown predicate run first, then
    ordinary semi-naive waves from what those added — semi-naive
    continuation is the derivative of the fixpoint for a monotone change
    ("Fixing Incremental Computation", PAPERS.md). A head grows in
    place, unless it is one of ``shared`` — its relation in ``db`` is
    someone else's too (a committed node value): the first rows it gains
    go to a clone of its mirror, rows and indexes, that takes its place
    in ``db``, and a shared head that gains nothing is only read.
    Returns the rows each head gained. The one insert continuation: step
    (4) of :meth:`IncrementalEngine.apply` and the body of a served
    fixpoint node whose inputs only grew (:mod:`repro.datalog.units`).
    """
    added: dict[str, set] = {}

    def take(head: str, produced: set) -> set:
        rel = db.relations[head]
        mirror = _mirror(db, pool, head)
        fresh = produced - mirror.rows
        if fresh:
            if head in shared and head not in added:
                mirror = mirror.clone()
                rel = db.relations[head] = Relation(rel.name, rel.arity)
            mirror.extend(fresh)
            rel.adopt(mirror)
            added.setdefault(head, set()).update(fresh)
        return fresh

    heads = {rule.head.predicate for _, rule in st.rules}
    seed = {
        p: take(p, rows) if p in heads else rows for p, rows in born.items()
    }
    _propagate(
        st, st.rules, db, pool, _deltas(st, db, pool, seed), take,
        trace, "insert",
    )
    return added


class IncrementalEngine:
    """Maintains one materialized program instance across updates."""

    def __init__(self, program: Program, edb: Database | None = None) -> None:
        self.program = program
        self.depgraph = DependencyGraph(program)
        self.strata = self.depgraph.stratify()
        #: the one id space of the relations' mirrors, the Δs and views
        self.pool = InternPool()
        #: what :meth:`apply` refuses, and checks a fact's length against
        self._derived = program.idb_predicates()
        self._arity = program.arities()
        recursive = self.depgraph.recursive_predicates()
        self._steps: list[_Stratum] = []
        for si, stratum in enumerate(self.strata):
            rules = [
                (ri, r)
                for ri, r in enumerate(program.proper_rules)
                if r.head.predicate in stratum
            ]
            if not rules:
                continue
            self._steps.append(_Stratum.of(
                si, rules, recursive.intersection(stratum),
                [f for f in program.facts if f.head.predicate in stratum],
                {},
            ))
        self.db, _ = seminaive_evaluate(program, edb, pool=self.pool)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, set[tuple]]:
        """Current materialized facts (for oracle comparisons)."""
        return self.db.as_dict()

    def apply(self, delta: "Delta | ZSetDelta") -> MaintenanceTrace:
        """Apply an EDB update incrementally; returns the step trace.

        A :class:`Delta` is clamped against the live EDB into exact
        weights (:func:`effective_zdelta`); a :class:`ZSetDelta` is
        taken as those exact weights already. An update that names a
        derived predicate or a fact of the wrong length raises
        ``ValueError`` before anything is written.
        """
        self._check_update(delta)
        zdelta = (
            delta
            if isinstance(delta, ZSetDelta)
            else effective_zdelta(self.db, delta)
        )
        trace = MaintenanceTrace(net=zdelta.copy())
        if zdelta.is_empty:
            return trace
        # Net change accumulator of the strata: a Z-set over *id-rows*,
        # seeded with the EDB update. Weights stay in {-1, 0, +1}: every
        # record below is a row leaving a mirror or entering one anew.
        net = ZSetDelta()
        for pred, facts in zdelta.weights.items():
            zdelta.apply_to(self.db.relation(pred, len(next(iter(facts)))))
            for fact, w in facts.items():
                net.add(pred, self.pool.intern_fact(pred, fact), w)
        for st in self._steps:
            if any(map(net.touches, st.sensitive)):
                self._recompute_stratum(st, net, trace)
            elif any(map(net.touches, st.reads)):
                self._delete_stratum(st, net, trace)
                for head, rows in _insert_stratum(
                    st, self.db, self.pool, net.positive(), (), trace
                ).items():
                    for row in rows:
                        net.add(head, row, 1)
        # only the derived rows that changed leave id space
        for pred, rows in net.weights.items():
            if pred not in zdelta.weights:
                trace.net.weights[pred] = dict(
                    zip(self.pool.extern_rows(rows), rows.values())
                )
        return trace

    def _check_update(self, delta: "Delta | ZSetDelta") -> None:
        """Raise ``ValueError`` for an update no stratum could maintain:
        one on a derived predicate, or holding a fact whose length is
        not the predicate's arity — the program's, else the held
        relation's, else (nobody knows the predicate) that of the
        update's own first fact."""
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
                if pred in self._derived:
                    raise ValueError(
                        f"cannot update derived predicate {pred!r}; updates "
                        "target EDB predicates only"
                    )
                arity = self._arity.get(pred)
                if arity is None:
                    held = self.db.relations.get(pred)
                    arity = (
                        held.arity if held is not None
                        else fresh.setdefault(pred, len(next(iter(facts))))
                    )
                for fact in facts:
                    if len(fact) != arity:
                        raise ValueError(
                            f"{pred}: tuple {fact!r} has arity "
                            f"{len(fact)}, expected {arity}"
                        )

    # ------------------------------------------------------------------
    def _mirror(self, pred: str) -> ColumnarRelation:
        return _mirror(self.db, self.pool, pred)

    # Backward/Forward deletion + semi-naive insertion for a positive
    # stratum
    def _delete_stratum(self, st: _Stratum, net: ZSetDelta, trace) -> None:
        candidates = self._collect_candidates(st, net, trace)
        if not candidates:
            return
        supported = self._verify_candidates(st, candidates)
        # the one-shot delete has no per-rule attribution: record the
        # whole batch under rule index -1
        n_deleted = 0
        for pred, rows in candidates.items():
            dead = rows - supported[pred]
            mirror = self._mirror(pred)
            for row in dead:
                mirror.discard_row(row)
                net.add(pred, row, -1)
            if dead:
                # the mirror changed behind the relation's back: adopt
                # it again, or a value face read earlier goes stale
                self.db.relations[pred].adopt(mirror)
            n_deleted += len(dead)
        trace.record("bf_delete", st.index, 0, -1, n_deleted)

    def _old_view(self, st: _Stratum, gone: dict[str, set]) -> Database:
        """The pre-deletion database view: current facts plus ``gone``,
        all deleted so far this update (candidate joins must see them)."""
        relations: dict = dict(self.db.relations)
        for pred, rows in gone.items():
            if pred in st.reads:
                relations[pred] = self._mirror(pred).clone()
                relations[pred].extend(rows)
        return Database(relations)

    def _collect_candidates(
        self, st: _Stratum, net: ZSetDelta, trace
    ) -> dict[str, set[tuple]]:
        """Forward pass: facts with ≥1 derivation through a deletion.

        Joins run against the pre-deletion view (current database plus
        lower-strata/EDB retractions, which seed the first wave), but
        nothing is removed — victims only accumulate as candidates and
        feed the next wave.
        """
        gone = net.negative()
        candidates: dict[str, set[tuple]] = {
            r.head.predicate: set() for _, r in st.rules
        }

        def take(head: str, produced: set) -> set:
            found = (produced & self._mirror(head).rows) - candidates[head]
            candidates[head] |= found
            return found

        view = self._old_view(st, gone)
        _propagate(
            st, st.rules, view, self.pool,
            _deltas(st, view, self.pool, gone), take, trace, "bf_candidates",
        )
        return {p: s for p, s in candidates.items() if s}

    def _verify_candidates(
        self, st: _Stratum, candidates: dict[str, set[tuple]]
    ) -> dict[str, set[tuple]]:
        """Backward pass: candidates with an alternative derivation.

        A candidate is *supported* iff some rule derives it from facts
        that are either non-candidates (they survive unconditionally —
        the database still holds them and deletions from lower strata
        are already applied) or candidates already proven supported.
        Computed as a least fixpoint over a masked view, so circular
        support among candidates does not count: whole rule plans over
        the view first, then Δ-plans from the rows just proven.
        """
        masked: dict = dict(self.db.relations)
        for pred, rows in candidates.items():
            mirror = self._mirror(pred)
            masked[pred] = mirror.wrap(mirror.rows - rows)
        supported: dict[str, set[tuple]] = {p: set() for p in candidates}

        def take(head: str, produced: set) -> set:
            proven = (produced & candidates[head]) - supported[head]
            supported[head] |= proven
            masked[head].extend(proven)
            return proven

        rules = [r for r in st.rules if r[1].head.predicate in candidates]
        _propagate(st, rules, Database(masked), self.pool, None, take)
        return supported

    # recompute-and-diff for a negation- or aggregate-affected stratum
    def _recompute_stratum(self, st: _Stratum, net: ZSetDelta, trace) -> None:
        heads = {r.head.predicate for _, r in st.rules}
        old = {p: self.db.relations[p] for p in heads}
        for p, rel in old.items():
            # IDB predicates hold derived facts only; program facts for
            # them are re-seeded below
            self.db.relations[p] = Relation(p, rel.arity)
        for fact in st.facts:
            self.db.add_fact(
                fact.head.predicate,
                tuple(t.value for t in fact.head.terms),  # type: ignore[union-attr]
            )
        # the evaluator's own semi-naive loop; like the one-shot delete
        # it has no per-rule attribution (rule index -1)
        evaluate_stratum(st.rules, st.recursive, self.db, self.pool)
        n_derived = 0
        for p, rel in old.items():
            before, after = rel.columnar(self.pool).rows, self._mirror(p).rows
            n_derived += len(after)
            for row in after - before:
                net.add(p, row, 1)
            for row in before - after:
                net.add(p, row, -1)
        trace.record("recompute", st.index, 0, -1, n_derived)
