"""Round-over-round plan caching for the serving hot path.

The maintenance loop in :mod:`repro.runtime.service` is a sequence of
rounds over one program: round ``N+1``'s *old* materialization is
exactly round ``N``'s *new* one. Cold compilation ignores this and
pays two from-scratch semi-naive evaluations plus a full
:class:`~repro.datalog.units.ExecutionPlan` rebuild per round. This
module caches everything that survives a round:

* :class:`CompiledProgramCache` — the front door. ``compile()``
  reuses the committed previous round's new side (database, evaluation
  trace, cumulative predicate states) as this round's old side,
  skipping one of the two evaluations, and stamps the round onto the
  cached :class:`~repro.datalog.compiler.RoundStructure` (``Dag``,
  levels, node keys) when one with the same structure key exists,
  instead of walking every rule body into a new DAG; ``plan()`` patches
  that structure's bound plan in place, instead of rebuilding closures
  and wiring — and with the plan comes the scheduler memo holding the
  interval lists of that DAG; ``commit()`` promotes the staged round
  after the service has verified it.
* :class:`RelationIndexCache` — a value-addressed store of
  :class:`~repro.datalog.database.Relation` objects keyed by
  ``(predicate, fact set)``. Joins build hash indexes lazily on these
  relations; because the same value is served for the same fact set,
  the indexes built in round ``N`` are probed again in round ``N+1``,
  and a changed relation's successor is *derived* from its predecessor
  (clone indexes once, apply the delta incrementally) rather than
  re-indexed from scratch.

Consistency model
-----------------
Cache entries are immutable by convention once published: the only
mutation a published relation sees is lazy index growth, which is
idempotent and invisible to readers. ``compile()`` stages its results;
nothing the staged round produced becomes the committed baseline until
``commit()``. A failed round therefore needs no undo — the service
simply never commits it, calls :meth:`CompiledProgramCache.rollback`,
and the retry recompiles from the untouched committed state,
deterministically reproducing the same staged round.

Invalidation
------------
The cache is keyed to one program (by structural fingerprint) and one
EDB schema (predicate → arity). A rule-set edit or a schema change
flushes skeletons, plans, relations, and the committed baseline, and
bumps the ``invalidations`` counter; the next round compiles cold.

All hit/miss/invalidation counters are exported through
:class:`repro.obs.metrics.MetricsRegistry` and annotated onto the
current tracing span when a :class:`repro.obs.trace.TraceSink` is
active.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_SINK, TraceSink
from .ast import Program
from .columnar import InternPool
from .compiler import (
    CompiledUpdate,
    RoundStructure,
    _cumulative_states,
    _usable_analysis,
    build_round_structure,
    prepare_update,
    stamp_update,
    structure_key,
    without_rules,
)
from .database import Database, Relation
from .incremental import Delta
from .seminaive import EvaluationTrace, seminaive_evaluate
from .units import ExecutionPlan, PlanSkeleton
from .zset import ZSetDelta

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..verify.program import ProgramAnalysis

__all__ = ["CompiledProgramCache", "RelationIndexCache"]


class RelationIndexCache:
    """Value-addressed, LRU-bounded store of indexed relations.

    Keyed by ``(predicate, frozenset-of-facts)``, so a lookup for a
    fact set that was served before returns the *same* relation object
    — with whatever hash indexes joins have lazily built on it since.
    ``get(..., derive_from=...)`` turns a changed relation into its
    successor by cloning the predecessor's indexes and applying the
    delta through :meth:`Relation.add`/:meth:`Relation.discard`, which
    maintain every index in O(|delta|).

    Each cached relation also carries its interned columnar mirror:
    derivation clones the mirror (rows and columnar indexes) along with
    the row indexes, and the weighted
    ``delta_ops`` maintain both through :meth:`Relation.add`/
    :meth:`Relation.discard` — so the batch joins of round ``N+1``
    probe the columnar indexes round ``N`` built, updated in
    O(|delta|).

    Published relations must never be mutated by callers (lazy index
    growth excepted); a miss builds or derives a private relation
    *outside* the cache lock and publishes it under the lock — when two
    lanes miss on one value at once, the first to publish wins and the
    other adopts its object, so every caller sees one relation per
    value and the counters stay exact. Because entries are
    immutable, a failed round cannot corrupt the store — entries staged
    for it are simply superfluous and age out of the LRU.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple[str, frozenset], Relation] = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.derives = 0
        self.weighted_derives = 0
        self.builds = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self,
        pred: str,
        arity: int,
        facts: frozenset,
        derive_from: frozenset | None = None,
        delta_ops: "tuple[tuple[tuple, int], ...] | None" = None,
    ) -> Relation:
        """The cached relation holding exactly ``facts`` for ``pred``.

        ``derive_from`` names the fact set this value evolved from; if
        that predecessor is cached, the result inherits its indexes
        incrementally instead of starting unindexed. ``delta_ops`` is
        the exact weighted update from ``derive_from`` to ``facts`` as
        ``(fact, weight)`` pairs; when supplied, derivation applies
        those ops directly — O(|delta|) instead of the O(|relation|)
        two-sided set diff — so a round whose insert/retract pairs
        cancelled upstream pays for exactly the operations that
        survived.
        """
        key = (pred, facts)
        with self._lock:
            rel = self._entries.get(key)
            if rel is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return rel
            base = None
            if derive_from is not None and derive_from != facts:
                base = self._entries.get((pred, derive_from))

        # build or derive outside the lock: an O(|relation|) loop here
        # must not stall another lane's hit. ``base`` is published,
        # hence immutable but for lazy index growth, which
        # ``copy_indexed`` snapshots.
        if base is not None:
            rel = base.copy_indexed()
            if delta_ops is not None:
                for t, w in delta_ops:
                    if w > 0:
                        rel.add(t)
                    else:
                        rel.discard(t)
            else:
                for t in derive_from - facts:  # type: ignore[operator]
                    rel.discard(t)
                for t in facts - derive_from:  # type: ignore[operator]
                    rel.add(t)
        else:
            rel = Relation(pred, arity)
            for t in facts:
                rel.add(t)

        with self._lock:
            first = self._entries.get(key)
            if first is not None:
                # another lane published this value while we built it:
                # first writer wins, ours is dropped uncounted
                self._entries.move_to_end(key)
                self.hits += 1
                return first
            if base is not None:
                self.derives += 1
                if delta_ops is not None:
                    self.weighted_derives += 1
            else:
                self.builds += 1
            self._entries[key] = rel
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
            return rel

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "derives": self.derives,
            "weighted_derives": self.weighted_derives,
            "builds": self.builds,
            "evictions": self.evictions,
        }


@dataclass
class _Side:
    """One committed (or staged) side of a round."""

    edb: Database
    db: Database
    ev: EvaluationTrace
    states: dict[tuple, frozenset]
    #: rule indices the static analyzer pruned for this side — the
    #: baseline is only reusable by a round pruning the same set
    pruned: frozenset[int] = field(default_factory=frozenset)


@dataclass
class _RoundSkeleton:
    """What every round with one DAG structure shares.

    ``plan`` is bound on the first :meth:`CompiledProgramCache.plan` for
    the structure and restamped afterwards; it carries its
    :class:`PlanSkeleton` (``plan.skeleton``) and the scheduler memo
    (``plan.sched_memo``), so evicting the entry drops all four together.
    """

    structure: RoundStructure
    plan: ExecutionPlan | None = None


def _edb_schema(edb: Database) -> frozenset:
    return frozenset((p, rel.arity) for p, rel in edb.relations.items())


def _edb_equal(a: Database, b: Database) -> bool:
    if a is b:
        return True
    if a.relations.keys() != b.relations.keys():
        return False
    return all(
        set(rel) == set(b.relations[p]) for p, rel in a.relations.items()
    )


class CompiledProgramCache:
    """Compile-once, patch-per-round cache over one rule program.

    The service's per-round protocol::

        cu = cache.compile(program, edb_old, delta)   # stage
        plan = cache.plan(cu)                         # patch or bind
        ...execute + verify...
        cache.commit(cu)     # success: staged side becomes baseline
        cache.rollback()     # failure: staged side is discarded

    ``compile`` reuses the committed baseline as the old side when
    ``edb_old`` matches it (a *hit* — one semi-naive evaluation saved);
    otherwise it evaluates both sides cold (a *miss*). Either way the
    round is stamped onto the cached skeleton of its structure — keyed
    by program fingerprint and :func:`~repro.datalog.compiler
    .structure_key`, known before any rule body is walked — and only a
    structure not seen before (or evicted) builds a new ``Dag``. ``plan``
    re-stamps that skeleton's bound plan in place; task join inputs are
    served from the shared :class:`RelationIndexCache` so their hash
    indexes survive across rounds.

    A program whose structural fingerprint differs from the cached one,
    or an ``edb_old`` whose schema (predicate → arity) differs from the
    committed baseline's, invalidates everything.
    """

    def __init__(
        self,
        program: Program,
        metrics: MetricsRegistry | None = None,
        sink: TraceSink = NULL_SINK,
        max_plans: int = 8,
        relation_cache_size: int = 256,
        analysis: "ProgramAnalysis | None" = None,
    ) -> None:
        #: shared intern pool; survives invalidation — interned values
        #: stay valid across program edits, only the relations keyed on
        #: them are dropped
        self.pool = InternPool()
        self._program = program
        self._fingerprint = repr(program)
        self._analysis = _usable_analysis(program, analysis)
        #: pruned-rule set → the program actually evaluated; memoized so
        #: steady-state pruned rounds reuse one Program object (and its
        #: cached predicate sets / stratification downstream)
        self._run_programs: dict[frozenset, Program] = {
            frozenset(): program
        }
        self._schema: frozenset | None = None
        self._metrics = metrics
        self._sink = sink
        self._max_plans = max_plans
        self.relations = RelationIndexCache(relation_cache_size)
        #: (program fingerprint, structure key) → skeleton, LRU
        self._skeletons: OrderedDict[tuple, _RoundSkeleton] = OrderedDict()
        self._prev: _Side | None = None
        self._staged: _Side | None = None
        self._staged_cu_id: int | None = None
        self._staged_states_old: dict[tuple, frozenset] | None = None
        self._staged_zdelta: ZSetDelta | None = None
        self._staged_skeleton: _RoundSkeleton | None = None
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: rounds whose structure was not cached: a ``Dag`` was built
        self.structure_builds = 0
        self.plan_patches = 0
        self.plan_binds = 0
        self.rollbacks = 0
        #: submitted delta operations that cancelled against the EDB
        #: (insert-of-present, delete-of-absent, coalesced pairs) and
        #: therefore skipped all downstream compile/index work
        self.cancelled_ops = 0

    # ------------------------------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        if self._metrics is not None:
            self._metrics.counter(f"plancache.{name}").inc(n)
        if self._sink.enabled:
            self._sink.add_to_current(f"plancache.{name}", n)

    def _clear_staged(self) -> None:
        self._staged = None
        self._staged_cu_id = None
        self._staged_states_old = None
        self._staged_zdelta = None
        self._staged_skeleton = None

    def _invalidate(self) -> None:
        self._skeletons.clear()
        self.relations.clear()
        self._prev = None
        self._clear_staged()
        self._run_programs = {frozenset(): self._program}
        self.invalidations += 1
        self._count("invalidations")

    def _check_validity(self, program: Program, edb_old: Database) -> None:
        if program is not self._program:
            fingerprint = repr(program)
            if fingerprint != self._fingerprint:
                self._invalidate()
                self._fingerprint = fingerprint
                self._schema = None
                # the analysis was computed for the old rule set
                self._analysis = None
                self._run_programs = {frozenset(): program}
            self._program = program
        schema = _edb_schema(edb_old)
        if self._schema is not None and schema != self._schema:
            self._invalidate()
        self._schema = schema

    def _shared_relations(
        self,
        edb_new: Database,
        edb_old: Database,
        zdelta: ZSetDelta | None = None,
    ) -> dict[str, Relation]:
        """Indexed join inputs for the new side's evaluation.

        Only predicates the evaluation never writes — EDB predicates
        that are not fact-rule heads — may be substituted (see
        :func:`~repro.datalog.seminaive.seminaive_evaluate`). With
        ``zdelta`` (the effective ``edb_old → edb_new`` update), changed
        relations derive from their predecessors by applying exactly the
        surviving weighted ops.
        """
        writable = {r.head.predicate for r in self._program.rules}
        shared: dict[str, Relation] = {}
        for pred, rel in edb_new.relations.items():
            if pred in writable:
                continue
            facts = frozenset(rel)
            old_rel = edb_old.relations.get(pred)
            derive_from = (
                frozenset(old_rel) if old_rel is not None else None
            )
            ops = (
                tuple(zdelta.ops_for(pred))
                if zdelta is not None and zdelta.touches(pred)
                else None
            )
            shared[pred] = self.relations.get(
                pred, rel.arity, facts, derive_from=derive_from,
                delta_ops=ops,
            )
        return shared

    # ------------------------------------------------------------------
    def compile(
        self,
        program: Program,
        edb_old: Database,
        delta: Delta,
        work_per_derivation: float = 1e-3,
        name: str = "datalog-update",
    ) -> CompiledUpdate:
        """Compile one round, reusing the committed baseline when valid.

        Drop-in for :func:`repro.datalog.compiler.compile_update`; the
        result is *staged* — call :meth:`commit` once the round is
        verified, or :meth:`rollback` if it failed.
        """
        self._check_validity(program, edb_old)
        zdelta, edb_old, edb_new, dead = prepare_update(
            self._program, edb_old, delta, self._analysis
        )
        # redundant and mutually-cancelling ops vanished in the clamp:
        # they never reach evaluation, index derivation, pruning, or the
        # plan signature
        submitted = sum(
            len(s) for s in delta.insertions.values()
        ) + sum(len(s) for s in delta.deletions.values())
        cancelled = submitted - zdelta.op_count()
        if cancelled:
            self.cancelled_ops += cancelled
            self._count("cancelled_ops", cancelled)
        run_program = self._run_programs.get(dead)
        if run_program is None:
            run_program = self._run_programs[dead] = without_rules(
                self._program, dead
            )

        prev = self._prev
        if (
            prev is not None
            and prev.pruned == dead
            and _edb_equal(prev.edb, edb_old)
        ):
            self.hits += 1
            self._count("hits")
            db_old, ev_old, states_old = prev.db, prev.ev, prev.states
            edb_old = prev.edb
        else:
            self.misses += 1
            self._count("misses")
            db_old, ev_old = seminaive_evaluate(
                run_program,
                edb_old,
                record=True,
                shared_relations=self._shared_relations(edb_old, edb_old),
                pool=self.pool,
            )
            states_old = _cumulative_states(run_program, ev_old, edb_old)

        db_new, ev_new = seminaive_evaluate(
            run_program,
            edb_new,
            record=True,
            shared_relations=self._shared_relations(
                edb_new, edb_old, zdelta
            ),
            pool=self.pool,
        )
        states_new = _cumulative_states(run_program, ev_new, edb_new)

        entry = self._skeleton_for(run_program, ev_old, ev_new)
        cu = stamp_update(
            entry.structure,
            edb_old,
            edb_new,
            db_old,
            db_new,
            ev_old,
            ev_new,
            touched=zdelta.touched_predicates(),
            work_per_derivation=work_per_derivation,
            name=name,
            states_old=states_old,
            states_new=states_new,
        )
        self._staged = _Side(edb_new, db_new, ev_new, states_new, dead)
        self._staged_cu_id = id(cu)
        self._staged_states_old = states_old
        self._staged_zdelta = zdelta
        self._staged_skeleton = entry
        return cu

    def _skeleton_for(
        self,
        program: Program,
        ev_old: EvaluationTrace,
        ev_new: EvaluationTrace,
        structure: RoundStructure | None = None,
    ) -> _RoundSkeleton:
        """The cached skeleton of a round's structure, built on a miss.

        ``structure`` is the one a compile outside this cache already
        built for the round; it is adopted on a miss instead of
        building another.
        """
        # the fingerprint keeps differently pruned programs apart:
        # their iteration counts can coincide while their rules differ
        fp = (
            self._fingerprint
            if program is self._program
            else repr(program)
        )
        n_iters = structure_key(ev_old, ev_new)
        key = (fp, n_iters)
        entry = self._skeletons.get(key)
        if entry is not None:
            self._skeletons.move_to_end(key)
            return entry
        if structure is None:
            structure = build_round_structure(program, n_iters)
            self.structure_builds += 1
            self._count("structure_builds")
        entry = self._skeletons[key] = _RoundSkeleton(structure)
        while len(self._skeletons) > self._max_plans:
            self._skeletons.popitem(last=False)
        return entry

    def plan(self, cu: CompiledUpdate) -> ExecutionPlan:
        """A bound plan for ``cu`` — patched in place when possible.

        The returned plan is owned by the cache and re-stamped on the
        next call; execute it before compiling the next round.
        """
        staged = self._staged_cu_id == id(cu)
        states_old = self._staged_states_old if staged else None
        zdelta = self._staged_zdelta if staged else None
        entry = self._staged_skeleton if staged else None
        if entry is None:
            entry = self._skeleton_for(
                cu.program, cu.eval_old, cu.eval_new, cu.structure
            )
        plan = entry.plan
        if plan is not None:
            assert plan.skeleton is not None
            plan.skeleton.patch(plan, cu, states_old, zdelta=zdelta)
            self.plan_patches += 1
            self._count("plan_patches")
            return plan
        join_orders = (
            self._analysis.join_orders_for(cu.program)
            if self._analysis is not None
            else None
        )
        skeleton = PlanSkeleton(cu, join_orders=join_orders, pool=self.pool)
        plan = entry.plan = skeleton.bind(
            cu, states_old, relation_factory=self.relations.get
        )
        self.plan_binds += 1
        self._count("plan_binds")
        return plan

    def commit(self, cu: CompiledUpdate) -> None:
        """Promote ``cu``'s staged new side to the committed baseline.

        Call only after the round has been verified; the baseline is
        what the *next* round's ``compile`` will reuse as its old side.
        """
        if self._staged is None or self._staged_cu_id != id(cu):
            raise ValueError(
                "commit does not match the staged compile "
                "(compile the round with this cache first)"
            )
        self._prev = self._staged
        self._schema = _edb_schema(self._staged.edb)
        self._clear_staged()

    def rollback(self) -> None:
        """Discard the staged round (failed execution/verification).

        The committed baseline is untouched, so a retry recompiles the
        round deterministically from the same state; relations staged
        for the failed round are value-addressed and simply age out.
        """
        if self._staged is not None:
            self.rollbacks += 1
            self._count("rollbacks")
        self._clear_staged()

    def stats(self) -> dict:
        """Counter snapshot (also exported via the metrics registry)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "structure_builds": self.structure_builds,
            "plan_patches": self.plan_patches,
            "plan_binds": self.plan_binds,
            "rollbacks": self.rollbacks,
            "cancelled_ops": self.cancelled_ops,
            "relations": self.relations.stats(),
            "pool": self.pool.stats(),
        }
