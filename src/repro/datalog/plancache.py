"""Round-over-round caching for the serving hot path: ``G`` is static.

The maintenance loop in :mod:`repro.runtime.service` is a sequence of
rounds over one program: round ``N+1`` starts from exactly what round
``N`` left. The paper schedules a *static* DAG ``G`` and lets execution
reveal the active graph ``H`` — a node runs, emits its Z-set, an empty
one stops the cascade. :class:`CompiledProgramCache` serves
rounds that way:

* ``G`` is built **once per program**: EDB sources, the task and
  predicate nodes of every non-recursive stratum, one fixpoint node per
  recursive SCC (:func:`~repro.datalog.compiler.build_round_structure`),
  and with it
  the one bound :class:`~repro.datalog.units.ExecutionPlan`; the
  schedulers' levels and interval lists are kept on that ``Dag``. A
  fixpoint that runs deeper or shallower on today's EDB is the same node.
* ``compile()`` evaluates nothing. On a *hit* — ``edb_old`` is the
  committed baseline — it derives the touched EDB relations from their
  predecessors (:func:`~repro.datalog.zset.derive_zdelta`: row sets
  taken over, index buckets lent, the weighted ops applied; the
  predecessor reads on as its successor minus the delta) and carries
  every other relation by identity, so the round costs what the delta
  touches;
  the touched EDB nodes are the initial tasks and the old node values
  are the committed previous round's. A *miss* (first round, an
  out-of-band EDB) is the same plan with no old values and every source
  of ``G`` initial: all of ``G`` runs.
* ``plan()`` restamps the bound plan in place, with the staged round
  and — when there are node values to diff against — those committed
  values and the round's clamped delta. A fixpoint node whose inputs
  only grew continues the committed fixpoint from them; without them
  (miss, commit without values) it recomputes. On a hit an SCC head's
  entry relation is the committed one, by identity: updates to derived
  predicates are refused, so no round touches it.
  ``commit()`` promotes the staged round — its EDB and, when the
  caller hands over the executed round's value store, its node values —
  after the service has verified it; ``evaluate()`` is the check the
  service verifies against, an independent from-scratch evaluation of
  the round's new EDB.

Consistency model
-----------------
Relations are immutable by convention once a node or a baseline holds
them: the only mutation they see is lazy index growth, which is
idempotent and invisible to readers — a fixpoint node that continues
from a committed value grows clones of its mirrors, never the value.
That is also what makes lending sound: a successor or a clone shares
every index bucket it has not written with the relation it came from,
which nobody writes again. An EDB successor also holds its
predecessor's row sets, so the committed generation's facts are read
off the staged one (:meth:`~repro.datalog.database.Relation.successor`);
a rollback leaves that generation reading them off a successor nobody
writes again, and the retry derives anew from it.
``compile()`` stages its results; nothing the staged round produced
becomes the committed baseline until ``commit()``. A failed round therefore needs no undo — the service
simply never commits it, calls :meth:`CompiledProgramCache.rollback`,
and the retry recompiles from the untouched committed state,
deterministically reproducing the same staged round. A ``commit``
without a completed value store keeps the EDB baseline (the next
compile is still a hit) and drops the value baseline (the next plan
runs all of ``G``): stale node values are never promoted.

Invalidation
------------
The cache is keyed to one program and one EDB schema (predicate →
arity). A :class:`~repro.datalog.ast.Program` is a frozen value, so
validity is program equality: an equal program (the same rules, however
parsed) is a hit, and the cache keeps the one it holds. A rule-set edit
or a schema change flushes structures, plans and the committed
baseline, and bumps the ``invalidations`` counter; the next round is a
miss.

All hit/miss/invalidation counters are exported through
:class:`repro.obs.metrics.MetricsRegistry` and annotated onto the
current tracing span when a :class:`repro.obs.trace.TraceSink` is
active.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_SINK, TraceSink
from .ast import Program
from .columnar import InternPool
from .compiler import (
    CompiledUpdate,
    RoundStructure,
    build_round_structure,
    prepare_update,
    stage_update,
)
from .database import Database, Relation
from .seminaive import _writes, seminaive_evaluate
from .units import (
    ExecutionPlan,
    ProgramSkeleton,
    ValueStore,
    _entry_relations,
)
from .zset import Delta, ZSetDelta, apply_zdelta, check_edb, derive_zdelta

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..verify.program import ProgramAnalysis

__all__ = ["CompiledProgramCache"]


@dataclass
class _Side:
    """One committed (or staged) round."""

    edb: Database
    #: predicate → its entry relation, program facts ∪ EDB facts; the
    #: EDB's own object wherever the program states no fact for it
    baseline: dict[str, Relation]
    #: what the executed round left in every node of ``G``; ``None``
    #: until committed with a completed value store (while staged: the
    #: committed side's, for the round to diff against and continue
    #: from)
    values: list | None = None
    #: the EDB delta that staged this round, clamped against the
    #: committed EDB — what the EDB nodes emit as their Z-sets
    zdelta: ZSetDelta | None = None


def _edb_schema(edb: Database) -> frozenset:
    return frozenset((p, rel.arity) for p, rel in edb.relations.items())


def _edb_equal(a: Database, b: Database) -> bool:
    if a is b:
        return True
    if a.relations.keys() != b.relations.keys():
        return False
    return all(rel == b.relations[p] for p, rel in a.relations.items())


class CompiledProgramCache:
    """Build ``G`` once, restamp it per round.

    The service's per-round protocol::

        cu = cache.compile(program, edb_old, delta)   # stage
        plan = cache.plan(cu)                         # restamp or bind
        ...execute, verify against cache.evaluate(cu)...
        cache.commit(cu, values)   # success: staged round is baseline
        cache.rollback()           # failure: staged round is discarded

    ``compile`` is a *hit* when ``edb_old`` matches the committed
    baseline: the new EDB is derived from the baseline in the size of
    what the delta touches, and the plan diffs against the committed
    node values. Otherwise it is a *miss*: all of ``G`` runs. Neither
    evaluates anything — see the module docstring.

    A program unequal to the cached one, or an ``edb_old`` whose schema
    (predicate → arity) differs from the committed baseline's,
    invalidates everything.
    """

    def __init__(
        self,
        program: Program,
        metrics: MetricsRegistry | None = None,
        sink: TraceSink = NULL_SINK,
        # accepted and unused: only benchmarks/e2e/layers.py passes it
        analysis: "ProgramAnalysis | None" = None,
    ) -> None:
        #: shared intern pool; survives invalidation — interned values
        #: stay valid across program edits, only the relations keyed on
        #: them are dropped
        self.pool = InternPool()
        self._program = program
        #: the program's ``G`` and its bound plan, built on first use
        self._structure: RoundStructure | None = None
        self._plan: ExecutionPlan | None = None
        self._schema: frozenset | None = None
        self._metrics = metrics
        self._sink = sink
        self._prev: _Side | None = None
        self._staged: _Side | None = None
        self._staged_cu: CompiledUpdate | None = None
        #: what the check keeps of the program from round to round:
        #: its strata's compiled plans and instance tables, and under
        #: ``None`` which aggregate rules share a grouped join
        #: (``seminaive_evaluate(plans=…)``), dropped with the program
        self._check: dict = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: static DAGs built: one per program
        self.structure_builds = 0
        self.plan_patches = 0
        self.plan_binds = 0
        self.rollbacks = 0

    # ------------------------------------------------------------------
    def _count(self, name: str) -> None:
        setattr(self, name, getattr(self, name) + 1)
        if self._metrics is not None:
            self._metrics.counter(f"plancache.{name}").inc()
        if self._sink.enabled:
            self._sink.add_to_current(f"plancache.{name}", 1)

    def _invalidate(self) -> None:
        self._structure = self._plan = None
        self._prev = self._staged = self._staged_cu = None
        self._count("invalidations")

    def _check_validity(self, program: Program, edb_old: Database) -> None:
        if program is not self._program and program != self._program:
            self._invalidate()
            self._program = program
            self._schema = None
            self._check = {}
        schema = _edb_schema(edb_old)
        if self._schema is not None and schema != self._schema:
            self._invalidate()
        self._schema = schema

    # ------------------------------------------------------------------
    def compile(
        self,
        program: Program,
        edb_old: Database,
        delta: "Delta | ZSetDelta",
        work_per_derivation: float = 1e-3,
        name: str = "datalog-update",
    ) -> CompiledUpdate:
        """Stage one round onto the program's static ``G``.

        ``delta`` is a :class:`Delta`, clamped here, or the
        :class:`ZSetDelta` the caller already clamped against
        ``edb_old``. The result is *staged* — call :meth:`commit` once
        the round is verified, or :meth:`rollback` if it failed. Its
        ``db_old`` / ``db_new`` are ``None``: nothing is evaluated.
        """
        self._check_validity(program, edb_old)
        prev = self._prev
        known = prev is not None and _edb_equal(prev.edb, edb_old)
        if not known:
            check_edb(self._program, edb_old)
        zdelta, edb_old, edb_new = prepare_update(
            self._program,
            prev.edb if known else edb_old,
            delta,
            apply=derive_zdelta if known else apply_zdelta,
        )
        if self._structure is None:
            self._structure = build_round_structure(self._program)
            self._count("structure_builds")
        mentioned = self._program.predicates()
        baseline = dict(prev.baseline) if known else {}
        baseline.update(
            _entry_relations(
                self._program,
                zdelta.touched_predicates() & mentioned
                if known
                else mentioned,
                edb_new,
            )
        )

        self._count("hits" if known else "misses")
        # without node values to diff against, all of G runs
        diffable = known and prev.values is not None
        cu = stage_update(
            self._structure,
            edb_old,
            edb_new,
            zdelta.touched_predicates() if diffable else None,
            work_per_derivation=work_per_derivation,
            name=name,
        )
        self._staged = _Side(
            edb_new, baseline, prev.values if diffable else None, zdelta
        )
        self._staged_cu = cu
        return cu

    def _staged_for(self, cu: CompiledUpdate, what: str) -> _Side:
        if self._staged is None or self._staged_cu is not cu:
            raise ValueError(
                f"{what} does not match the staged compile "
                "(compile the round with this cache first)"
            )
        return self._staged

    def plan(self, cu: CompiledUpdate) -> ExecutionPlan:
        """The program's bound plan, restamped for the staged ``cu``.

        The returned plan is owned by the cache and re-stamped on the
        next call; execute it before compiling the next round.
        """
        staged = self._staged_for(cu, "plan")
        if self._plan is None:
            self._plan = ProgramSkeleton(cu.structure, self.pool).bind(cu)
            self._count("plan_binds")
        else:
            self._count("plan_patches")
        ProgramSkeleton.stamp(
            self._plan, cu, staged.baseline, staged.values, staged.zdelta
        )
        return self._plan

    def evaluate(self, cu: CompiledUpdate) -> Database:
        """From-scratch materialization of ``cu``'s new EDB — the check.

        Independent of the plan and of every node value: the whole
        program, every stratum from its entry state, through
        :func:`~repro.datalog.seminaive.seminaive_evaluate`. It shares
        with the round only what no evaluation writes — the EDB's
        relation objects (so their indexes are probed, not rebuilt) and
        the intern pool. From round to round it keeps only what depends
        on the rules alone: each stratum's compiled plans and instance
        table and which aggregate rules share a grouped join, prepared
        by the program's first check and dropped when the program
        changes — no node value, Z-set or relation a round writes, and
        nothing keyed by EDB content: the shared groups live for one
        check.
        """
        return seminaive_evaluate(
            cu.program,
            cu.edb_new,
            shared_relations={
                p: rel
                for p, rel in cu.edb_new.relations.items()
                if not _writes(cu.program, p)
            },
            pool=self.pool,
            # a round staged by this cache is of its program
            plans=self._check if cu.program is self._program else None,
        )[0]

    def commit(
        self, cu: CompiledUpdate, values: ValueStore | None = None
    ) -> None:
        """Promote the staged ``cu`` to the committed baseline.

        Call only after the round has been verified. ``values`` is the
        value store the round's execution filled; its node values (an
        executed node's output, a skipped node's old value) become what
        the next round diffs against. Without it — or if it leaves a
        node without a value — only the EDB baseline is kept: the next
        compile is a hit that runs all of ``G``.
        """
        staged = self._staged_for(cu, "commit")
        staged.values = None
        plan = self._plan
        if values is not None and plan is not None:
            left = [values[node] for node in range(len(plan.units))]
            if all(v is not None for v in left):
                staged.values = left
        self._prev = staged
        self._schema = _edb_schema(staged.edb)
        self._staged = self._staged_cu = None

    def rollback(self) -> None:
        """Discard the staged round (failed execution/verification).

        The committed baseline is untouched, so a retry recompiles the
        round deterministically from the same state.
        """
        if self._staged is not None:
            self._count("rollbacks")
        self._staged = self._staged_cu = None

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
            "pool": self.pool.stats(),
        }
