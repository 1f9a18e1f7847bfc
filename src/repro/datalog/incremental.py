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

The per-stratum steps and the net change are recorded in a
:class:`MaintenanceTrace`. The served round does not call this engine:
the fixpoint nodes of the static DAG (:mod:`repro.datalog.plancache`)
recompute their SCC with the evaluator's own stratum loop — on the
shipped streams that is faster than this procedure — and
:func:`~repro.datalog.seminaive.seminaive_evaluate` is the oracle this
engine is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import Program, Rule
from .database import Database, Relation
from .depgraph import DependencyGraph
from .seminaive import seminaive_evaluate
from .unify import eval_rule, instantiate_head, join_body
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


class IncrementalEngine:
    """Maintains one materialized program instance across updates."""

    def __init__(self, program: Program, edb: Database | None = None) -> None:
        self.program = program
        self.depgraph = DependencyGraph(program)
        self.strata = self.depgraph.stratify()
        self.edb_predicates = program.edb_predicates()
        #: what :meth:`apply` checks a fact's length against
        self._arity = program.arities()
        base = edb.copy() if edb is not None else Database()
        self.db, _ = seminaive_evaluate(program, base)

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
        # Net change accumulator, seeded with the EDB update itself:
        # weights stay in {-1, 0, +1} because every record below is
        # guarded by an actual set transition (``add``/``discard``
        # returning True).
        trace = MaintenanceTrace(net=zdelta.copy())
        if zdelta.is_empty:
            return trace
        net = trace.net
        for pred in zdelta.touched_predicates():
            zdelta.apply_to(self.db.relation(pred, self._arity[pred]))

        for si, stratum in enumerate(self.strata):
            stratum_set = set(stratum)
            rules = [
                (ri, r)
                for ri, r in enumerate(self.program.proper_rules)
                if r.head.predicate in stratum_set
            ]
            if not rules:
                continue
            # aggregation, like negation, has no incremental delta form
            # here: any input change triggers a recompute of the stratum
            sensitive_inputs = {
                lit.atom.predicate
                for _, r in rules
                for lit in r.body
                if lit.atom is not None
                and (lit.negated or r.has_aggregate)
            }
            if any(net.touches(q) for q in sensitive_inputs):
                self._recompute_stratum(si, stratum_set, rules, net, trace)
            elif any(
                net.touches(lit.atom.predicate)
                for _, r in rules
                for lit in r.body
                if lit.atom is not None
            ):
                self._delete_stratum(si, stratum_set, rules, net, trace)
                self._insert_stratum(si, stratum_set, rules, net, trace)
        return trace

    def _check_update(self, delta: "Delta | ZSetDelta") -> None:
        """Raise ``ValueError`` for an update no stratum could maintain."""
        sides = (
            (delta.weights,)
            if isinstance(delta, ZSetDelta)
            else (delta.insertions, delta.deletions)
        )
        for side in sides:
            for pred, facts in side.items():
                if not facts:  # normalization can leave empty sets behind
                    continue
                if pred not in self.edb_predicates:
                    raise ValueError(
                        f"cannot update derived predicate {pred!r}; updates "
                        "target EDB predicates only"
                    )
                arity = self._arity[pred]
                for fact in facts:
                    if len(fact) != arity:
                        raise ValueError(
                            f"{pred}: tuple {fact!r} has arity "
                            f"{len(fact)}, expected {arity}"
                        )

    # ------------------------------------------------------------------
    # Backward/Forward deletion + semi-naive insertion for a positive
    # stratum
    # ------------------------------------------------------------------
    def _delete_stratum(
        self, si, stratum_set, rules, net: ZSetDelta, trace
    ) -> None:
        candidates = self._collect_candidates(
            si, stratum_set, rules, net, trace
        )
        if not candidates:
            return
        supported = self._verify_candidates(rules, candidates)
        # the one-shot delete has no per-rule attribution: record the
        # whole batch under rule index -1
        n_deleted = 0
        for pred, facts in candidates.items():
            rel = self.db.relations.get(pred)
            if rel is None:
                continue
            keep = supported.get(pred, set())
            for fact in facts:
                if fact in keep:
                    continue
                if rel.discard(fact):
                    net.delete(pred, fact)
                    n_deleted += 1
        trace.record("bf_delete", si, 0, -1, n_deleted)

    def _old_view(self, net: ZSetDelta) -> Database:
        """The pre-deletion database view: current facts plus everything
        deleted so far this update (candidate joins must see them)."""
        negative = net.negative()
        if not negative:
            return self.db
        view = Database(dict(self.db.relations))
        for pred, gone in negative.items():
            arity = len(next(iter(gone)))
            merged = Relation(pred, arity)
            existing = self.db.relations.get(pred)
            if existing is not None:
                for f in existing:
                    merged.add(f)
            for f in gone:
                merged.add(f)
            view.relations[pred] = merged
        return view

    def _collect_candidates(
        self, si, stratum_set, rules, net: ZSetDelta, trace
    ) -> dict[str, set[tuple]]:
        """Forward pass: facts with ≥1 derivation through a deletion.

        Joins run against the pre-deletion view (current database plus
        lower-strata/EDB retractions), but nothing is removed — victims
        only accumulate as candidates and feed the next wave.
        """
        view = self._old_view(net)
        candidates: dict[str, set[tuple]] = {}
        # lower-strata and EDB deletions seed the wave
        wave = net.negative()
        iteration = 0
        while wave:
            next_wave: dict[str, set[tuple]] = {}
            for ri, rule in rules:
                n_found = 0
                for pos, lit in enumerate(rule.body):
                    if (
                        lit.atom is None
                        or lit.negated
                        or lit.atom.predicate not in wave
                    ):
                        continue
                    over = Relation(lit.atom.predicate, lit.atom.arity)
                    for f in wave[lit.atom.predicate]:
                        over.add(f)
                    head = rule.head.predicate
                    rel = self.db.relations.get(head)
                    if rel is None:
                        continue
                    seen = candidates.setdefault(head, set())
                    for subst in join_body(
                        rule.body,
                        view,
                        delta_overrides={lit.atom.predicate: over},
                        delta_at=pos,
                    ):
                        fact = instantiate_head(rule.head, subst)
                        if fact in rel and fact not in seen:
                            seen.add(fact)
                            next_wave.setdefault(head, set()).add(fact)
                            n_found += 1
                trace.record("bf_candidates", si, iteration, ri, n_found)
            wave = {p: s for p, s in next_wave.items() if p in stratum_set}
            iteration += 1
        return {p: s for p, s in candidates.items() if s}

    def _verify_candidates(
        self, rules, candidates: dict[str, set[tuple]]
    ) -> dict[str, set[tuple]]:
        """Backward pass: candidates with an alternative derivation.

        A candidate is *supported* iff some rule derives it from facts
        that are either non-candidates (they survive unconditionally —
        the database still holds them and deletions from lower strata
        are already applied) or candidates already proven supported.
        Computed as a least fixpoint over a masked view, so circular
        support among candidates does not count.
        """
        masked = Database(dict(self.db.relations))
        for pred, facts in candidates.items():
            rel = self.db.relations.get(pred)
            if rel is None:
                continue
            trimmed = Relation(pred, rel.arity)
            for f in rel:
                if f not in facts:
                    trimmed.add(f)
            masked.relations[pred] = trimmed
        supported: dict[str, set[tuple]] = {}
        changed = True
        while changed:
            changed = False
            for _ri, rule in rules:
                head = rule.head.predicate
                pending = candidates.get(head)
                if not pending:
                    continue
                got = supported.get(head, set())
                if len(got) == len(pending):
                    continue
                proven = [
                    fact
                    for fact in (
                        instantiate_head(rule.head, s)
                        for s in join_body(rule.body, masked)
                    )
                    if fact in pending and fact not in got
                ]
                for fact in proven:
                    got.add(fact)
                    masked.relations[head].add(fact)
                    supported[head] = got
                    changed = True
        return supported

    def _insert_stratum(
        self, si, stratum_set, rules, net: ZSetDelta, trace
    ) -> None:
        wave = net.positive()
        iteration = 0
        while wave:
            delta_rels: dict[str, Relation] = {}
            for p, s in wave.items():
                if not s:
                    continue
                r = Relation(p, len(next(iter(s))))
                for f in s:
                    r.add(f)
                delta_rels[p] = r
            next_wave: dict[str, set[tuple]] = {}
            for ri, rule in rules:
                n_changed = 0
                for pos, lit in enumerate(rule.body):
                    if (
                        lit.atom is None
                        or lit.negated
                        or lit.atom.predicate not in delta_rels
                    ):
                        continue
                    derived = [
                        instantiate_head(rule.head, subst)
                        for subst in join_body(
                            rule.body,
                            self.db,
                            delta_overrides=delta_rels,
                            delta_at=pos,
                        )
                    ]
                    head = rule.head.predicate
                    for fact in derived:
                        if self.db.add_fact(head, fact):
                            net.insert(head, fact)
                            next_wave.setdefault(head, set()).add(fact)
                            n_changed += 1
                trace.record("insert", si, iteration, ri, n_changed)
            wave = {
                p: s for p, s in next_wave.items() if p in stratum_set
            }
            iteration += 1

    # ------------------------------------------------------------------
    # recompute-and-diff for a negation-affected stratum
    # ------------------------------------------------------------------
    def _recompute_stratum(
        self, si, stratum_set, rules, net: ZSetDelta, trace
    ) -> None:
        heads = {r.head.predicate for _, r in rules}
        old: dict[str, set[tuple]] = {}
        for p in heads:
            rel = self.db.relations.get(p)
            old[p] = set(rel) if rel is not None else set()
            if rel is not None:
                # IDB predicates hold derived facts only; program facts
                # for them are re-seeded below
                fresh = Relation(p, rel.arity)
                self.db.relations[p] = fresh
        for fact_rule in self.program.facts:
            if fact_rule.head.predicate in heads:
                self.db.add_fact(
                    fact_rule.head.predicate,
                    tuple(t.value for t in fact_rule.head.terms),  # type: ignore[union-attr]
                )
        # local naive fixpoint over the stratum's rules
        changed = True
        while changed:
            changed = False
            for ri, rule in rules:
                derived = eval_rule(rule, self.db)
                n = 0
                for fact in derived:
                    if self.db.add_fact(rule.head.predicate, fact):
                        n += 1
                        changed = True
                trace.record("recompute", si, 0, ri, n)
        for p in heads:
            rel = self.db.relations.get(p)
            new = set(rel) if rel is not None else set()
            for fact in new - old[p]:
                net.insert(p, fact)
            for fact in old[p] - new:
                net.delete(p, fact)
