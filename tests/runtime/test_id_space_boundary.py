"""Facts cross into id space at the EDB and back when someone reads them.

A healthy round interns what its delta brings — at the EDB relations'
mirrors — and externs nothing: a stratum publishes the mirror it grew,
the executor's diffs and the verify comparison run on id-rows, and the
first reader of a relation's facts pays for its value tuples, once. In
between, the fixpoint and the task units work on id-rows: no derived
fact goes back through ``Relation.add`` or ``InternPool.intern_fact``, a
fixpoint iteration's Δ is not a mirror build, and a stratum evaluation
compiles each rule plan once. These tests pin that with call counters
over warm served rounds — the work at the boundary is bounded by the
round's EDB delta and the program's facts, not by what the round
derives.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

import repro.datalog.seminaive as seminaive
import repro.datalog.units as units
from repro.datalog import seminaive_evaluate
from repro.datalog.columnar import ColumnarRelation, InternPool
from repro.datalog.database import Relation
from repro.runtime import UpdateStreamService, live_workload
from repro.schedulers import scheduler_registry

from .conftest import edb_is_mirror


def _count_calls(monkeypatch, calls: Counter, cls, name: str) -> None:
    real = getattr(cls, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(cls, name, counting)


@pytest.mark.parametrize("name", ["tc", "retail"])
def test_boundary_work_is_bounded_by_the_delta_not_by_derived_facts(
    monkeypatch, name
):
    calls: Counter = Counter()
    _count_calls(monkeypatch, calls, InternPool, "intern_fact")
    _count_calls(monkeypatch, calls, Relation, "add")

    # what one stratum evaluation (a fixpoint node's on a worker thread,
    # or one of the verify check's on the coordinator) builds and compiles
    current = threading.local()
    evaluations = []
    real_from_facts = ColumnarRelation.from_facts.__func__
    real_compile = seminaive.compile_rule_plan

    def from_facts(cls, pool, pred, arity, facts):
        if getattr(current, "built", None) is not None:
            current.built.append(pred)
        return real_from_facts(cls, pool, pred, arity, facts)

    def compile_rule_plan(rule, order, delta_at, *args, **kwargs):
        # a task's counted plans compile when the plan is bound, outside
        # any stratum evaluation
        if getattr(current, "built", None) is not None:
            current.compiled.append((rule, delta_at))
        return real_compile(rule, order, delta_at, *args, **kwargs)

    def recorded(real, rules_of):
        """``real`` — a stratum evaluation whose first argument holds
        its rules — with what it builds and compiles recorded."""

        def stratum(first, *args, **kwargs):
            current.built, current.compiled = [], []
            try:
                return real(first, *args, **kwargs)
            finally:
                mentioned = {
                    p for _ri, rule in rules_of(first)
                    for p in [rule.head.predicate]
                    + [q for q, _neg in rule.body_predicates()]
                }
                evaluations.append(
                    (current.built, current.compiled, mentioned)
                )
                current.built = None

        return stratum

    monkeypatch.setattr(
        ColumnarRelation, "from_facts", classmethod(from_facts)
    )
    monkeypatch.setattr(seminaive, "compile_rule_plan", compile_rule_plan)
    monkeypatch.setattr(units, "compile_rule_plan", compile_rule_plan)
    stratum = recorded(seminaive.evaluate_stratum, lambda rules: rules)
    monkeypatch.setattr(seminaive, "evaluate_stratum", stratum)
    # the fixpoint node recomputes, or continues: the same loop seeded
    # with its inputs' Δ
    continued = []

    def unit_stratum(rules, *args, **kwargs):
        if kwargs.get("delta") is not None:
            continued.append(rules)
        return stratum(rules, *args, **kwargs)

    monkeypatch.setattr(units, "evaluate_stratum", unit_stratum)

    wl = live_workload(name, seed=9)
    n_program_facts = len(wl.program.facts)
    svc = UpdateStreamService(
        wl.program, wl.edb, scheduler_registry()["hybrid"](), workers=2
    )
    served = derived = 0
    while served < 12:
        delta = wl.random_batch(2)
        n_ops = sum(
            len(facts)
            for side in (delta.insertions, delta.deletions)
            for facts in side.values()
        )
        calls.clear()
        svc.submit(delta)
        rep = svc.run_round()
        assert rep is not None and rep.materialization_ok
        if rep.metrics.noop:
            continue
        served += 1
        if served == 2:  # warm: one miss, one hit behind us
            evaluations.clear()
        if served <= 2:
            continue
        assert not rep.metrics.degraded
        # the delta lands in the EDB once; the executed round and its
        # from-scratch check each seed the program's facts once
        bound = n_ops + 2 * n_program_facts
        assert calls["intern_fact"] <= bound, (served, dict(calls))
        assert calls["add"] <= bound, (served, dict(calls))
        derived += svc.materialization().total_facts() - (
            svc.database().total_facts()
        )
    # ... while the rounds held far more derived facts than that
    assert derived > 10 * 10 * (2 + 2 * n_program_facts)

    assert evaluations
    if name == "tc":  # some batches only insert: the pins saw both bodies
        assert continued
    for built, compiled, mentioned in evaluations:
        # a mirror per relation the stratum touches at most — the heads'
        # before the first iteration, a cold input's on its first scan —
        # however many iterations run: no Δ is built with from_facts
        assert len(built) == len(set(built)), built
        assert set(built) <= mentioned
        # each (rule, Δ-position) plan is looked up once, not per iteration
        assert len(compiled) == len(set(compiled)), compiled

    want, _ = seminaive_evaluate(wl.program, svc.database())
    assert svc.materialization().as_dict() == want.as_dict()
    assert edb_is_mirror(wl, svc.database())


def _serve_one(svc, wl):
    """Serve random batches until one makes a round that executes."""
    while True:
        svc.submit(wl.random_batch(2))
        rep = svc.run_round()
        assert rep is not None and rep.materialization_ok
        if not rep.metrics.noop:
            return rep


@pytest.mark.parametrize("name", ["tc", "retail"])
def test_rounds_extern_nothing_and_a_reader_externs_each_relation_once(name):
    wl = live_workload(name, seed=9)
    svc = UpdateStreamService(
        wl.program, wl.edb, scheduler_registry()["hybrid"](), workers=2,
        verify=True, strict=True,
    )
    pool = svc.plan_cache.pool
    derived = wl.program.idb_predicates()

    def read(mat) -> int:
        """Rows externed by reading every fact of ``mat``."""
        before = pool.externs
        facts = mat.as_dict()
        want, _ = seminaive_evaluate(wl.program, svc.database())
        assert facts == want.as_dict()
        return pool.externs - before

    # executed, diffed against the previous round and compared with a
    # whole-program from-scratch evaluation, round after round — and
    # with nobody reading the result not one row leaves id space
    for _ in range(2 + 10):  # a miss and a hit to warm up, then ten
        rep = _serve_one(svc, wl)
        assert not rep.metrics.degraded and rep.verification.ok
        assert rep.metrics.columnar_externs == 0
        assert rep.metrics.to_json_dict()["columnar_externs"] == 0
    assert pool.externs == pool.stats()["columnar_externs"] == 0

    # the first reader pays for every derived fact, the EDB's relations
    # always had their value tuples, and a second read is free
    mat = svc.materialization()
    n_derived = sum(len(mat.relations[p]) for p in derived)
    assert n_derived > 10 * len(derived)
    assert read(mat) == n_derived
    assert read(mat) == 0
    assert all(len(rel) == len(set(rel)) for rel in mat.relations.values())

    # ... which no later round undoes: a node the next round does not
    # reach (or whose output did not change) hands on the same relation
    # object, value tuples and all
    carried: set[str] = set()
    for _ in range(10):
        rep = _serve_one(svc, wl)
        assert rep.metrics.columnar_externs == 0  # the reads are no round's
        after = svc.materialization()
        same = {p for p in derived if after.relations[p] is mat.relations[p]}
        assert read(after) == sum(
            len(after.relations[p]) for p in derived - same
        )
        carried |= same
        mat = after
    assert carried
    assert edb_is_mirror(wl, svc.database())
