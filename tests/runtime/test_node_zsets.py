"""Every node emits its Z-set, and it is exact.

A unit returns its node's value with a Z-set — predicate → ``(Δ⁺, Δ⁻)``
id-rows against the node's committed value, ``plan.old_values[node]``
— and that Z-set is the only change signal any layer reads. These
tests check it after every committed round, for every node the round
executed, against the whole-value comparison it replaced, kept here as
the oracle:

* the Z-set applied to the committed value (empty when there is none)
  is the new value, Δ⁺ disjoint from it and Δ⁻ inside it;
* the node's change flag is ``value != plan.old_values[node]`` when it
  has a committed value, and ``True`` when it has none.

The store is captured by wrapping the plan cache's ``commit`` — for a
served round under ``levelbased`` and ``hybrid``, one tick of them
forced degraded (run serially), and for
:class:`~repro.datalog.IncrementalEngine` — over the shipped programs,
generated stratified ones and the read-set shapes.
"""

from __future__ import annotations

import pytest

from repro.datalog import (
    CompiledProgramCache,
    Delta,
    IncrementalEngine,
    apply_delta,
    merge_deltas,
    parse_program,
    seminaive_evaluate,
)
from repro.datalog.units import CountedRows
from repro.runtime import UpdateStreamService, live_workload, make_stream
from repro.schedulers import scheduler_registry
from repro.workloads.datalog_workloads import DATALOG_WORKLOADS
from repro.workloads.generated import UpdateStream, stratified_program

from .conftest import READ_SET_SHAPES, read_set_edb, read_set_stream

REGISTRY = scheduler_registry()

SOURCES = [
    *sorted(DATALOG_WORKLOADS),
    "gen-3",
    "gen-17",
    *(f"shape-{s}" for s in sorted(READ_SET_SHAPES)),
]


def _source(name):
    """``(program, edb, ticks)``: six ticks of update batches."""
    if name.startswith("gen-"):
        seed = int(name[len("gen-"):])
        gen = stratified_program(seed)
        stream = UpdateStream(gen, seed)
        return gen.program, gen.edb, [
            [stream.batch(), stream.batch()] for _ in range(6)
        ]
    if name.startswith("shape-"):
        program = parse_program(READ_SET_SHAPES[name[len("shape-"):]])
        return program, read_set_edb(), [
            [d] for d in read_set_stream(program)
        ]
    wl = live_workload(name, seed=7)
    return wl.program, wl.edb, list(make_stream(wl, "mixed", rounds=6))


def _rows(value, pool) -> set:
    """A node value's id-rows: a task's, or a relation's mirror."""
    if value is None:
        return set()
    if isinstance(value, CountedRows):
        return set(value)
    return value.columnar(pool).rows


def _assert_exact(plan, values, pool) -> int:
    """Check every node ``values`` executed; returns how many changed."""
    rules = plan.compiled.structure.program.proper_rules
    changed = 0
    for node, key in enumerate(plan.compiled.node_keys):
        if not values.computed(node):
            assert values.zset(node) == {}
            continue
        value, old = values[node], plan.old_values[node]
        zset = values.zset(node)
        if key[0] == "fix":
            preds = {p: (value[p], None if old is None else old[p])
                     for p in value}
        else:
            pred = rules[key[2]].head.predicate if key[0] == "task" else key[1]
            preds = {pred: (value, old)}
        assert set(zset) <= set(preds), (key, set(zset))
        for pred, (now, was) in preds.items():
            plus, minus = zset.get(pred, (set(), set()))
            # an entry is a predicate whose rows moved
            assert pred not in zset or plus or minus, key
            before = _rows(was, pool)
            assert plus.isdisjoint(before) and minus <= before, key
            assert (before - minus) | plus == _rows(now, pool), key
        flag = values.changed(node)
        assert flag == (True if old is None else value != old), key
        changed += flag
    return changed


def _watch(cache: CompiledProgramCache, checked: list) -> None:
    """Check each store ``cache`` commits against the plan it ran."""
    real_plan, real_commit = cache.plan, cache.commit
    ran = {}

    def plan(cu):
        ran["plan"] = real_plan(cu)
        return ran["plan"]

    def commit(cu, values=None):
        if values is not None:
            checked.append(_assert_exact(ran["plan"], values, cache.pool))
        return real_commit(cu, values)

    cache.plan = plan
    cache.commit = commit


@pytest.mark.parametrize("scheduler", ["levelbased", "hybrid"])
@pytest.mark.parametrize("name", SOURCES)
def test_served_rounds_emit_exact_zsets(name, scheduler):
    program, edb, ticks = _source(name)
    svc = UpdateStreamService(program, edb, REGISTRY[scheduler](), workers=3)
    checked: list[int] = []
    _watch(svc.plan_cache, checked)
    for i, batches in enumerate(ticks):
        forced = i == 3
        svc.health.plan_round = lambda: forced
        for delta in batches:
            svc.submit(delta)
        rep = svc.run_round()
        assert rep.materialization_ok
        assert rep.metrics.noop or rep.metrics.degraded is forced
    assert len(checked) >= 3 and sum(checked) > 0
    want, _ = seminaive_evaluate(program, svc.database())
    assert svc.materialization().as_dict() == want.as_dict()


@pytest.mark.parametrize("name", SOURCES)
def test_engine_rounds_emit_exact_zsets(name, monkeypatch):
    program, edb, ticks = _source(name)
    checked: list[int] = []
    real_init = CompiledProgramCache.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        _watch(self, checked)

    monkeypatch.setattr(CompiledProgramCache, "__init__", init)
    engine = IncrementalEngine(program, edb)
    assert len(checked) == 1  # the miss: every node ran, and changed
    for batches in ticks:
        delta = merge_deltas(batches)
        engine.apply(delta)
        edb = apply_delta(edb, delta)
    assert sum(checked[1:]) > 0
    want, _ = seminaive_evaluate(program, edb)
    assert engine.snapshot() == want.as_dict()


def test_a_stated_edb_fact_is_no_change():
    """``e(8, 0)`` is a program fact: the EDB node's baseline holds it
    whatever the update says, so inserting it, or deleting it once
    inserted, leaves the node unchanged — the clamped delta is not its
    Z-set there — and the cascade stops at it."""
    program = parse_program(READ_SET_SHAPES["facts"])
    checked: list[int] = []
    svc = UpdateStreamService(
        program, read_set_edb(), REGISTRY["hybrid"](), workers=2
    )
    _watch(svc.plan_cache, checked)
    for delta in (
        Delta().insert("e", (5, 6)),
        Delta().insert("e", (8, 0)),
        Delta().delete("e", (8, 0)),
        Delta().insert("e", (8, 0)).insert("e", (6, 7)),
    ):
        svc.submit(delta)
        rep = svc.run_round()
        assert rep.materialization_ok
    # the first round is a miss; the two stated-only rounds change nothing
    assert checked[1:3] == [0, 0] and checked[3] > 0
    want, _ = seminaive_evaluate(program, svc.database())
    assert svc.materialization().as_dict() == want.as_dict()
