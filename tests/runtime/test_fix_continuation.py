"""A served round maintains a fixpoint: the node continues or retracts.

A ``("fix", si)`` unit whose inputs only grew since the committed round
continues the committed fixpoint: the evaluator's one semi-naive loop,
``evaluate_stratum``, seeded with the inputs' Δ⁺, a head that gains
rows on a clone of its committed mirror. One whose inputs lost rows
retracts: the removal pass takes out of a clone the rows left with no
derivation from lower-stamped rows, and the loop continues from those
of them that still have one. A change under negation or an aggregate,
no committed value to start from, a degraded round, or a removal pass
the guard stops runs the loop unseeded and recomputes the SCC from its
entry relations. These tests pin that a continued or retracted value
is the recomputed one and keeps the stamp invariant, which rounds
continue, retract or recompute, that the committed values and stamps a
round starts from are never written to, and that the loop itself,
seeded or not, writes no relation handed to it.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import (
    Database,
    Delta,
    parse_program,
    seminaive_evaluate,
    units,
)
from repro.datalog.columnar import InternPool
from repro.datalog.database import Relation
from repro.datalog.unify import eval_rule
from repro.datalog.depgraph import DependencyGraph
from repro.datalog.seminaive import evaluate_stratum
from repro.datalog.plancache import CompiledProgramCache
from repro.datalog.units import FixpointValue, ProgramSkeleton
from repro.runtime import (
    ChaosError,
    ChaosInjector,
    ChaosPlan,
    MaterializationDivergenceError,
    UpdateStreamService,
    live_workload,
)
from repro.schedulers import scheduler_registry
from repro.workloads.generated import stratified_rules

from ..datalog.test_columnar_properties import (
    SCC_ABOVE,
    SCC_BASE,
    SCC_RECURSIVE,
    edges,
)
from .conftest import READ_SET_SHAPES, read_set_edb, read_set_stream
from .test_static_dag import _install_liar
from .test_task_maintenance import assert_tasks_match_a_miss

REGISTRY = scheduler_registry()


def _service(program, edb, **kwargs):
    return UpdateStreamService(
        program, edb, REGISTRY["hybrid"](), workers=2, **kwargs
    )


def _serve(svc, delta):
    svc.submit(delta)
    rep = svc.run_round()
    assert rep is not None and rep.materialization_ok
    return rep


def _assert_from_scratch(svc, program):
    want, _ = seminaive_evaluate(program, svc.database())
    assert svc.materialization().as_dict() == want.as_dict()


def _committed(svc) -> list:
    """The node values the last committed round left (white box)."""
    return svc.plan_cache._prev.values


def _fix_nodes(svc) -> list[int]:
    """The fixpoint nodes of the plan the last committed round ran."""
    cache = svc.plan_cache
    plan = cache._plan
    return [u.node for u in plan.units if u.kind == "fix"]


def _as_miss(program, edb_old, delta) -> dict[str, set]:
    """The recursive predicates' facts when ``delta`` over ``edb_old``
    is staged on a cache that has committed nothing: every fixpoint
    node of G, recomputed."""
    cache = CompiledProgramCache(program)
    plan = cache.plan(cache.compile(program, edb_old, delta))
    values, _ = plan.execute_serial()
    out = {}
    for unit in plan.units:
        if unit.kind == "fix":
            assert values.notes[unit.node]["mode"] == "recompute"
            out.update({p: set(r) for p, r in values[unit.node].items()})
    return out


def _fix_notes(svc) -> list:
    """A list that, after each served round, holds the notes the
    round's fixpoint units left (white box: wraps the cache's plan)."""
    cache, out, wrapped = svc.plan_cache, [], set()
    real_plan = cache.plan

    def plan(cu):
        bound = real_plan(cu)  # the one bound plan, restamped
        for unit in bound.units:
            if unit.kind != "fix" or id(unit) in wrapped:
                continue
            wrapped.add(id(unit))
            honest = unit.run

            def run(values, _honest=honest, _node=unit.node):
                got = _honest(values)
                out.append(values.notes[_node])
                return got

            unit.run = run
        out.clear()
        return bound

    cache.plan = plan
    return out


def assert_stamps_hold(svc, program) -> None:
    """Every committed fixpoint value keeps the stamp invariant: its
    stamps cover exactly its rows, a row at stamp 0 is an entry fact,
    and a row at stamp s > 0 has a derivation — by the row evaluator —
    from the round's inputs and the SCC's rows of lower stamps."""
    cache = svc.plan_cache
    pool = cache.pool
    values = _committed(svc)
    keys = cache._plan.compiled.structure.node_keys
    db = svc.materialization()
    edb = svc.database()
    for node in _fix_nodes(svc):
        value = values[node]
        assert isinstance(value, FixpointValue) and value.stamps is not None
        rules = program.strata[keys[node][1]]
        facts: dict[int, dict[str, set]] = {}
        for p, rel in value.items():
            stamps = value.stamps[p]
            assert set(stamps) == rel.columnar(pool).rows, p
            for row, s in stamps.items():
                assert 0 <= s <= value.top
                facts.setdefault(s, {}).setdefault(p, set()).add(
                    pool.extern_row(row)
                )
        for p, rows in facts.get(0, {}).items():
            entry = set(program.stated_facts.get(p, ()))
            if p in edb.relations:
                entry |= set(edb.relations[p])
            assert rows <= entry, p
        for s in sorted(facts):
            if not s:
                continue
            below = Database(dict(db.relations))
            for p in value:
                below.relations[p] = Relation(p, value[p].arity)
                for lower, got in facts.items():
                    if lower < s:
                        for fact in got.get(p, ()):
                            below.relations[p].add(fact)
            derived: dict[str, set] = {}
            for _ri, rule in rules:
                derived.setdefault(rule.head.predicate, set()).update(
                    eval_rule(rule, below)
                )
            for p, rows in facts[s].items():
                assert rows <= derived.get(p, set()), (p, s)


def _check_insert_round(svc, program, delta):
    """Serve ``delta`` (insert-only) on a warm service: every fixpoint
    node a change reaches continues, and what it leaves is what a miss
    recomputes."""
    edb_old = svc.database()
    rep = _serve(svc, delta)
    if rep.metrics.noop:
        return rep
    _assert_from_scratch(svc, program)
    want = _as_miss(program, edb_old, delta)
    committed = _committed(svc)
    fixes = _fix_nodes(svc)
    for node in fixes:
        for p, rel in committed[node].items():
            assert set(rel) == want[p]
    if svc.plan_cache.misses == 1:  # no miss since round 0
        ran = {r.node for r in rep.artifacts.result.schedule}
        assert rep.metrics.continued_nodes == len(ran.intersection(fixes))
    return rep


# ----------------------------------------------------------------------
# (a) insert-only streams: continued ≡ recomputed ≡ row evaluation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["tc", "sg", "pt"])
def test_insert_only_stream_continues_to_the_recomputed_value(name):
    wl = live_workload(name, seed=4)
    svc = _service(wl.program, wl.edb)
    first = _serve(svc, wl.random_batch(2, delete_frac=0.0))
    assert first.metrics.continued_nodes == 0  # a miss has nothing to continue
    continued = 0
    for _ in range(8):
        rep = _check_insert_round(
            svc, wl.program, wl.random_batch(2, delete_frac=0.0)
        )
        continued += rep.metrics.continued_nodes
    assert continued >= 4
    assert svc.metrics.registry.counter("continued_nodes").value == continued


insert_ticks = st.lists(
    st.tuples(
        st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=3),
        st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=3),
    ),
    min_size=1,
    max_size=4,
)


@given(
    recursive=st.sets(st.sampled_from(SCC_RECURSIVE), min_size=1),
    above=st.sets(st.sampled_from(SCC_ABOVE), max_size=2),
    strata=st.integers(0, 2**32 - 1),
    e_facts=edges,
    f_facts=edges,
    ticks=insert_ticks,
)
@settings(max_examples=40, deadline=None)
def test_generated_mutual_recursion_continues_to_the_recomputed_value(
    recursive, above, strata, e_facts, f_facts, ticks
):
    """Random programs with ``a`` and ``b`` in one SCC (linear, mutual,
    nonlinear), strata above them — hand-written ones and two generated
    non-recursive levels (:mod:`repro.workloads.generated`) whose task
    nodes maintain —, random EDBs and growth-only ticks."""
    generated = stratified_rules(
        random.Random(strata), {"a": 2, "b": 2, "e": 2, "f": 2},
        levels=2, preds_per_level=2,
    )
    program = parse_program(
        "\n".join(SCC_BASE + sorted(recursive) + sorted(above) + generated)
    )
    edb = Database()
    edb.relation("e", 2)
    edb.relation("f", 2)
    for t in e_facts:
        edb.add_fact("e", t)
    for t in f_facts:
        edb.add_fact("f", t)
    svc = _service(program, edb)
    _serve(svc, Delta().insert("e", (6, 6)))
    for e_new, f_new in ticks:
        delta = Delta()
        for t in e_new:
            delta.insert("e", t)
        for t in f_new:
            delta.insert("f", t)
        edb_old = svc.database()
        if not _check_insert_round(svc, program, delta).metrics.noop:
            assert_tasks_match_a_miss(svc, program, edb_old, delta)


pair = st.tuples(st.integers(0, 5), st.integers(0, 5))
#: per tick: the stream it comes from, and per EDB relation the facts it
#: deletes (where present) and those it inserts
change_ticks = st.lists(
    st.tuples(
        st.sampled_from(["delete", "replace", "mixed"]),
        st.sets(pair, max_size=3),
        st.sets(pair, max_size=3),
        st.sets(pair, max_size=3),
        st.sets(pair, max_size=3),
    ),
    min_size=1,
    max_size=5,
)


def _change(edb: Database, kind: str, e_out, f_out, e_in, f_in) -> Delta:
    """A delete tick deletes only, a replace tick deletes as many facts
    of each relation as it inserts, a mixed one does both at will."""
    delta = Delta()
    for pred, out, into in (("e", e_out, e_in), ("f", f_out, f_in)):
        present = sorted(set(out) & set(edb.relations[pred]))
        if kind == "replace":
            present = present[:len(into)]
        for t in present:
            delta.delete(pred, t)
        if kind != "delete":
            for t in sorted(into)[:len(present) if kind == "replace" else None]:
                delta.insert(pred, t)
    return delta


@given(
    recursive=st.sets(st.sampled_from(SCC_RECURSIVE), min_size=1),
    above=st.sets(st.sampled_from(SCC_ABOVE), max_size=2),
    e_facts=edges,
    f_facts=edges,
    ticks=change_ticks,
)
@settings(max_examples=100, deadline=None)
def test_generated_mutual_recursion_retracts_to_the_recomputed_value(
    recursive, above, e_facts, f_facts, ticks
):
    """Random programs with ``a`` and ``b`` in one SCC (linear, mutual,
    nonlinear), strata above them, random EDBs and delete, replace and
    mixed ticks, the guard off so every retraction retracts: each served
    round's fixpoint values are what the round staged as a miss
    recomputes, the materialization is row ``seminaive_evaluate``'s, and
    the committed stamps keep their invariant."""
    program = parse_program(
        "\n".join(SCC_BASE + sorted(recursive) + sorted(above))
    )
    edb = Database()
    for pred, facts in (("e", e_facts), ("f", f_facts)):
        edb.relation(pred, 2)
        for t in facts:
            edb.add_fact(pred, t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(units, "RETRACT_PROBE_CAP", float("inf"))
        svc = _service(program, edb)
        _serve(svc, Delta().insert("e", (6, 6)))
        for tick in ticks:
            edb_old = svc.database()
            delta = _change(edb_old, *tick)
            rep = _serve(svc, delta)
            if rep.metrics.noop:
                continue
            assert rep.metrics.retracted_nodes <= len(_fix_nodes(svc))
            _assert_from_scratch(svc, program)
            want = _as_miss(program, edb_old, delta)
            for node in _fix_nodes(svc):
                for p, rel in _committed(svc)[node].items():
                    assert set(rel) == want[p]
            assert_stamps_hold(svc, program)


# ----------------------------------------------------------------------
# (b) the sign and the read decide, before any join runs
# ----------------------------------------------------------------------
TC = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
"""


def _chain(n: int) -> Database:
    edb = Database()
    for i in range(n):
        edb.add_fact("edge", (i, i + 1))
    return edb


@pytest.fixture
def never_abandon(monkeypatch):
    """No guard: every retraction that may retract does — the removal
    pass is the subject, not whether it pays on a small EDB."""
    monkeypatch.setattr(units, "RETRACT_PROBE_CAP", float("inf"))


def test_a_retraction_retracts(never_abandon):
    """A deleted edge takes out of the committed ``path`` only what lost
    its support, and what still has a derivation comes back: the rows
    the served round reports moved are the fixpoints' difference."""
    program = parse_program(TC)
    edb = _chain(6)
    edb.add_fact("edge", (1, 3))
    svc = _service(program, edb)
    _serve(svc, Delta().insert("edge", (6, 7)))
    assert _serve(svc, Delta().insert("edge", (7, 8))).metrics.continued_nodes == 1
    before = set(svc.materialization().relations["path"])
    notes = _fix_notes(svc)
    rep = _serve(svc, Delta().delete("edge", (2, 3)))
    m = rep.metrics
    assert (m.retracted_nodes, m.continued_nodes) == (1, 0)
    (note,) = notes
    assert note["mode"] == "retract" and note["abandoned"] is False
    assert note["delta_rows"] == 1
    after = set(svc.materialization().relations["path"])
    # (1, 3) keeps every path through 3 from 0 and 1; only 2 loses them
    assert before - after == {(2, y) for y in range(3, 9)}
    assert note["removed_rows"] >= len(before - after)
    assert note["removed_rows"] - note["rederived_rows"] == len(before - after)
    assert rep.metrics.changed_facts == 1 + len(before - after)
    _assert_from_scratch(svc, program)
    assert_stamps_hold(svc, program)
    # a replace retracts as well
    mixed = Delta().insert("edge", (8, 9)).delete("edge", (0, 1))
    assert _serve(svc, mixed).metrics.retracted_nodes == 1
    _assert_from_scratch(svc, program)
    assert_stamps_hold(svc, program)
    assert _serve(svc, Delta().insert("edge", (0, 1))).metrics.continued_nodes == 1
    _assert_from_scratch(svc, program)
    assert_stamps_hold(svc, program)
    assert svc.metrics.registry.counter("retracted_nodes").value == 2


def test_a_row_kept_on_an_inserted_edge_is_checked_again(never_abandon):
    """``path(0, 4)`` loses its derivation through the deleted ``3 → 4``
    (``path(0, 3)`` stays, through 5) and is kept on the inserted
    ``2 → 4`` with ``path(0, 2)`` — which goes next, with ``0 → 1``.
    What a removed row derives is read over the present inputs, the
    inserted edge included, so ``path(0, 4)`` is checked again and goes
    too; over the committed inputs nothing leaves 2 and it would stay."""
    program = parse_program(TC)
    edb = Database()
    for t in [(0, 1), (1, 2), (0, 5), (5, 3), (3, 4)]:
        edb.add_fact("edge", t)
    svc = _service(program, edb)
    _serve(svc, Delta().insert("edge", (7, 8)))
    delta = (
        Delta().delete("edge", (0, 1)).delete("edge", (3, 4))
        .insert("edge", (2, 4))
    )
    assert _serve(svc, delta).metrics.retracted_nodes == 1
    path = set(svc.materialization().relations["path"])
    assert {(0, 5), (0, 3)} <= path and (0, 4) not in path
    _assert_from_scratch(svc, program)
    assert_stamps_hold(svc, program)


def test_a_served_stream_retracts_under_the_guard():
    """With the guard as shipped, ``tc``'s delete rounds retract: the
    removal pass costs a fraction of a recompute's probes there."""
    wl = live_workload("tc", seed=3)
    svc = _service(wl.program, wl.edb)
    retracted = 0
    for i in range(12):
        rep = _serve(svc, wl.random_batch(2, delete_frac=float(i % 2)))
        retracted += rep.metrics.retracted_nodes
    assert retracted > 0
    _assert_from_scratch(svc, wl.program)
    assert_stamps_hold(svc, wl.program)


def test_a_retraction_under_an_unchanged_negation_retracts(never_abandon):
    """The SCC reads ``blocked`` under negation: a retraction elsewhere
    retracts (the negation probe reads the present ``blocked``), a grown
    ``blocked`` still recomputes."""
    program = parse_program(READ_SET_SHAPES["negation"])
    svc = _service(program, read_set_edb())
    _serve(svc, Delta().insert("e", (5, 6)))
    gone = next(iter(sorted(svc.database().relations["e"])))
    rep = _serve(svc, Delta().delete("e", gone))
    assert rep.metrics.retracted_nodes == 1
    _assert_from_scratch(svc, program)
    assert_stamps_hold(svc, program)
    rep = _serve(svc, Delta().insert("blocked", (2,)).delete("e", (5, 6)))
    assert (rep.metrics.retracted_nodes, rep.metrics.continued_nodes) == (0, 0)
    _assert_from_scratch(svc, program)


def test_a_miss_and_a_degraded_round_recompute_a_retraction(never_abandon):
    program = parse_program(TC)
    svc = _service(program, _chain(6))
    # the miss: nothing committed to retract from
    rep = _serve(svc, Delta().delete("edge", (5, 6)))
    assert (rep.metrics.retracted_nodes, rep.metrics.continued_nodes) == (0, 0)
    assert _serve(svc, Delta().delete("edge", (4, 5))).metrics.retracted_nodes == 1
    _poison(_committed(svc))
    svc.health.plan_round = lambda: True
    rep = _serve(svc, Delta().delete("edge", (0, 1)))  # strict: verified
    assert rep.metrics.degraded and rep.metrics.retracted_nodes == 0
    _assert_from_scratch(svc, program)
    # what the degraded round committed is retracted from by the probe
    svc.health.plan_round = lambda: False
    assert _serve(svc, Delta().delete("edge", (2, 3))).metrics.retracted_nodes == 1
    _assert_from_scratch(svc, program)
    assert_stamps_hold(svc, program)


def test_the_guard_recomputes_and_backs_off(monkeypatch):
    """A removal pass that probes past the cap (here 0: every pass) is
    abandoned — the node recomputes, ``abandoned`` in its note — and the
    node then recomputes its next 2ᵏ retractions without trying, k
    growing by one per abandoned pass up to the cap. What it serves is
    what a recompute serves."""
    monkeypatch.setattr(units, "RETRACT_PROBE_CAP", 0)
    monkeypatch.setattr(units, "RETRACT_BACKOFF_MAX", 2)
    wl = live_workload("tc", seed=3)
    svc = _service(wl.program, wl.edb)
    _serve(svc, wl.random_batch(2, delete_frac=0.0))
    notes = _fix_notes(svc)
    seen = []
    for _ in range(14):
        edb_old = svc.database()
        delta = wl.random_batch(2, delete_frac=1.0)
        rep = _serve(svc, delta)
        if rep.metrics.noop:
            continue
        assert rep.metrics.retracted_nodes == 0
        (note,) = notes
        assert note["mode"] == "recompute"
        seen.append(note.get("abandoned", False))
        want = _as_miss(wl.program, edb_old, delta)
        for node in _fix_nodes(svc):
            for p, rel in _committed(svc)[node].items():
                assert set(rel) == want[p]
        _assert_from_scratch(svc, wl.program)
    # tries after waiting 1, 2, 4, 4, … retractions
    assert seen[:11] == [
        True, False, True, False, False, True, *[False] * 4, True,
    ]


class _Recorded:
    """A plan whose kernel runs append ``pool.probes`` after them to
    ``runs``."""

    def __init__(self, plan, runs: list) -> None:
        self.plan, self.runs = plan, runs

    def kernel(self, relations, rows, pool, *rest):
        got = self.plan.kernel(relations, rows, pool, *rest)
        self.runs.append(pool.probes)
        return got


def test_a_cut_pass_stops_at_the_kernel_that_reaches_its_limit(monkeypatch):
    """A removal pass whose limit falls inside its first wave stops at
    the kernel run that reaches it: it makes at most that one run's
    probes past the limit, and a pass that completes stays under it.
    What the node serves is what a recompute serves."""
    monkeypatch.setattr(units, "RETRACT_PROBE_CAP", 0.05)
    runs: list = []
    passes: list = []
    for name in ("_support", "_delta_plan"):
        real = getattr(units._Fix, name)

        def recorded(self, *args, _real=real):
            got = _real(self, *args)
            if isinstance(got, list):
                return [_Recorded(plan, runs) for plan in got]
            return _Recorded(got, runs)

        monkeypatch.setattr(units._Fix, name, recorded)
    real_retract = units._Fix.retract

    def retract(self, values, committed, plus, minus, limit, pool):
        runs.clear()
        start = pool.probes
        got = real_retract(self, values, committed, plus, minus, limit, pool)
        passes.append((start + limit, list(runs), got is None))
        return got

    monkeypatch.setattr(units._Fix, "retract", retract)
    monkeypatch.setattr(units, "RETRACT_BACKOFF_MAX", 0)
    wl = live_workload("pt", seed=1)
    svc = _service(wl.program, wl.edb)
    _serve(svc, wl.random_batch(2, delete_frac=0.0))
    for _ in range(10):
        edb_old = svc.database()
        delta = wl.random_batch(3, delete_frac=1.0)
        rep = _serve(svc, delta)
        want = _as_miss(wl.program, edb_old, delta)
        for node in _fix_nodes(svc):
            for p, rel in _committed(svc)[node].items():
                assert set(rel) == want[p]
        _assert_from_scratch(svc, wl.program)
    cut = [(stop, done) for stop, done, abandoned in passes if abandoned]
    assert cut, "no pass reached its limit"
    for stop, done, abandoned in passes:
        # every kernel run but the last starts under the limit, and the
        # last one reaches it exactly when the pass is cut
        assert all(probes < stop for probes in done[:-1])
        assert abandoned == (bool(done) and done[-1] >= stop)


def test_a_grown_negated_read_recomputes():
    """``r(Y) :- r(X), e(X, Y), !blocked(Y)``: a *grown* ``blocked``
    retracts ``r`` facts — continuing from the committed ``r`` keeps
    them (the shape that diverged under ``strict`` in the prototype)."""
    program = parse_program(READ_SET_SHAPES["negation"])
    svc = _service(program, read_set_edb())
    _serve(svc, Delta().insert("e", (5, 6)))
    # the positive reads grow: continue
    rep = _serve(svc, Delta().insert("e", (3, 4)).insert("src", (6,)))
    assert rep.metrics.continued_nodes == 1
    _assert_from_scratch(svc, program)
    before = set(svc.materialization().relations["r"])
    rep = _serve(svc, Delta().insert("blocked", (2,)).insert("e", (6, 0)))
    assert (rep.metrics.continued_nodes, rep.metrics.retracted_nodes) == (0, 0)
    assert set(svc.materialization().relations["r"]) < before
    _assert_from_scratch(svc, program)


AGGREGATE_IN_SCC = """
r(X) :- src(X).
r(Y) :- r(X), e(X, Y).
r(count(X)) :- big(X).
"""


def test_a_grown_aggregated_read_recomputes():
    """An aggregate rule inside the SCC: a grown ``big`` replaces
    ``r(2)`` by ``r(3)`` and with it everything reached from 2."""
    program = parse_program(AGGREGATE_IN_SCC)
    edb = Database()
    for t in [(2, 7), (7, 8), (3, 9)]:
        edb.add_fact("e", t)
    edb.add_fact("src", (0,))
    for x in (10, 11):
        edb.add_fact("big", (x,))
    svc = _service(program, edb)
    _serve(svc, Delta().insert("e", (0, 1)))
    assert _serve(svc, Delta().insert("e", (8, 5))).metrics.continued_nodes == 1
    assert (5,) in svc.materialization().relations["r"]
    rep = _serve(svc, Delta().insert("big", (12,)).delete("e", (3, 9)))
    assert (rep.metrics.continued_nodes, rep.metrics.retracted_nodes) == (0, 0)
    r = set(svc.materialization().relations["r"])
    assert (3,) in r and (9,) not in r and (2,) not in r and (7,) not in r
    _assert_from_scratch(svc, program)


def test_a_derived_input_that_loses_a_row_recomputes():
    """The EDB only grows, but the SCC reads a count, and a count that
    changes is one row leaving and one entering."""
    program = parse_program(
        """
        deg(X, count(Y)) :- e(X, Y).
        r(X) :- src(X).
        r(Y) :- r(X), e(X, Y), deg(X, N), N < 3.
        """
    )
    edb = Database()
    for t in [(0, 1), (1, 2), (1, 3), (4, 5)]:
        edb.add_fact("e", t)
    edb.add_fact("src", (0,))
    svc = _service(program, edb)
    _serve(svc, Delta().insert("e", (5, 6)))
    # deg(2, 1) is new, no row of deg leaves: continue
    assert _serve(svc, Delta().insert("e", (2, 4))).metrics.continued_nodes == 1
    _assert_from_scratch(svc, program)
    # deg(1, 2) becomes deg(1, 3): a retraction reaches the node
    rep = _serve(svc, Delta().insert("e", (1, 7)))
    assert rep.metrics.continued_nodes == 0
    assert (2,) not in svc.materialization().relations["r"]
    _assert_from_scratch(svc, program)


# ----------------------------------------------------------------------
# (c) the SCC's own entry relations
# ----------------------------------------------------------------------
def _facts_plan():
    """The ``facts`` shape (``p`` has a program fact and rules) bound,
    executed once as a miss, and its values as the committed side."""
    program = parse_program(READ_SET_SHAPES["facts"])
    cache = CompiledProgramCache(program)
    cu = cache.compile(program, read_set_edb(), Delta().insert("e", (5, 6)))
    plan = cache.plan(cu)
    values, _ = plan.execute_serial()
    committed = [values[n] for n in range(len(plan.units))]
    fix = next(u for u in plan.units if u.kind == "fix")
    return cu, plan, committed, fix


def test_an_untouched_round_continues_from_nothing_and_keeps_identity():
    """Activated with nothing gained: the committed relations come back
    as they are, so the node diffs unchanged and the cascade stops."""
    cu, plan, committed, fix = _facts_plan()
    ProgramSkeleton.stamp(plan, cu, dict(plan.ctx.baseline), committed)
    store = plan.new_store()
    value, zset = fix.run(store)
    assert store.notes[fix.node] == {"mode": "continue", "delta_rows": 0}
    assert value["p"] is committed[fix.node]["p"]
    assert value == plan.old_values[fix.node] and zset == {}


@pytest.mark.parametrize("name", ["facts", "tc", "sg", "pt"])
def test_a_warm_hit_hands_each_scc_head_its_committed_entry_relation(name):
    """Why a continuation reads no committed entry baseline: no update
    reaches a derived predicate, so on every warm hit the entry relation
    of each SCC head is the committed round's object — including a head
    the program states facts for (``facts``)."""
    if name == "facts":
        program = parse_program(READ_SET_SHAPES["facts"])
        edb = read_set_edb()
        deltas = read_set_stream(program, rounds=8)
    else:
        wl = live_workload(name, seed=6)
        program, edb = wl.program, wl.edb
        deltas = [wl.random_batch(2) for _ in range(8)]
    svc = _service(program, edb)
    cache = svc.plan_cache
    real_plan = cache.plan
    hits = []

    def plan(cu):
        committed = cache._prev
        out = real_plan(cu)
        if out.old_values[0] is not None:  # a warm hit
            keys = out.compiled.structure.node_keys
            strata = DependencyGraph(out.compiled.program).stratify()
            heads = [
                p for key in keys if key[0] == "fix" for p in strata[key[1]]
            ]
            assert heads
            for p in heads:
                assert out.ctx.baseline[p] is committed.baseline[p]
            hits.append(cu)
        return out

    cache.plan = plan
    for delta in deltas:
        _serve(svc, delta)
    assert len(hits) >= 4
    _assert_from_scratch(svc, program)


# ----------------------------------------------------------------------
# (d) the committed values are never written to
# ----------------------------------------------------------------------
def _indexes(face) -> dict:
    """Pattern → buckets of every index built on a relation face."""
    if face is None:
        return {}
    return {
        pattern: {key: frozenset(b) for key, b in index.items()}
        for pattern, index in face._indexes.items()
    }


def _snapshot(values: list) -> list:
    """Identity and content of every relation the node values hold:
    the objects, their mirrors' row sets, both faces' indexes and, of a
    fixpoint node's value, its stamps."""
    out = []
    for value in values:
        rels = (
            list(value.values()) if isinstance(value, dict)
            else [value] if not isinstance(value, set) else []
        )
        for rel in rels:
            mirror = rel._columnar
            out.append((
                id(value), id(rel), id(mirror),
                None if mirror is None else frozenset(mirror.rows),
                _indexes(mirror), _indexes(rel),
            ))
        if isinstance(value, FixpointValue):
            out.append((
                id(value.stamps), value.top,
                {p: (id(st), dict(st)) for p, st in (value.stamps or {}).items()},
            ))
        if isinstance(value, set):
            out.append((id(value), frozenset(value)))
    return out


def _assert_untouched(values: list, before: list) -> None:
    """``values`` hold what :func:`_snapshot` saw: no row, bucket or
    stamp written. An index may have been built since — a lazy build is
    the one thing the donor contract lets a reader add."""
    now = _snapshot(values)
    assert len(now) == len(before)
    for got, was in zip(now, before):
        if len(was) != 6:
            assert got == was
            continue
        assert got[:4] == was[:4]
        for built, had in zip(got[4:], was[4:]):
            assert {p: built[p] for p in had} == had


def _warm_pt(**kwargs):
    """``pt`` (its fixpoint's heads are indexed and probed) after a miss
    and one continued round, and a growth-only delta that grows ``pt``."""
    wl = live_workload("pt", seed=3)
    svc = _service(wl.program, wl.edb, **kwargs)
    _serve(svc, wl.random_batch(2, delete_frac=0.0))
    assert _serve(
        svc, wl.random_batch(3, delete_frac=0.0)
    ).metrics.continued_nodes == 1
    return wl, svc, wl.random_batch(4, delete_frac=0.0)


def test_a_lying_continuation_rolls_back_to_untouched_committed_values():
    wl, svc, delta = _warm_pt()
    _wl, twin, _delta = _warm_pt()
    values = _committed(svc)
    before = _snapshot(values)
    liar = _install_liar(svc, "fix")
    svc.submit(delta)
    with pytest.raises(MaterializationDivergenceError) as ei:
        svc.run_round()
    assert liar["lied"] and ei.value.delta_requeued
    assert svc.plan_cache.stats()["rollbacks"] == 1
    # the failed round continued on clones: what it grew is gone with it
    assert _committed(svc) is values
    _assert_untouched(values, before)
    rep = svc.run_round()  # the retry, honest
    assert rep.materialization_ok and rep.metrics.continued_nodes == 1
    assert rep.metrics.changed_facts > 4  # pt grew: the clones were written
    _assert_untouched(values, before)
    # ... and commits what a service that never failed commits
    _serve(twin, delta)
    assert _committed(svc) == _committed(twin)
    assert svc.materialization().as_dict() == twin.materialization().as_dict()
    _assert_from_scratch(svc, wl.program)


def test_an_injected_verify_fault_rolls_back_to_untouched_committed_values():
    wl, svc, delta = _warm_pt()
    values = _committed(svc)
    before = _snapshot(values)
    svc.chaos = ChaosInjector(ChaosPlan(verify_fail_prob=1.0))
    svc.submit(delta)
    with pytest.raises(ChaosError) as ei:
        svc.run_round()  # the units ran — and continued — before verify
    assert ei.value.delta_requeued
    assert _committed(svc) is values
    _assert_untouched(values, before)
    svc.chaos = None
    rep = svc.run_round()
    assert rep.materialization_ok and rep.metrics.continued_nodes == 1
    assert rep.metrics.changed_facts > 4
    _assert_untouched(values, before)
    _assert_from_scratch(svc, wl.program)


def _warm_tc():
    """``tc`` on a graph with two ways into most nodes, after a miss and a
    round that retracted, and a delete that makes it retract again."""
    program = parse_program(TC)
    edb = _chain(8)
    for i in range(0, 7, 2):
        edb.add_fact("edge", (i, i + 2))
    svc = _service(program, edb)
    _serve(svc, Delta().insert("edge", (8, 9)))
    assert _serve(
        svc, Delta().delete("edge", (7, 8))
    ).metrics.retracted_nodes == 1
    return program, svc, Delta().delete("edge", (2, 4)).delete("edge", (1, 2))


def test_a_lying_retraction_rolls_back_to_untouched_committed_values(
    never_abandon,
):
    program, svc, delta = _warm_tc()
    _program, twin, _delta = _warm_tc()
    values = _committed(svc)
    before = _snapshot(values)
    liar = _install_liar(svc, "fix")
    svc.submit(delta)
    with pytest.raises(MaterializationDivergenceError) as ei:
        svc.run_round()
    assert liar["lied"] and ei.value.delta_requeued
    assert svc.plan_cache.stats()["rollbacks"] == 1
    # the failed round removed rows from clones and stamped copies
    assert _committed(svc) is values
    _assert_untouched(values, before)
    rep = svc.run_round()  # the retry, honest
    assert rep.materialization_ok and rep.metrics.retracted_nodes == 1
    assert rep.metrics.changed_facts > 2  # path lost rows: clones written
    _assert_untouched(values, before)
    # ... and commits what a service that never failed commits
    _serve(twin, delta)
    assert _committed(svc) == _committed(twin)
    (fix,) = _fix_nodes(svc)
    assert _committed(svc)[fix].stamps == _committed(twin)[fix].stamps
    assert svc.materialization().as_dict() == twin.materialization().as_dict()
    _assert_from_scratch(svc, program)
    assert_stamps_hold(svc, program)


def test_an_injected_verify_fault_rolls_back_a_retraction(never_abandon):
    program, svc, delta = _warm_tc()
    values = _committed(svc)
    before = _snapshot(values)
    svc.chaos = ChaosInjector(ChaosPlan(verify_fail_prob=1.0))
    svc.submit(delta)
    with pytest.raises(ChaosError) as ei:
        svc.run_round()  # the units ran — and retracted — before verify
    assert ei.value.delta_requeued
    assert _committed(svc) is values
    _assert_untouched(values, before)
    svc.chaos = None
    rep = svc.run_round()
    assert rep.materialization_ok and rep.metrics.retracted_nodes == 1
    _assert_untouched(values, before)
    _assert_from_scratch(svc, program)
    assert_stamps_hold(svc, program)


MUTUAL = """
a(X, Y) :- e(X, Y).
a(X, Y) :- b(X, Z), e(Z, Y).
b(X, Y) :- a(X, Y), f(X, Y).
"""


def test_a_head_that_gains_nothing_is_the_committed_relation():
    """``a`` and ``b`` are one SCC; an ``e`` edge no ``f`` fact matches
    grows ``a`` only. ``b`` comes back as the committed object — read,
    not cloned — and ``a`` as a new relation beside an untouched one."""
    program = parse_program(MUTUAL)
    edb = Database()
    for t in [(0, 1), (1, 2)]:
        edb.add_fact("e", t)
    edb.add_fact("f", (0, 1))
    svc = _service(program, edb)
    _serve(svc, Delta().insert("e", (2, 3)))
    (fix,) = _fix_nodes(svc)
    first = _committed(svc)
    was, before = first[fix], _snapshot(first)
    rep = _serve(svc, Delta().insert("e", (5, 6)))
    assert rep.metrics.continued_nodes == 1
    now = _committed(svc)[fix]
    assert now["b"] is was["b"]
    assert now["a"] is not was["a"] and (5, 6) not in was["a"]
    assert set(now["a"]) == set(was["a"]) | {(5, 6)}
    _assert_from_scratch(svc, program)
    # ... an f fact grows b, from a's committed rows
    rep = _serve(svc, Delta().insert("f", (5, 6)))
    assert rep.metrics.continued_nodes == 1
    assert (5, 6) in _committed(svc)[fix]["b"] and (5, 6) not in now["b"]
    assert _committed(svc)[fix]["a"] is now["a"]
    _assert_from_scratch(svc, program)
    _assert_untouched(first, before)


TWO_SCCS = TC + """
back(X, Y) :- edge(Y, X).
back(X, Z) :- back(X, Y), edge(Z, Y).
"""


def test_two_fixpoints_reading_one_relation_intern_its_delta_once(
    monkeypatch,
):
    """An EDB input's Δ⁺ is its Z-set, taken once per round and shared:
    however many nodes continue from a grown relation, its new facts are
    interned where they land in the EDB, and nowhere else."""
    program = parse_program(TWO_SCCS)
    svc = _service(program, _chain(6))
    _serve(svc, Delta().insert("edge", (6, 7)))
    _serve(svc, Delta().insert("edge", (7, 8)))
    calls = []
    real = InternPool.intern_fact

    def intern_fact(self, pred, fact):
        calls.append((pred, fact))
        return real(self, pred, fact)

    monkeypatch.setattr(InternPool, "intern_fact", intern_fact)
    rep = _serve(svc, Delta().insert("edge", (8, 9)).insert("edge", (9, 10)))
    assert rep.metrics.continued_nodes == 2
    assert sorted(calls) == [("edge", (8, 9)), ("edge", (9, 10))]
    _assert_from_scratch(svc, program)


# ----------------------------------------------------------------------
# (e) rounds that must not read a committed node value
# ----------------------------------------------------------------------
def _poison(values: list) -> None:
    """Make every committed fixpoint value wrong in place: whoever
    continues from (or falls back to) it serves a fact that is not one."""
    for value in values:
        if isinstance(value, dict):  # a fixpoint node's
            for rel in value.values():
                mirror = rel._columnar
                mirror.extend({tuple(0 for _ in range(rel.arity))})
                rel.adopt(mirror)


def test_a_degraded_round_reads_no_committed_value():
    program = parse_program(TC)
    svc = _service(program, _chain(6))
    _serve(svc, Delta().insert("edge", (6, 7)))
    assert _serve(svc, Delta().insert("edge", (7, 8))).metrics.continued_nodes == 1
    _poison(_committed(svc))
    svc.health.plan_round = lambda: True
    rep = _serve(svc, Delta().insert("edge", (8, 9)))  # strict: verified
    assert rep.metrics.degraded and rep.metrics.continued_nodes == 0
    _assert_from_scratch(svc, program)
    # what the degraded round committed is continued from by the probe
    svc.health.plan_round = lambda: False
    assert _serve(svc, Delta().insert("edge", (9, 10))).metrics.continued_nodes == 1
    _assert_from_scratch(svc, program)


def test_a_round_after_a_commit_without_values_recomputes():
    """A commit that hands over no node values — here a lenient round
    that failed its check — leaves nothing to continue from."""
    wl = live_workload("tc", seed=12)
    svc = _service(wl.program, wl.edb, strict=False)
    _serve(svc, wl.random_batch(2, delete_frac=0.0))
    _serve(svc, wl.random_batch(2, delete_frac=0.0))
    stale = _committed(svc)
    _install_liar(svc, "fix")
    svc.submit(wl.random_batch(3, delete_frac=0.0))
    assert not svc.run_round().materialization_ok
    assert _committed(svc) is None
    _poison(stale)
    rep = _serve(svc, wl.random_batch(3, delete_frac=0.0))
    assert rep.metrics.continued_nodes == 0
    assert rep.metrics.tasks_executed == rep.metrics.n_nodes
    _assert_from_scratch(svc, wl.program)
    # at the cache: no values, no committed side of any kind
    cache = CompiledProgramCache(wl.program)
    edb = svc.database()
    cache.commit(cache.compile(wl.program, edb, Delta()))
    grow = wl.random_batch(2, delete_frac=0.0)
    plan = cache.plan(cache.compile(wl.program, edb, grow))
    assert cache.stats()["hits"] == 1
    assert all(v is None for v in plan.old_values)


# ----------------------------------------------------------------------
# (f) one semi-naive loop, from scratch and Δ-seeded
# ----------------------------------------------------------------------
def _faces(db: Database) -> list:
    """Every relation ``db`` holds, with what each of its faces holds."""
    return [
        (
            rel,
            None if rel._tuples is None else set(rel._tuples),
            rel._columnar,
            None if rel._columnar is None else set(rel._columnar.rows),
        )
        for rel in db.relations.values()
    ]


def _strata_over(program, db, pool, delta=None) -> dict[str, set]:
    """``program``'s strata through ``evaluate_stratum`` over ``db`` —
    each seeded, with ``delta``, by it and by what the strata below it
    gained, as the fixpoint nodes of ``G`` chain — asserting that no
    relation handed in is written and that a head that gains nothing
    is still the relation handed in. Returns what each head gained."""
    gained: dict[str, set] = {}
    for stratum in DependencyGraph(program).stratify():
        rules = [
            (ri, r) for ri, r in enumerate(program.proper_rules)
            if r.head.predicate in stratum
        ]
        handed, before = dict(db.relations), _faces(db)
        seed = None if delta is None else {**delta, **gained}
        got = evaluate_stratum(rules, db, pool, delta=seed)
        for rel, tuples, mirror, rows in before:
            assert tuples is None or rel._tuples == tuples
            assert mirror is None or (
                rel._columnar is mirror and mirror.rows == rows
            )
        for p in stratum:
            kept = db.relations[p] is handed[p]
            assert kept == (set(db.relations[p]) == set(handed[p]))
            if delta is not None:
                assert kept == (p not in got)
        gained.update((p, set().union(*waves)) for p, waves in got.items())
    return gained


def _edb(e: set, f: set) -> Database:
    db = Database()
    for name, facts in (("e", e), ("f", f), ("a", ()), ("b", ())):
        db.relation(name, 2)
        for t in facts:
            db.add_fact(name, t)
    return db


@given(
    recursive=st.sets(st.sampled_from(SCC_RECURSIVE), min_size=1),
    e_facts=edges,
    f_facts=edges,
    e_more=edges,
    f_more=edges,
    columnar=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_evaluate_stratum_writes_nothing_handed_in_and_continues_exactly(
    recursive, e_facts, f_facts, e_more, f_more, columnar
):
    """Random SCC programs, both layouts: a from-scratch run, and a run
    seeded with the inputs' Δ⁺ over grown inputs and the committed
    heads, leave every relation handed in as it was; each lands on the
    from-scratch fixpoint of its inputs, and the seeded one reports as
    gained exactly the rows the committed heads did not hold."""
    program = parse_program("\n".join(SCC_BASE + sorted(recursive)))
    pool = InternPool() if columnar else None
    heads = ("a", "b")

    def facts(rows) -> set:
        return set(rows) if pool is None else set(pool.extern_rows(rows))

    old = _edb(e_facts, f_facts)
    _strata_over(program, old, pool)
    want_old = seminaive_evaluate(program, _edb(e_facts, f_facts))[0]
    committed = {p: old.relations[p] for p in heads}
    committed_facts = {p: set(rel) for p, rel in committed.items()}
    assert committed_facts == {p: set(want_old.relations[p]) for p in heads}

    grown = {"e": e_more - e_facts, "f": f_more - f_facts}
    new = _edb(e_facts | e_more, f_facts | f_more)
    if pool is not None:
        for p in ("e", "f"):
            new.relations[p].columnar(pool)
    delta = {
        p: rows if pool is None else pool.intern_facts(p, rows)
        for p, rows in grown.items()
    }
    db = Database({**new.relations, **committed})
    gained = _strata_over(program, db, pool, delta)
    want = seminaive_evaluate(program, new)[0]
    for p in heads:
        assert set(db.relations[p]) == set(want.relations[p])
        assert set(committed[p]) == committed_facts[p]
        assert facts(gained.get(p, ())) == (
            set(want.relations[p]) - committed_facts[p]
        )
