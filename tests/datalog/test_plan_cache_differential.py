"""Differential harness: the cached static plan vs cold compilation.

The plan cache (:mod:`repro.datalog.plancache`) restamps one static
DAG — one fixpoint node per recursive SCC — round over round, diffing
against and continuing from what the committed round left. The cold
side compiles each round from nothing (:func:`compile_update`) and runs
it as a miss on a freshly bound plan (:func:`build_execution_plan`).
For any program and any update stream, round by round, both must leave
exactly the row from-scratch materialization
(:func:`~repro.datalog.seminaive_evaluate`, the oracle), the cached
plan's change flags must say exactly which relations changed, and its
own check (``cache.evaluate``) must agree — under every registered
scheduler.

Two layers of evidence:

* hypothesis-generated rule programs + seeded update streams, run
  through both pipelines with the serial reference executor;
* every registered scheduler driving the *same* cached plan through the
  concurrent executor, compared against the cold plan's outcome.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.schedulers.logicblox as logicblox
from repro.dag import Dag
from repro.datalog import (
    CompiledProgramCache,
    Database,
    Delta,
    compile_update,
    parse_program,
    seminaive_evaluate,
)
from repro.datalog.units import build_execution_plan
from repro.runtime.executor import RoundExecutor
from repro.schedulers import scheduler_registry
from repro.sim import simulate

pytestmark = pytest.mark.timeout(300)

TC = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
"""

NONLINEAR = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), path(Y, Z).
"""

REACH_NEG = """
node(X) :- edge(X, Y).
node(Y) :- edge(X, Y).
reach(X) :- source(X).
reach(Y) :- reach(X), edge(X, Y).
dead(X) :- node(X), !reach(X).
"""

TWO_STRATA = """
link(X, Y) :- edge(X, Y).
link(X, Y) :- edge(Y, X).
comp(X, Z) :- link(X, Z).
comp(X, Z) :- comp(X, Y), link(Y, Z).
big(X) :- comp(X, Y), comp(Y, X).
"""

PROGRAMS = {
    "tc": TC,
    "nonlinear": NONLINEAR,
    "negation": REACH_NEG,
    "two-strata": TWO_STRATA,
}


def _edb(edges, sources=()):
    db = Database()
    db.relation("edge", 2)
    db.relation("source", 1)
    for t in edges:
        db.add_fact("edge", t)
    for s in sources:
        db.add_fact("source", (s,))
    return db


def _stream(rng, rounds, known_edges):
    """A seeded update stream of insert/delete batches over ``edge``."""
    deltas = []
    pool = list(known_edges)
    for _ in range(rounds):
        d = Delta()
        for _ in range(rng.randint(1, 4)):
            t = (rng.randint(0, 6), rng.randint(0, 6))
            if pool and rng.random() < 0.4:
                d.delete("edge", pool[rng.randrange(len(pool))])
            else:
                d.insert("edge", t)
                pool.append(t)
        deltas.append(d)
    return deltas


def _run_cold(program, edb, delta):
    cu = compile_update(program, edb, delta)
    plan = build_execution_plan(cu)
    values, diffs = plan.execute_serial()
    return cu, plan, plan.materialization(values).as_dict(), diffs


def _run_cached(cache, program, edb, delta):
    cu = cache.compile(program, edb, delta)
    plan = cache.plan(cu)
    values, diffs = plan.execute_serial()
    mat = plan.materialization(values).as_dict()
    return cu, plan, mat, diffs, values


def _assert_round_identical(cache, cold, cached, label):
    cu1, _p1, mat1, _diffs1 = cold
    cu2, plan2, mat2, diffs2, _values = cached
    assert mat1 == mat2, f"{label}: materializations differ"
    expected = seminaive_evaluate(cu1.program, cu1.edb_new)[0].as_dict()
    assert mat1 == expected, f"{label}: cold diverges"
    assert cache.evaluate(cu2).as_dict() == mat1, (
        f"{label}: the cache's from-scratch check differs"
    )
    assert not cu2.trace.changed_edges.any(), (
        f"{label}: a cached compile stamped an outcome"
    )
    # the serial oracle's flag on a predicate's final node says whether
    # the relation changed between the two from-scratch materializations
    # (a node with no committed old value always reads as changed)
    old = seminaive_evaluate(cu1.program, cu1.edb_old)[0].as_dict()
    for pred, node in plan2.final_nodes.items():
        if plan2.old_values[node] is None:
            assert diffs2[node], f"{label}: {pred} has no old value"
        else:
            assert diffs2[node] == (old[pred] != mat1[pred]), (
                f"{label}: change flag of {pred} is wrong"
            )


@given(
    key=st.sampled_from(sorted(PROGRAMS)),
    edges=st.sets(
        st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=10
    ),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=20, deadline=None)
def test_cached_pipeline_is_byte_identical_serial(key, edges, seed):
    """Hypothesis sweep: every round of every stream matches cold."""
    program = parse_program(PROGRAMS[key])
    rng = random.Random(seed)
    deltas = _stream(rng, rounds=4, known_edges=edges)

    cache = CompiledProgramCache(program)
    edb_cold = _edb(edges, sources=(0, 3))
    edb_cached = edb_cold.copy()
    for i, delta in enumerate(deltas):
        cold = _run_cold(program, edb_cold, delta)
        cached = _run_cached(cache, program, edb_cached, delta)
        _assert_round_identical(cache, cold, cached, f"{key} round {i}")
        cache.commit(cached[0], cached[4])
        edb_cold = cold[0].edb_new
        edb_cached = cached[0].edb_new
    # the cache must actually have been exercised, not silently cold
    assert cache.hits + cache.misses == len(deltas)
    assert cache.hits >= len(deltas) - 1


@pytest.mark.parametrize("sched_name", sorted(scheduler_registry()))
def test_every_scheduler_matches_cold_concurrently(sched_name):
    """Each registered scheduler executes the cached static plan to
    the materialization a cold plan reaches, with the change flags the
    serial oracle computes for the nodes it ran.
    """
    factory = scheduler_registry()[sched_name]
    program = parse_program(TWO_STRATA)
    rng = random.Random(hash(sched_name) % 1000)
    edges = {(0, 1), (1, 2), (2, 0), (3, 4)}
    deltas = _stream(rng, rounds=5, known_edges=edges)

    cache = CompiledProgramCache(program)
    edb_cold = _edb(edges)
    edb_cached = edb_cold.copy()
    for i, delta in enumerate(deltas):
        cu1 = compile_update(program, edb_cold, delta)
        plan1 = build_execution_plan(cu1)
        out1 = RoundExecutor(plan1, factory(), workers=3).run()

        cu2 = cache.compile(program, edb_cached, delta)
        plan2 = cache.plan(cu2)
        out2 = RoundExecutor(plan2, factory(), workers=3).run()

        label = f"{sched_name} round {i}"
        assert (
            plan1.materialization(out1.values).as_dict()
            == plan2.materialization(out2.values).as_dict()
            == seminaive_evaluate(program, cu1.edb_new)[0].as_dict()
        ), f"{label}: materializations differ"
        # the concurrent outcome must also match the serial oracle
        _v, oracle_diffs = plan2.execute_serial()
        executed = {n: oracle_diffs[n] for n in out2.diffs}
        assert out2.diffs == executed, f"{label}: diverges from oracle"
        if i > 0:  # diffed against committed values: edge or nothing
            assert cu2.trace.initial_tasks.tolist() in (
                [], [plan2.final_nodes["edge"]]
            )

        cache.commit(cu2, out2.values)
        edb_cold = cu1.edb_new
        edb_cached = cu2.edb_new
    assert cache.hits == len(deltas) - 1


def test_rule_edit_mid_stream_invalidates_and_recovers():
    """Swapping the program mid-stream falls back to a cold compile."""
    prog_a = parse_program(TC)
    prog_b = parse_program(NONLINEAR)
    cache = CompiledProgramCache(prog_a)
    edb = _edb({(0, 1), (1, 2)})

    cu = cache.compile(prog_a, edb, Delta().insert("edge", (2, 3)))
    cache.plan(cu)
    cache.commit(cu)
    assert cache.misses == 1 and cache.invalidations == 0

    # same EDB, different rules: everything cached is invalid
    cu2 = cache.compile(prog_b, cu.edb_new, Delta().insert("edge", (3, 4)))
    plan2 = cache.plan(cu2)
    assert cache.invalidations == 1
    assert cache.misses == 2  # no stale old-side reuse across programs
    values, _ = plan2.execute_serial()
    assert plan2.materialization(values).as_dict() == seminaive_evaluate(
        prog_b, cu2.edb_new
    )[0].as_dict()


def test_edb_schema_change_invalidates():
    """An out-of-band EDB with a different schema flushes the cache."""
    program = parse_program(TC)
    cache = CompiledProgramCache(program)
    edb = _edb({(0, 1)})
    cu = cache.compile(program, edb, Delta().insert("edge", (1, 2)))
    cache.commit(cu)

    other = Database()
    other.relation("edge", 2)
    other.add_fact("edge", (0, 1))
    other.relation("weight", 3)  # new predicate: schema differs
    cache.compile(program, other, Delta().insert("edge", (5, 6)))
    assert cache.invalidations == 1


def test_delta_on_an_unmentioned_predicate_compiles_cold_and_cached():
    """A delta touching a predicate no rule mentions activates nothing
    and is carried through the materialization, cache on and off."""
    program = parse_program(TC)
    edb = _edb({(0, 1), (1, 2)})
    cache = CompiledProgramCache(program)
    cache.commit(cache.compile(program, edb, Delta().insert("edge", (2, 3))))
    edb = compile_update(program, edb, Delta().insert("edge", (2, 3))).edb_new

    delta = Delta().insert("other", ("x",))
    cold = _run_cold(program, edb, delta)
    cached = _run_cached(cache, program, edb, delta)
    cu, plan, mat, _diffs, _values = cached
    assert mat == cold[2] == cache.evaluate(cu).as_dict()
    # the commit above handed over no node values, so all of G runs
    # here; commit them and the next such delta activates nothing
    cache.commit(cu, cached[4])
    cu = cache.compile(program, cu.edb_new, Delta().insert("other", ("y",)))
    plan = cache.plan(cu)
    assert cu.trace.initial_tasks.tolist() == []
    assert cu.trace.n_active == 0
    values, diffs = plan.execute_serial()
    assert not any(diffs.values())
    mat = plan.materialization(values).as_dict()
    assert mat["other"] == {("x",), ("y",)}
    assert ("x",) in cu.edb_new.relations["other"]


# ----------------------------------------------------------------------
# what is built once and what a round restamps
# ----------------------------------------------------------------------
@pytest.mark.parametrize("depth", [10, 30])
def test_touched_relation_inherits_indexes_at_any_depth(depth):
    """A round derives the one EDB relation its delta touches from its
    predecessor — row and columnar indexes cloned, never rebuilt — and
    carries every other relation by identity, however deep the chain
    the fixpoint node then walks."""
    program = parse_program(TC)
    cache = CompiledProgramCache(program)
    edb = _edb({(i, i + 1) for i in range(depth)})
    patterns = None
    for i in range(5):
        delta = Delta().insert("edge", (depth // 2, depth + 5 + i))
        cu = cache.compile(program, edb, delta)
        edge = cu.edb_new.relations["edge"]
        if i > 0:
            assert cu.edb_new.relations["source"] is edb.relations["source"]
            assert edge is not edb.relations["edge"]
            assert edge.columnar(cache.pool).index_patterns() == patterns
        plan = cache.plan(cu)
        values, _ = plan.execute_serial()
        assert plan.materialization(values).as_dict() == (
            cache.evaluate(cu).as_dict()
        )
        patterns = edge.columnar(cache.pool).index_patterns()
        assert patterns  # the fixpoint node probed edge through an index
        cache.commit(cu, values)
        edb = cu.edb_new
    # `source` is in the EDB but not in the program: no node carries it
    assert [u.label for u in plan.units] == ["edb:edge", "fix@1", "path@1.0"]


def test_same_structure_rounds_share_dag_plan_and_scheduler_memo():
    """Every round of a program restamps one structure — one ``Dag``,
    one bound plan, one set of interval lists, kept on the ``Dag`` —
    and still reports the modelled pre-computation cost; a round whose
    fixpoint runs deeper is the same structure."""
    program = parse_program(TC)
    cache = CompiledProgramCache(program)
    sched = scheduler_registry()["hybrid"]()
    edb = _edb({(i, i + 1) for i in range(6)})
    rounds = [
        Delta().insert("edge", (2, 50)),
        Delta().delete("edge", (2, 50)),
        Delta().insert("edge", (2, 50)),
        # extending the chain adds a fixpoint iteration, not a node
        Delta().insert("edge", (6, 7)),
    ]
    seen = []
    for delta in rounds:
        cu = cache.compile(program, edb, delta)
        plan = cache.plan(cu)
        out = RoundExecutor(plan, sched, workers=2).run()
        assert out.precompute_ops > 0
        intervals = cu.trace.dag.derived(
            "logicblox.ancestor_intervals", _unbuilt
        )
        seen.append((
            cu.trace.dag, plan, intervals, cu.trace.levels,
            out.precompute_ops, out.precompute_memory_cells,
        ))
        cache.commit(cu, out.values)
        edb = cu.edb_new
    for later in seen[1:]:
        assert all(a is b for a, b in zip(seen[0][:4], later[:4]))
        assert later[4:] == seen[0][4:]
    assert cache.structure_builds == 1 and cache.plan_binds == 1
    assert cache.plan_patches == len(rounds) - 1


def _unbuilt(dag):
    raise AssertionError("the round's scheduler built no interval lists")


def test_commit_without_values_keeps_the_edb_and_drops_the_values():
    """``compile → plan → commit`` with no execution in between (the
    benchmark harness's probe): every following compile is still a hit,
    but with no node values to diff against each round runs all of
    ``G`` — stale values are never promoted."""
    program = parse_program(TWO_STRATA)
    cache = CompiledProgramCache(program)
    edb = _edb({(0, 1), (1, 2), (2, 0)})
    deltas = _stream(random.Random(7), rounds=4, known_edges=set())

    cu = cache.compile(program, edb, deltas[0])
    plan = cache.plan(cu)
    sources = cu.trace.initial_tasks.tolist()
    assert sources and all(plan.old_values[n] is None for n in sources)
    values, _ = plan.execute_serial()
    cache.commit(cu, values)
    assert cache.misses == 1

    # a round diffed against committed values: only `edge` is initial
    cu = cache.compile(program, cu.edb_new, deltas[1])
    plan = cache.plan(cu)
    assert cu.trace.initial_tasks.tolist() == [plan.final_nodes["edge"]]
    assert all(v is not None for v in plan.old_values)
    cache.commit(cu)  # never executed: its values must not survive

    for delta in deltas[2:]:
        cu = cache.compile(program, cu.edb_new, delta)
        plan = cache.plan(cu)
        assert cu.trace.initial_tasks.tolist() == sources
        assert all(v is None for v in plan.old_values)
        values, diffs = plan.execute_serial()
        assert all(diffs.values())
        assert plan.materialization(values).as_dict() == (
            cache.evaluate(cu).as_dict()
        )
        cache.commit(cu)
    assert cache.misses == 1 and cache.hits == 3

    # a store that leaves a node without a value is not "completed"
    cu = cache.compile(program, cu.edb_new, Delta().insert("edge", (9, 9)))
    plan = cache.plan(cu)
    cache.commit(cu, plan.new_store())
    cu = cache.compile(program, cu.edb_new, Delta().insert("edge", (9, 8)))
    assert cu.trace.initial_tasks.tolist() == sources


def test_simulator_gets_no_scheduler_memo(monkeypatch):
    """…because there is none to get: pre-computation lives on the
    ``Dag``. Every ``simulate`` run over one ``Dag`` — whichever
    scheduler, whichever instance — reads one interval-list build and
    still reports the modelled cost of building it, as the paper's
    per-run accounting does; an ``==``-equal but distinct ``Dag``
    shares nothing."""
    built = []
    real = logicblox.IntervalIndex

    def counting(dag):
        built.append(dag)
        return real(dag)

    monkeypatch.setattr(logicblox, "IntervalIndex", counting)
    program = parse_program(TC)
    cu = compile_update(
        program, _edb({(0, 1), (1, 2)}), Delta().insert("edge", (2, 3))
    )
    registry = scheduler_registry()
    runs = [
        simulate(cu.trace, registry[name](), processors=2)
        for name in ("logicblox", "logicblox", "hybrid")
    ]
    assert len(built) == 1

    dag = cu.trace.dag
    twin = Dag(dag.n_nodes, dag.edge_array())
    assert twin == dag and twin is not dag
    other = dataclasses.replace(cu.trace, dag=twin)
    runs.append(simulate(other, registry["logicblox"](), processors=2))
    assert len(built) == 2

    for run in runs:
        assert run.precompute_ops > 0 and run.precompute_memory_cells > 0
    plain = [runs[0], runs[1], runs[3]]
    assert len({r.precompute_ops for r in plain}) == 1
    assert len({r.precompute_memory_cells for r in plain}) == 1
    # Hybrid adds its level pass to the same lists
    assert runs[2].precompute_ops > runs[0].precompute_ops
