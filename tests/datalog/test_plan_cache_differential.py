"""Differential harness: cached and cold compilation are byte-identical.

The plan cache (:mod:`repro.datalog.plancache`) must be a pure
optimization: for any program and any update stream, round by round,
the cached pipeline must produce exactly what cold compilation
produces — the same materializations, the same activation flags, the
same serial-oracle results — under every registered scheduler.

Two layers of evidence:

* hypothesis-generated rule programs + seeded update streams, run
  through both pipelines with the serial reference executor;
* every registered scheduler driving the *same* cached plan through the
  concurrent executor, compared against the cold plan's outcome.
"""

import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.datalog.plancache as plancache
import repro.schedulers.logicblox as logicblox
from repro.datalog import (
    CompiledProgramCache,
    Database,
    Delta,
    compile_update,
    parse_program,
)
from repro.datalog.plancache import RelationIndexCache
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
    return cu, plan, mat, diffs


def _assert_round_identical(cold, cached, label):
    cu1, _p1, mat1, diffs1 = cold
    cu2, _p2, mat2, diffs2 = cached
    assert mat1 == mat2, f"{label}: materializations differ"
    assert diffs1 == diffs2, f"{label}: serial-oracle change flags differ"
    assert cu1.node_keys == cu2.node_keys, f"{label}: DAG structure differs"
    assert (
        cu1.trace.changed_edges.tolist() == cu2.trace.changed_edges.tolist()
    ), f"{label}: compiled activation flags differ"
    assert (
        cu1.trace.initial_tasks.tolist() == cu2.trace.initial_tasks.tolist()
    ), f"{label}: initial task sets differ"
    assert cu1.db_new.as_dict() == cu2.db_new.as_dict(), (
        f"{label}: recorded new materializations differ"
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
        _assert_round_identical(cold, cached, f"{key} round {i}")
        cache.commit(cached[0])
        edb_cold = cold[0].edb_new
        edb_cached = cached[0].edb_new
    # the cache must actually have been exercised, not silently cold
    assert cache.hits + cache.misses == len(deltas)
    assert cache.hits >= len(deltas) - 1


@pytest.mark.parametrize("sched_name", sorted(scheduler_registry()))
def test_every_scheduler_matches_cold_concurrently(sched_name):
    """Each registered scheduler executes the cached plan to the same
    outcome — values, change flags, materialization — as the cold plan.
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
        assert out1.diffs == out2.diffs, f"{label}: change flags differ"
        assert (
            plan1.materialization(out1.values).as_dict()
            == plan2.materialization(out2.values).as_dict()
        ), f"{label}: materializations differ"
        # the concurrent outcome must also match the serial oracle
        _v, oracle_diffs = plan2.execute_serial()
        executed = {n: oracle_diffs[n] for n in out2.diffs}
        assert out2.diffs == executed, f"{label}: diverges from oracle"

        cache.commit(cu2)
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
    ref = compile_update(prog_b, cu.edb_new, Delta().insert("edge", (3, 4)))
    assert (
        plan2.materialization(values).as_dict() == ref.db_new.as_dict()
    )


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
    _assert_round_identical(cold, cached, "unmentioned predicate")
    cu, _plan, mat, diffs = cached
    assert cu.trace.initial_tasks.tolist() == []
    assert cu.trace.n_active == 0
    assert not any(diffs.values())
    assert mat["other"] == {("x",)}
    assert ("x",) in cu.edb_new.relations["other"]


# ----------------------------------------------------------------------
# what a round rebuilds and what it restamps
# ----------------------------------------------------------------------
def _chain_rounds(cache, program, depth, rounds):
    """Serve ``rounds`` rounds over a ``depth``-edge chain, each hanging
    a new leaf off the middle (every ``path@k`` past it is a fact set
    never seen before); relation-cache builds + derives of each round."""
    edb = _edb({(i, i + 1) for i in range(depth)})
    built = []
    for i in range(rounds):
        delta = Delta().insert("edge", (depth // 2, depth + 5 + i))
        before = cache.relations.builds + cache.relations.derives
        cu = cache.compile(program, edb, delta)
        plan = cache.plan(cu)
        values, _ = plan.execute_serial()
        assert plan.materialization(values).as_dict() == cu.db_new.as_dict()
        cache.commit(cu)
        edb = cu.edb_new
        built.append(
            cache.relations.builds + cache.relations.derives - before
        )
    return built


def test_relation_builds_per_round_do_not_grow_with_depth():
    """A Δ-restricted rule never scans its own predicate, so a round
    indexes the changed EDB relation and nothing per iteration: the
    per-round build count on a 30-deep chain is the 10-deep one's."""
    program = parse_program(TC)
    per_depth = {}
    for depth in (10, 30):
        cache = CompiledProgramCache(program)
        per_depth[depth] = _chain_rounds(cache, program, depth, rounds=5)[1:]
    assert per_depth[30] == per_depth[10]
    assert max(per_depth[30]) <= 2


def test_same_structure_rounds_share_dag_plan_and_scheduler_memo():
    """Two same-structure rounds restamp one skeleton — one ``Dag``, one
    bound plan, one set of interval lists — and still report the
    modelled pre-computation cost of a cold round; a round that unrolls
    further gets a skeleton of its own."""
    program = parse_program(TC)
    cache = CompiledProgramCache(program)
    sched = scheduler_registry()["hybrid"]()
    edb = _edb({(i, i + 1) for i in range(6)})
    toggles = [
        Delta().insert("edge", (2, 50)),
        Delta().delete("edge", (2, 50)),
        Delta().insert("edge", (2, 50)),
    ]
    seen = []
    for delta in toggles:
        cu = cache.compile(program, edb, delta)
        plan = cache.plan(cu)
        out = RoundExecutor(plan, sched, workers=2).run()
        cold = RoundExecutor(
            build_execution_plan(compile_update(program, edb, delta)),
            scheduler_registry()["hybrid"](),
            workers=2,
        ).run()
        assert out.precompute_ops == cold.precompute_ops > 0
        assert out.precompute_memory_cells == cold.precompute_memory_cells
        (intervals,) = plan.sched_memo.values()
        seen.append((cu.trace.dag, plan, plan.sched_memo, intervals))
        cache.commit(cu)
        edb = cu.edb_new
    # rounds 1 and 2 toggle the same edge: one structure throughout
    for later in seen[1:]:
        assert all(a is b for a, b in zip(seen[0], later))
    assert cache.structure_builds == 1 and cache.plan_binds == 1

    # extending the chain adds an iteration: a new structure
    cu = cache.compile(program, edb, Delta().insert("edge", (6, 7)))
    plan = cache.plan(cu)
    assert cu.trace.dag is not seen[0][0]
    assert plan is not seen[0][1] and plan.sched_memo is not seen[0][2]
    assert cache.structure_builds == 2 and cache.plan_binds == 2


def test_simulator_gets_no_scheduler_memo(monkeypatch):
    """``simulate`` hands every run a fresh memo: two runs over one
    trace build the interval index twice, as the paper's accounting of
    pre-computation per run assumes."""
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
    sched = scheduler_registry()["logicblox"]()
    first = simulate(cu.trace, sched, processors=2)
    second = simulate(cu.trace, sched, processors=2)
    assert len(built) == 2
    assert first.precompute_ops == second.precompute_ops


def test_relation_cache_builds_outside_the_lock(monkeypatch):
    """Two lanes missing on one value build concurrently — neither
    holds the lock while it loops over the facts — and the first to
    publish wins: one object for both callers, one counted build."""
    both_building = threading.Barrier(2, timeout=10)

    class Rendezvous(plancache.Relation):
        def __init__(self, name, arity):
            super().__init__(name, arity)
            both_building.wait()

    monkeypatch.setattr(plancache, "Relation", Rendezvous)
    cache = RelationIndexCache()
    facts = frozenset((i, i + 1) for i in range(50))
    got = []

    def lane():
        got.append(cache.get("edge", 2, facts))

    lanes = [threading.Thread(target=lane) for _ in range(2)]
    for t in lanes:
        t.start()
    for t in lanes:
        t.join(timeout=20)
    assert not any(t.is_alive() for t in lanes)
    assert len(got) == 2 and got[0] is got[1]
    assert set(got[0]) == facts
    assert cache.builds == 1 and cache.hits == 1 and len(cache) == 1
