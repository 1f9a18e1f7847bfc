"""Differential guard: a rule that cannot fire yet stays in ``G``.

The program's one ``G`` holds every rule, including one that reads a
predicate with no facts, and the plan cache stays a hit while such a
predicate flips between empty and live. Its materializations equal the
cold compile round for round under every registered scheduler. A
:class:`~repro.verify.program.ProgramAnalysis` handed to the compiler
or the plan builder changes nothing, and a service serves the same
rounds whether or not its analysis was ever computed: nothing a round
runs reads it.
"""

import random

import pytest

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
from repro.runtime.service import UpdateStreamService
from repro.schedulers import scheduler_registry
from repro.verify.program import analyze_program

pytestmark = pytest.mark.timeout(300)

# `trail` reads `barrier`, which starts empty: the rule cannot fire
# until a barrier fact arrives, and it stays in `G` all along
DEAD_RULES = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
blocked(X) :- barrier(X).
trail(X, Y) :- path(X, Y), blocked(X).
"""

# `wide` contains a repairable cross product: the analyzer emits a
# join-order hint, the order the rule planner picks itself
HINTED = """
hop(X, Y) :- edge(X, Y).
wide(X, W) :- edge(X, Y), label(Z, W), edge(Y, Z).
"""


def _edb(edges, barriers=(), labels=()):
    db = Database()
    db.relation("edge", 2)
    db.relation("barrier", 1)
    for t in edges:
        db.add_fact("edge", t)
    for b in barriers:
        db.add_fact("barrier", (b,))
    if labels:
        db.relation("label", 2)
        for t in labels:
            db.add_fact("label", t)
    return db


def _edge_stream(rng, rounds):
    deltas = []
    pool = []
    for _ in range(rounds):
        d = Delta()
        for _ in range(rng.randint(1, 3)):
            t = (rng.randint(0, 5), rng.randint(0, 5))
            if pool and rng.random() < 0.3:
                d.delete("edge", pool[rng.randrange(len(pool))])
            else:
                d.insert("edge", t)
                pool.append(t)
        deltas.append(d)
    return deltas


def test_cold_pruned_compile_is_byte_identical():
    """``compile_update`` ignores the analysis: the never-firing
    `trail` rule stays in ``G``, and the round's trace is the same."""
    program = parse_program(DEAD_RULES)
    analysis = analyze_program(program)
    edb = _edb({(0, 1), (1, 2)})
    delta = Delta().insert("edge", (2, 3))

    plain = compile_update(program, edb, delta)
    fed = compile_update(program, edb, delta, analysis=analysis)
    assert fed.program is program
    assert plain.node_keys == fed.node_keys
    assert (plain.trace.changed_edges == fed.trace.changed_edges).all()
    assert (plain.trace.work == fed.trace.work).all()
    assert plain.edb_new.as_dict() == fed.edb_new.as_dict()


def test_pruning_stops_when_the_dead_predicate_goes_live():
    """A round on which `barrier` goes live compiles the same program."""
    program = parse_program(DEAD_RULES)
    edb = _edb({(0, 1), (1, 2)})
    delta = Delta().insert("barrier", (0,))
    cu = compile_update(program, edb, delta)
    assert cu.program is program
    plan = build_execution_plan(cu)
    values, _ = plan.execute_serial()
    assert plan.materialization(values).as_dict() == (
        seminaive_evaluate(program, cu.edb_new)[0].as_dict()
    )


@pytest.mark.parametrize("sched_name", sorted(scheduler_registry()))
def test_every_scheduler_matches_unpruned(sched_name):
    """The cached pipeline, driven concurrently by each
    scheduler, matches the cold pipeline round for round across a
    stream that flips `barrier` between empty and live — and serves it
    from one ``G`` and one plan, a hit on every round after the first."""
    factory = scheduler_registry()[sched_name]
    program = parse_program(DEAD_RULES)
    rng = random.Random(hash(sched_name) % 997)
    deltas = _edge_stream(rng, rounds=5)
    # barrier goes live in round 1 and empty again in round 3
    deltas[1].insert("barrier", (1,))
    deltas[3].delete("barrier", (1,))

    cache = CompiledProgramCache(program)
    edb_cold = _edb({(0, 1), (1, 2)})
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
            == cache.evaluate(cu2).as_dict()
        ), f"{label}: materializations differ"

        cache.commit(cu2, out2.values)
        edb_cold = cu1.edb_new
        edb_cached = cu2.edb_new
    assert cache.misses == 1 and cache.hits == len(deltas) - 1
    assert cache.structure_builds == cache.plan_binds == 1


def test_cache_hits_survive_steady_state_pruning():
    """While `barrier` stays empty the cache keeps its old-side reuse
    (the EDB keeps identity across rounds)."""
    program = parse_program(DEAD_RULES)
    cache = CompiledProgramCache(program)
    edb = _edb({(0, 1)})
    rng = random.Random(11)
    deltas = _edge_stream(rng, rounds=5)
    for delta in deltas:
        cu = cache.compile(program, edb, delta)
        cache.plan(cu)
        cache.commit(cu)
        edb = cu.edb_new
    assert cache.hits == len(deltas) - 1
    # one static DAG and one bound plan, restamped every round after
    # the first whatever depth the recursion reaches
    assert cache.structure_builds == cache.plan_binds == 1
    assert cache.plan_patches == len(deltas) - 1


def test_join_order_hints_do_not_change_results():
    program = parse_program(HINTED)
    analysis = analyze_program(program)
    assert analysis.join_orders  # the hint exists
    edb = _edb({(0, 1), (1, 2)}, labels={(2, 9), (5, 7)})
    delta = Delta().insert("edge", (2, 5)).insert("label", (3, 4))

    cu = compile_update(program, edb, delta)
    plain = build_execution_plan(cu)
    hinted = build_execution_plan(
        cu, join_orders=analysis.join_orders_for(cu.program)
    )
    v1, d1 = plain.execute_serial()
    v2, d2 = hinted.execute_serial()
    assert plain.materialization(v1).as_dict() == (
        hinted.materialization(v2).as_dict()
    ) == seminaive_evaluate(program, cu.edb_new)[0].as_dict()
    assert d1 == d2


def test_service_with_and_without_analysis_agree():
    """End to end: two services over the same stream — one whose
    analysis is computed before it serves, one that never computes it —
    commit identical materializations every round."""
    program = parse_program(DEAD_RULES)
    rng = random.Random(23)
    deltas = _edge_stream(rng, rounds=4)
    deltas[2].insert("barrier", (2,))

    results = {}
    for analyze in (False, True):
        svc = UpdateStreamService(
            program,
            _edb({(0, 1), (1, 2)}),
            scheduler_registry()["hybrid"](),
            workers=2,
        )
        try:
            if analyze:
                assert svc.analysis.program is program
            mats = []
            for delta in deltas:
                svc.submit(delta)
                report = svc.run_round()
                assert report.materialization_ok
                mats.append(svc.materialization().as_dict())
            # a served round never runs the analyzer
            assert ("analysis" in vars(svc)) is analyze
        finally:
            svc.close()
        results[analyze] = mats
    assert results[False] == results[True]
