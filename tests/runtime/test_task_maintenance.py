"""Non-recursive nodes maintain: the task units' differential suite.

A ``("task", …)`` unit with a committed value applies its inputs'
Z-sets through counted Δ-plans — a plain rule's derivation counts move,
an aggregate's touched groups are re-folded — and recomputes its whole
rule, counted, without a committed value, on a changed negated input or
on a Δ of a predicate its body repeats. Generated stratified programs
(:mod:`repro.workloads.generated`) under insert-only, delete-only and
mixed streams pin, round after round and per cell (three schedulers,
degraded, one chaos rollback):

* the materialization is row ``seminaive_evaluate`` of the EDB;
* the EDB is the stream's mirror;
* every task node's committed value — its row set and its counts or
  groups — is what the same round staged as a miss computes.
"""

from __future__ import annotations

import pytest

from repro.datalog import Database, Delta, parse_program, seminaive_evaluate
from repro.datalog.plancache import CompiledProgramCache
from repro.datalog.units import CountedRows
from repro.runtime import (
    ChaosInjector,
    ChaosPlan,
    UnitExecutionError,
    UpdateStreamService,
    live_workload,
)
from repro.schedulers import scheduler_registry
from repro.workloads.generated import UpdateStream, stratified_program

REGISTRY = scheduler_registry()

#: stream → deletion weight
STREAMS = {"insert": 0.0, "delete": 1.0, "mixed": 0.5}
ROUNDS = 6


def _service(program, edb, scheduler="hybrid", **kwargs):
    return UpdateStreamService(
        program, edb, REGISTRY[scheduler](), workers=2, **kwargs
    )


def _task_values(plan, values) -> dict:
    """Rule → the value its task node holds in ``values``."""
    program = plan.compiled.structure.program
    return {
        program.proper_rules[plan.compiled.node_keys[u.node][2]]:
            values[u.node]
        for u in plan.units if u.kind == "task"
    }


def _committed_tasks(svc) -> dict:
    cache = svc.plan_cache
    plan = cache._plan
    return _task_values(plan, cache._prev.values)


def _tasks_as_miss(svc, program, edb_old, delta) -> dict:
    """Rule → task value when the round is staged on a cache that has
    committed nothing — in the service's id space, so rules and rows
    compare."""
    cache = CompiledProgramCache(program)
    cache.pool = svc.plan_cache.pool
    plan = cache.plan(cache.compile(program, edb_old, delta))
    values, _ = plan.execute_serial()
    for unit in plan.units:
        if unit.kind == "task":
            assert values.notes[unit.node]["mode"] == "recompute"
    return _task_values(plan, values)


def assert_tasks_match_a_miss(svc, program, edb_old, delta) -> None:
    """Every task node the served round committed holds what a miss
    computes: the same row set and the same counts or groups."""
    if svc.plan_cache._prev.values is None:
        return
    want = _tasks_as_miss(svc, program, edb_old, delta)
    for rule, value in _committed_tasks(svc).items():
        assert isinstance(value, CountedRows), rule
        assert set(value) == set(want[rule]), rule
        assert value.counts == want[rule].counts, rule


def _check_round(svc, gen, stream, edb_old, delta, rep) -> None:
    assert rep.materialization_ok
    want, _ = seminaive_evaluate(gen.program, svc.database())
    assert svc.materialization().as_dict() == want.as_dict()
    facts = svc.database().as_dict()
    assert {p: facts.get(p, set()) for p in stream.mirror} == stream.mirror
    if not rep.metrics.noop:
        assert_tasks_match_a_miss(svc, gen.program, edb_old, delta)


def _serve_stream(seed, kind, scheduler="hybrid", degraded=False, **kwargs):
    gen = stratified_program(seed)
    stream = UpdateStream(gen, seed, delete_frac=STREAMS[kind])
    svc = _service(gen.program, gen.edb, scheduler, **kwargs)
    if degraded:
        svc.health.plan_round = lambda: True
    reports = []
    for _ in range(ROUNDS):
        edb_old, delta = svc.database(), stream.batch(3)
        svc.submit(delta)
        rep = svc.run_round()
        _check_round(svc, gen, stream, edb_old, delta, rep)
        reports.append(rep)
    return svc, reports


@pytest.mark.parametrize("kind", sorted(STREAMS))
@pytest.mark.parametrize("scheduler", ["hybrid", "levelbased", "logicblox"])
@pytest.mark.parametrize("seed", range(4))
def test_healthy_rounds_maintain_to_the_recomputed_value(
    seed, scheduler, kind
):
    svc, reports = _serve_stream(seed, kind, scheduler)
    assert reports[0].metrics.maintained_tasks == 0  # a miss maintains nothing
    maintained = sum(r.metrics.maintained_tasks for r in reports)
    assert svc.metrics.registry.counter("maintained_tasks").value == maintained
    # a warm round that changed anything maintained some task
    assert maintained > 0 or all(r.metrics.noop for r in reports[1:])


@pytest.mark.parametrize("kind", sorted(STREAMS))
@pytest.mark.parametrize("seed", range(4))
def test_degraded_rounds_recompute_counted(seed, kind):
    _svc, reports = _serve_stream(seed, kind, degraded=True)
    for rep in reports:
        assert rep.metrics.noop or rep.metrics.degraded
        assert rep.metrics.maintained_tasks == 0


@pytest.mark.parametrize("seed", range(4))
def test_a_failed_task_rolls_back_and_the_retry_maintains(seed):
    """Every task node of the plan dies at its first dispatch in the
    round after the miss: the round rolls back, its delta is re-queued,
    and the retry — maintaining from the untouched committed values —
    lands on what a miss computes."""
    gen = stratified_program(seed)
    stream = UpdateStream(gen, seed, delete_frac=0.5, cancel=0.0)
    svc = _service(gen.program, gen.edb, max_round_retries=2)
    failed = 0
    for i in range(ROUNDS):
        if i == 1:
            cache = svc.plan_cache
            plan = cache._plan
            svc.chaos = ChaosInjector(ChaosPlan(
                fail_units=[u.node for u in plan.units if u.kind == "task"],
                fail_round=svc._maintain_epoch,
            ))
        edb_old, delta = svc.database(), stream.batch(3)
        svc.submit(delta)
        try:
            rep = svc.run_round()
        except UnitExecutionError as exc:
            assert exc.delta_requeued and i == 1
            failed += 1
            assert svc.plan_cache.stats()["rollbacks"] == 1
            assert svc.database().as_dict() == edb_old.as_dict()
            rep = svc.run_round()
            assert rep.metrics.maintained_tasks > 0
        _check_round(svc, gen, stream, edb_old, delta, rep)
    assert failed == 1


# ----------------------------------------------------------------------
# which rounds maintain, by hand
# ----------------------------------------------------------------------
SALES = """
total(C, sum(Q)) :- sale(S, P, Q), cat(P, C).
lines(S, count(Q)) :- sale(S, P, Q).
best(C, max(Q)) :- sale(S, P, Q), cat(P, C).
pair(X, Z) :- link(X, Y), link(Y, Z).
quiet(S) :- open(S), !busy(S).
busy(S) :- lines(S, N), N >= 2.
"""


def _sales() -> Database:
    db = Database()
    for t in [("s1", "p1", 3), ("s1", "p2", 5), ("s2", "p1", 4)]:
        db.add_fact("sale", t)
    for t in [("p1", "c1"), ("p2", "c2")]:
        db.add_fact("cat", t)
    for t in [(0, 1), (1, 2)]:
        db.add_fact("link", t)
    for s in ("s1", "s2", "s3"):
        db.add_fact("open", (s,))
    return db


def _serve(svc, delta):
    edb_old = svc.database()
    svc.submit(delta)
    rep = svc.run_round()
    assert rep is not None and rep.materialization_ok
    want, _ = seminaive_evaluate(svc.program, svc.database())
    assert svc.materialization().as_dict() == want.as_dict()
    assert_tasks_match_a_miss(svc, svc.program, edb_old, delta)
    return rep


def _record_modes(svc) -> dict[str, str]:
    """Head predicate → the mode its task unit last ran in, for the
    plan the service committed last (bound once, so every later round
    runs these units)."""
    cache = svc.plan_cache
    plan = cache._plan
    rules = plan.compiled.structure.program.proper_rules
    modes: dict[str, str] = {}
    for unit in plan.units:
        if unit.kind != "task":
            continue
        head = rules[plan.compiled.node_keys[unit.node][2]].head.predicate

        def run(values, run=unit.run, node=unit.node, head=head):
            out = run(values)
            modes[head] = values.notes[node]["mode"]
            return out

        unit.run = run
    return modes


def test_a_retraction_maintains_and_a_group_that_empties_goes():
    program = parse_program(SALES)
    svc = _service(program, _sales())
    _serve(svc, Delta().insert("sale", ("s3", "p2", 1)))  # the miss
    modes = _record_modes(svc)
    # lines(s3, 1) goes, busy's one read of it with it: no row of busy
    # changes, so quiet never runs
    _serve(svc, Delta().delete("sale", ("s3", "p2", 1)))
    assert modes == dict.fromkeys(["total", "lines", "best", "busy"], "maintain")
    # s1's sale of p2 is c2's last: the group goes from total and best;
    # lines(s1) drops to 1, busy loses s1 and quiet's negated read changed
    modes.clear()
    _serve(svc, Delta().delete("sale", ("s1", "p2", 5)))
    assert modes == {
        **dict.fromkeys(["total", "lines", "best", "busy"], "maintain"),
        "quiet": "recompute",
    }
    mat = svc.materialization().as_dict()
    assert not any(c == "c2" for c, _q in mat["total"] | mat["best"])
    assert ("s1", 1) in mat["lines"] and ("s1",) in mat["quiet"]


def test_a_counted_row_survives_until_its_last_derivation_goes():
    program = parse_program("reach(X) :- link(X, Y).\n" + SALES)
    svc = _service(program, _sales())
    _serve(svc, Delta().insert("open", ("s4",)))
    reach = next(r for r in _committed_tasks(svc) if r.head.predicate == "reach")
    was = _committed_tasks(svc)[reach]
    zero = (svc.plan_cache.pool.intern(0),)
    assert was.counts[zero] == 1
    # a second derivation of reach(0): its count moves, its row set does
    # not — a new value that diffs unchanged
    _serve(svc, Delta().insert("link", (0, 2)))
    now = _committed_tasks(svc)[reach]
    assert now is not was and now == was and now.counts[zero] == 2
    assert was.counts[zero] == 1  # the committed value was not written
    _serve(svc, Delta().delete("link", (0, 1)))
    assert (0,) in svc.materialization().relations["reach"]
    _serve(svc, Delta().delete("link", (0, 2)))
    assert (0,) not in svc.materialization().relations["reach"]


def test_a_repeated_predicate_or_a_changed_negation_recomputes():
    program = parse_program(SALES)
    svc = _service(program, _sales())
    _serve(svc, Delta().insert("link", (2, 3)))
    modes = _record_modes(svc)
    # pair reads link twice: recompute
    _serve(svc, Delta().insert("link", (3, 4)))
    assert modes == {"pair": "recompute"}
    # lines gains s3, too few for busy: busy maintains, quiet never runs
    modes.clear()
    _serve(svc, Delta().insert("sale", ("s3", "p1", 2)))
    assert modes == dict.fromkeys(["total", "lines", "best", "busy"], "maintain")
    # lines(s3) = 2 makes s3 busy: quiet's negated read changed
    modes.clear()
    _serve(svc, Delta().insert("sale", ("s3", "p2", 2)))
    assert modes == {
        **dict.fromkeys(["total", "lines", "best", "busy"], "maintain"),
        "quiet": "recompute",
    }
    assert ("s3",) not in svc.materialization().relations["quiet"]


def test_a_moved_derivation_is_no_change_and_activates_nothing():
    """A third sale of s1: ``lines(s1)`` changes row, and ``busy(s1)``'s
    one derivation moves from the old row to the new — no net change, so
    busy comes back as the committed value itself and quiet never runs."""
    program = parse_program(SALES)
    svc = _service(program, _sales())
    _serve(svc, Delta().insert("sale", ("s2", "p2", 1)))
    modes = _record_modes(svc)
    before = _committed_tasks(svc)
    _serve(svc, Delta().insert("sale", ("s1", "p1", 9)))
    assert modes == dict.fromkeys(["total", "lines", "best", "busy"], "maintain")
    after = _committed_tasks(svc)
    for rule in after:
        if rule.head.predicate in ("busy", "quiet", "pair"):
            assert after[rule] is before[rule]


def test_the_served_programs_maintain_on_every_warm_round():
    wl = live_workload("analytics", seed=5)
    svc = _service(wl.program, wl.edb)
    counts = [
        _serve(svc, wl.random_batch(2)).metrics.maintained_tasks
        for _ in range(6)
    ]
    assert counts[0] == 0 and all(c > 0 for c in counts[1:])
