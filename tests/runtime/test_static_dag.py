"""The served DAG is the program's, not the answer's.

A healthy round schedules one static DAG per program — EDB sources,
the tasks and predicate nodes of non-recursive strata, one fixpoint
node per recursive SCC — and lets execution reveal what changed. These
tests pin that architecture (what is evaluated when, what is built
once), the shapes a fixpoint node newly owns, and that the one
from-scratch evaluation left — the ``verify`` check — still catches a
unit that returns the wrong facts.
"""

from __future__ import annotations

import pytest

import repro.datalog.plancache as plancache
import repro.datalog.seminaive as seminaive
import repro.datalog.units as units
from repro.datalog import Database, Delta, parse_program, seminaive_evaluate
from repro.obs import TraceRecorder
from repro.runtime import (
    ChaosPlan,
    HealthState,
    MaterializationDivergenceError,
    UnitExecutionError,
    UpdateStreamService,
    live_workload,
)
from repro.schedulers import scheduler_registry

from .conftest import edb_is_mirror

REGISTRY = scheduler_registry()

#: a recursive SCC (``reach``) with a negation stratum, an aggregate
#: stratum and a plain stratum directly above it, beside a
#: non-recursive stratum (``n``) over the same EDB relation
ABOVE_FIX = """
reach(X) :- src(X).
reach(Y) :- reach(X), e(X, Y).
n(X) :- e(X, Y).
n(Y) :- e(X, Y).
unreached(X) :- n(X), !reach(X).
reached(count(X)) :- reach(X).
far(X) :- reach(X), big(X).
"""


def _above_fix_edb() -> Database:
    db = Database()
    for t in [(0, 1), (1, 2), (2, 3), (4, 5)]:
        db.add_fact("e", t)
    db.add_fact("src", (0,))
    db.add_fact("big", (3,))
    return db


def _service(program, edb, scheduler="hybrid", **kwargs):
    return UpdateStreamService(
        program, edb, REGISTRY[scheduler](), workers=2, **kwargs
    )


def _serve(svc, delta):
    svc.submit(delta)
    rep = svc.run_round()
    assert rep is not None and rep.materialization_ok
    return rep


def _ran(rep) -> set[str]:
    """Labels of the nodes the round's recorded schedule executed."""
    names = rep.compiled.structure.dag.node_names
    return {names[r.node] for r in rep.artifacts.result.schedule}


def _assert_from_scratch(svc, program):
    want, _ = seminaive_evaluate(program, svc.database())
    assert svc.materialization().as_dict() == want.as_dict()


# ----------------------------------------------------------------------
# what is evaluated, and when
# ----------------------------------------------------------------------
@pytest.mark.parametrize("verify", [True, False], ids=["verify", "no-verify"])
@pytest.mark.parametrize("name", ["tc", "retail"])
def test_one_from_scratch_evaluation_per_round_and_only_to_verify(
    monkeypatch, name, verify
):
    """Over 10 warm healthy rounds: with ``verify`` exactly one
    whole-program evaluation per round, inside the ``verify`` span;
    without, none at all — a fixpoint node runs the stratum loop for
    its own SCC only."""
    rec = TraceRecorder()
    whole, strata = [], []
    real_eval = plancache.seminaive_evaluate
    real_stratum = seminaive.evaluate_stratum

    def counting_eval(*args, **kwargs):
        whole.append(rec.now())
        return real_eval(*args, **kwargs)

    def counting_stratum(*args, **kwargs):
        strata.append(rec.now())
        return real_stratum(*args, **kwargs)

    monkeypatch.setattr(plancache, "seminaive_evaluate", counting_eval)
    monkeypatch.setattr(seminaive, "evaluate_stratum", counting_stratum)
    monkeypatch.setattr(units, "evaluate_stratum", counting_stratum)

    wl = live_workload(name, seed=9)
    svc = _service(wl.program, wl.edb, verify=verify, sink=rec)
    served = 0
    while served < 12:
        rep = _serve(svc, wl.random_batch(2))
        if rep.metrics.noop:
            continue
        served += 1
        if served == 2:  # warm: one miss, one hit behind us
            whole.clear()
            strata.clear()
    assert not any(m.degraded for m in svc.metrics.rounds)
    assert len(whole) == (10 if verify else 0)
    verify_spans = [
        (r.t0, r.t1) for r in rec.records() if r.name == "verify"
    ]
    assert all(
        any(t0 <= t <= t1 for t0, t1 in verify_spans) for t in whole
    )
    # every stratum loop outside a verify span is a fixpoint node's
    n_sccs = sum(
        key[0] == "fix" for key in rep.compiled.structure.node_keys
    )
    assert n_sccs >= 1
    in_units = [
        t for t in strata
        if not any(t0 <= t <= t1 for t0, t1 in verify_spans)
    ]
    assert 0 < len(in_units) <= 10 * n_sccs
    if not verify:
        assert len(in_units) == len(strata)
    _assert_from_scratch(svc, wl.program)
    assert edb_is_mirror(wl, svc.database())


def test_one_structure_however_deep_the_fixpoint_runs():
    """A chain that grows and shrinks every round changes the fixpoint's
    depth every round — and nothing else: one DAG, one bound plan, all
    hits after the first round."""
    program = parse_program(
        """
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- path(X, Y), edge(Y, Z).
        """
    )
    edb = Database()
    for i in range(4):
        edb.add_fact("edge", (i, i + 1))
    svc = _service(program, edb)
    depths = set()
    tip = 4
    for i in range(10):
        delta = Delta()
        if i % 2:  # shrink by one, else grow by two
            delta.delete("edge", (tip - 1, tip))
            tip -= 1
        else:
            for _ in range(2):
                delta.insert("edge", (tip, tip + 1))
                tip += 1
        rep = _serve(svc, delta)
        depths.add(tip)
        assert rep.metrics.n_nodes == 3
        _assert_from_scratch(svc, program)
    assert len(depths) > 5
    stats = svc.plan_cache.stats()
    assert stats["structure_builds"] == stats["plan_binds"] == 1
    assert stats["misses"] == 1 and stats["hits"] == 9
    assert stats["plan_patches"] == 9


# ----------------------------------------------------------------------
# the shapes a fixpoint node owns
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheduler", sorted(REGISTRY))
def test_unchanged_fixpoint_output_stops_the_cascade(scheduler):
    """An edge between two nodes already reached activates the fixpoint
    node; it runs, its output is the old one, and nothing above it —
    its predicate node, the negation, aggregate and plain strata — runs.
    A delta that does change ``reach`` then runs them."""
    program = parse_program(ABOVE_FIX)
    svc = _service(program, _above_fix_edb(), scheduler=scheduler)
    first = _ran(_serve(svc, Delta().insert("e", (4, 6))))
    assert len(first) == svc.metrics.rounds[-1].n_nodes  # miss: all of G

    rep = _serve(svc, Delta().insert("e", (0, 2)))
    ran = _ran(rep)
    fix = {label for label in ran if label.startswith("fix@")}
    assert len(fix) == 1
    # e changed, so its readers ran: the fixpoint and n's two rules
    # (proper rules 2 and 3) — all three to unchanged outputs
    n_rules = {label for label in ran if label.startswith(("r2@", "r3@"))}
    assert len(n_rules) == 2 and ran == {"edb:e", *fix, *n_rules}
    assert rep.metrics.changed_facts == 1  # the edge itself
    _assert_from_scratch(svc, program)

    rep = _serve(svc, Delta().insert("e", (3, 4)))
    ran = _ran(rep)
    assert {"edb:e", *fix} <= ran
    assert any(label.startswith("reach@") for label in ran)
    assert any(label.startswith("unreached@") for label in ran)
    assert any(label.startswith("reached@") for label in ran)
    # far's rule ran (reach changed) but far itself did not change
    assert not any(label.startswith("far@") for label in ran)
    _assert_from_scratch(svc, program)


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("pt", {"n_vars": 12, "n_stmts": 24}),
        ("sg", {"depth": 4, "fanout": 2}),
    ],
)
@pytest.mark.parametrize("scheduler", ["hybrid", "levelbased", "logicblox"])
def test_nonlinear_recursion_in_one_node(name, kwargs, scheduler):
    """Several recursive rules, several Δ positions, one node: ``pt``'s
    three-way joins and ``sg`` over the non-recursive ``sibling``."""
    wl = live_workload(name, seed=4, **kwargs)
    svc = _service(wl.program, wl.edb, scheduler=scheduler)
    for _ in range(5):
        _serve(svc, wl.random_batch(2))
        _assert_from_scratch(svc, wl.program)
    assert edb_is_mirror(wl, svc.database())
    assert svc.plan_cache.stats()["structure_builds"] == 1


def _grow(i: int) -> Delta:
    """A delta no round cancels: a fresh edge hung off ``tc``'s chain."""
    return Delta().insert("edge", (i % 5, 1000 + i))


def test_miss_hit_degraded_probe_miss_hit():
    """The cache across a breaker excursion — miss, hit, degraded…, hit,
    hit: a degraded round is staged on and committed to the cache like
    any other, so the probe after it diffs against what it left."""
    wl = live_workload("tc", seed=3)
    svc = _service(wl.program, wl.edb)
    seen = []

    def serve():
        rep = _serve(svc, _grow(len(seen)))
        stats = svc.plan_cache.stats()
        seen.append((stats["hits"], stats["misses"], rep.metrics.degraded))
        _assert_from_scratch(svc, wl.program)
        return rep

    assert serve().metrics.tasks_executed == 3   # miss: all of G
    assert serve().metrics.tasks_executed == 3   # hit: path grew
    svc.health.state = HealthState.DEGRADED
    while svc.health.plan_round():               # the breaker's verdict
        degraded = serve()
        assert degraded.artifacts is None
        # staged, not evaluated: no change flag is stamped on its trace
        assert not degraded.compiled.trace.changed_edges.any()
        assert degraded.metrics.tasks_executed == 3  # serially: all of G
    probe = serve()                              # probes the fast path
    assert probe.metrics.tasks_executed == 3     # probe-hit: path grew
    assert probe.artifacts is not None
    assert svc.health.state is HealthState.HEALTHY
    serve()                                      # hit
    n_degraded = len(seen) - 4
    assert n_degraded >= 1
    assert seen == [
        (0, 1, False), (1, 1, False),
        *[(2 + i, 1, True) for i in range(n_degraded)],
        (2 + n_degraded, 1, False), (3 + n_degraded, 1, False),
    ]


def test_fixpoint_node_failure_rolls_back_and_the_retry_converges():
    """Kill the round at the fixpoint node: nothing staged survives, the
    delta is re-queued, and the retry lands on the from-scratch answer."""
    wl = live_workload("tc", seed=6)
    probe = _serve(_service(wl.program, wl.edb), _grow(0))
    (fix,) = [
        nid for nid, key in enumerate(probe.compiled.node_keys)
        if key[0] == "fix"
    ]
    svc = _service(
        wl.program, wl.edb,
        chaos=ChaosPlan(fail_units=(fix,), fail_round=1),
        max_round_retries=2,
    )
    _serve(svc, _grow(0))                               # epoch 0: warm
    before = svc.materialization().as_dict()
    svc.submit(_grow(1))
    with pytest.raises(UnitExecutionError) as ei:
        svc.run_round()                                 # epoch 1: dies
    assert ei.value.node == fix and ei.value.delta_requeued
    assert svc.plan_cache.stats()["rollbacks"] == 1
    assert svc.materialization().as_dict() == before
    retry = svc.run_round()
    assert retry.materialization_ok and retry.metrics.tasks_executed == 3
    assert svc.plan_cache.stats()["hits"] == 2          # both compiles hit
    _assert_from_scratch(svc, wl.program)


# ----------------------------------------------------------------------
# the check is not weakened
# ----------------------------------------------------------------------
def _lossy(value):
    """``value`` minus one fact: a task's fact set, a predicate node's
    relation, or the largest relation of a fixpoint node's dict."""
    if isinstance(value, dict):
        pred = max(value, key=lambda p: len(value[p]))
        return {**value, pred: _lossy(value[pred])}
    if isinstance(value, set):
        return set(sorted(value)[1:])
    rel = value.copy()
    rel.discard(min(rel))
    return rel


def _install_liar(svc, kind):
    """The first ``kind`` unit of the cache's plan returns its first
    non-empty output one fact short — once, then it is honest again."""
    real_plan = svc.plan_cache.plan
    state = {"installed": False, "lied": False}

    def plan(cu):
        bound = real_plan(cu)
        if not state["installed"]:
            state["installed"] = True
            unit = next(u for u in bound.units if u.kind == kind)
            honest = unit.run

            def run(values):
                value, zset = honest(values)
                facts = (
                    sum(map(len, value.values()))
                    if isinstance(value, dict)
                    else len(value)
                )
                if state["lied"] or not facts:
                    return value, zset
                state["lied"] = True
                return _lossy(value), zset

            unit.run = run
        return bound

    svc.plan_cache.plan = plan
    return state


@pytest.mark.parametrize(
    "kind,name", [("fix", "tc"), ("task", "analytics"), ("fix", "retail")]
)
def test_a_lying_unit_is_caught_rolled_back_and_retried(kind, name):
    """A task node or a fixpoint node that returns a wrong fact set
    still fails the round's comparison with the independent from-scratch
    evaluation: the round raises and rolls the cache back, the retry —
    the unit honest again — converges."""
    wl = live_workload(name, seed=12)
    svc = _service(wl.program, wl.edb)
    liar = _install_liar(svc, kind)
    svc.submit(wl.random_batch(3))
    with pytest.raises(MaterializationDivergenceError) as ei:
        svc.run_round()
    assert ei.value.delta_requeued
    assert svc.plan_cache.stats()["rollbacks"] == 1
    assert svc.materialization() is None
    rep = svc.run_round()
    assert liar["lied"] and rep.materialization_ok
    _assert_from_scratch(svc, wl.program)
    assert edb_is_mirror(wl, svc.database())


def test_a_lying_unit_is_caught_in_a_degraded_round_too():
    """The breaker decides who calls the units, not what checks them: a
    serial round is compared with the same from-scratch evaluation,
    rolls back and re-queues on a lie, and commits once honest."""
    wl = live_workload("tc", seed=12)
    svc = _service(wl.program, wl.edb)
    liar = _install_liar(svc, "fix")
    svc.health.state = HealthState.DEGRADED
    svc.submit(wl.random_batch(3))
    with pytest.raises(MaterializationDivergenceError) as ei:
        svc.run_round()
    assert liar["lied"] and ei.value.delta_requeued
    assert svc.plan_cache.stats()["rollbacks"] == 1
    assert svc.materialization() is None
    rep = svc.run_round()
    assert rep.metrics.degraded and rep.materialization_ok
    _assert_from_scratch(svc, wl.program)
    # committed: the next round compiles as a hit
    rep = _serve(svc, _grow(0))
    assert rep.metrics.degraded
    assert svc.plan_cache.stats()["hits"] == 1
    assert svc.plan_cache.stats()["misses"] == 2  # the lie and its retry


def test_without_verify_nothing_catches_the_lie():
    """The contrast that shows the evaluation is what catches it:
    ``verify=False`` serves the wrong materialization."""
    wl = live_workload("tc", seed=12)
    svc = _service(wl.program, wl.edb, verify=False)
    liar = _install_liar(svc, "fix")
    rep = _serve(svc, wl.random_batch(3))
    assert liar["lied"] and rep.verification is None
    want, _ = seminaive_evaluate(wl.program, svc.database())
    assert svc.materialization().as_dict() != want.as_dict()
