"""The from-scratch check is prepared once per program.

``CompiledProgramCache.evaluate`` hands ``seminaive_evaluate`` a dict it
keeps for its one program: each stratum's compiled plans and instance
table. A served stream therefore compiles and orders each plan of the
check once, not once a round; the check still evaluates every round
from the EDB alone, and a one-relation GROUP BY folds the buckets of an
index on the EDB relation that bucket lending keeps up to date. Aggregate
rules that share a body share one grouped join, so of them one compiles
its plan.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.datalog.seminaive as seminaive
from repro.datalog import Database, Delta, parse_program, seminaive_evaluate
from repro.datalog.columnar import _index_rows
from repro.datalog.plancache import CompiledProgramCache
from repro.runtime import UpdateStreamService, live_workload, make_stream
from repro.schedulers import scheduler_registry

ROUNDS = 30


def _count_check_plans(monkeypatch) -> tuple[Counter, list]:
    """Every ``compile_rule_plan`` / ``body_order`` call the check makes
    (inside ``CompiledProgramCache.evaluate``), by its arguments, and
    per check how many such calls had been made once it returned."""
    calls: Counter = Counter()
    checks: list = []
    inside = [False]

    def counting(name):
        real = getattr(seminaive, name)

        def wrapped(*args):
            if inside[0]:
                calls[name, *args] += 1
            return real(*args)

        monkeypatch.setattr(seminaive, name, wrapped)

    counting("compile_rule_plan")
    counting("body_order")
    real = CompiledProgramCache.evaluate

    def evaluate(self, cu):
        inside[0] = True
        try:
            return real(self, cu)
        finally:
            inside[0] = False
            checks.append(sum(calls.values()))

    monkeypatch.setattr(CompiledProgramCache, "evaluate", evaluate)
    return calls, checks


@pytest.mark.parametrize("program", ["retail", "analytics"])
def test_a_served_stream_prepares_its_check_once(monkeypatch, program):
    """30 checked, strict rounds of ``retail_rollup`` /
    ``retail_analytics``: one ``compile_rule_plan`` / ``body_order``
    call per distinct plan key in all, every one made by the first
    check; of the aggregate rules that share a grouped join
    (``total_qty`` and ``best_sale``) one compiles its plan, once, and
    the other none. On ``retail_analytics`` the EDB ``sale`` keeps the
    ``(0,)`` index ``store_lines``' fold reads — equal to a fresh build,
    round after round of deltas."""
    calls, checks = _count_check_plans(monkeypatch)
    wl = live_workload(program, seed=4)
    svc = UpdateStreamService(
        wl.program, wl.edb, scheduler_registry()["hybrid"](), workers=2,
        verify=True, strict=True,
    )
    sales = []
    for batches in make_stream(wl, "mixed", rounds=ROUNDS):
        for delta in batches:
            svc.submit(delta)
        rep = svc.run_round()
        assert rep is None or rep.materialization_ok
        sales.append(svc.plan_cache._prev.edb.relations.get("sale"))
    assert len(checks) >= ROUNDS - ROUNDS // 3  # churn-only ticks are no-ops
    assert calls and max(calls.values()) == 1, calls
    assert checks[0] > 0 and checks[-1] == checks[0], checks
    shares = svc.plan_cache._check[None]
    rules = wl.program.proper_rules
    compiled = Counter(
        args[1] for args in calls if args[0] == "compile_rule_plan"
    )
    for key in set(shares.values()):
        sharing = [rules[ri] for ri, k in shares.items() if k == key]
        # the grouped join's plan compiles once, the others' never
        assert sorted(compiled[rule] for rule in sharing) == (
            [0] * (len(sharing) - 1) + [1]
        )
    want, _ = seminaive_evaluate(wl.program, svc.database())
    assert svc.materialization().as_dict() == want.as_dict()
    if program == "retail":
        assert shares == {}
        return
    assert sorted(rules[ri].head.predicate for ri in shares) == [
        "best_sale", "total_qty"
    ]
    assert len({id(rel) for rel in sales}) > 1  # the stream moved sale
    mirror = sales[-1].columnar(svc.plan_cache.pool)
    assert (0,) in mirror.index_patterns()
    fresh: dict = {}
    _index_rows(fresh, (0,), mirror.rows)
    assert mirror.index((0,)) == fresh


def test_a_new_program_rebuilds_the_prepared_check(monkeypatch):
    """An edited rule set flushes the cache, its prepared check with
    it: the next check compiles the new program's plans and evaluates
    the new program."""
    calls, _checks = _count_check_plans(monkeypatch)
    old = parse_program("""
        lines(S, count(Q)) :- sale(S, P, Q).
        busy(S) :- lines(S, N), N >= 2.
    """)
    new = parse_program("""
        lines(S, sum(Q)) :- sale(S, P, Q).
        busy(S) :- lines(S, N), N >= 2.
    """)
    cache = CompiledProgramCache(old)
    edb = Database()
    edb.relation("sale", 3)
    for fact in [("a", "x", 1), ("a", "y", 1), ("b", "x", 5)]:
        edb.add_fact("sale", fact)

    def check(program, delta):
        nonlocal edb
        cu = cache.compile(program, edb, delta)
        got = cache.evaluate(cu)
        cache.commit(cu)
        edb = cu.edb_new
        want, _ = seminaive_evaluate(program, edb)
        assert got.as_dict() == want.as_dict()
        return got

    check(old, Delta().insert("sale", ("c", "x", 1)))
    first = sum(calls.values())
    assert first > 0 and cache._check
    check(old, Delta().insert("sale", ("c", "y", 1)))
    assert sum(calls.values()) == first
    got = check(new, Delta().insert("sale", ("b", "y", 1)))
    assert sum(calls.values()) > first
    assert ("b", 6) in set(got.relations["lines"])
