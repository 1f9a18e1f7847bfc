"""A copy lends its donor's index buckets; the donor is never written.

``Relation.copy_indexed``, ``Relation.successor`` and
``ColumnarRelation.clone`` share every bucket of every built index with
the relation they come from and copy a bucket on its first write; a
successor also takes its predecessor's row sets, so one derived under a
Δ costs O(|Δ|). That is sound only while nobody writes a donor again —
what ``derive_zdelta`` and ``evaluate_stratum`` promise. These tests pin
both halves: the buckets a Δ did not touch are the predecessor's own
objects, the successor's row sets are the ones its predecessor held,
over served rounds every relation a round published still holds, rounds
later, exactly what it held then, and clones written on several threads
at once leave their donor alone.
"""

from __future__ import annotations

import sys
import threading
from operator import itemgetter

import pytest

from repro.datalog import (
    Database,
    Delta,
    InternPool,
    parse_program,
    seminaive_evaluate,
)
from repro.datalog.columnar import ColumnarRelation
from repro.datalog.seminaive import evaluate_stratum
from repro.datalog.zset import derive_zdelta, effective_zdelta
from repro.runtime import UpdateStreamService, live_workload, make_stream
from repro.schedulers import scheduler_registry
from repro.workloads.datalog_workloads import retail_analytics

from .test_database import assert_intact, held


def _untouched_buckets_are_lent(new: dict, old: dict, rows) -> None:
    """``new`` has ``old``'s index patterns, and per pattern a bucket of
    ``new`` is ``old``'s own object exactly when no row of ``rows`` has
    its key: ``new`` holds at most ``len(rows)`` buckets of its own per
    index."""
    assert new and set(new) == set(old)
    for pattern, index in new.items():
        keys = set(map(itemgetter(*pattern), rows))
        lent = old[pattern]
        for key, bucket in index.items():
            assert (bucket is lent.get(key)) == (key not in keys), (
                pattern, key
            )


def test_a_successor_shares_every_bucket_its_delta_does_not_touch():
    """An EDB successor costs its Δ: ``agg_burst``'s 1 500-row ``sale``
    under a one-row replace. The successor ``derive_zdelta`` makes
    owns its predecessor's two row sets (the value tuples and the
    mirror's id-rows, the very objects) and shares every index bucket
    the Δ does not touch with it, in both faces, and the predecessor
    reads exactly what it held: ``len`` and ``in`` off the successor and
    the Δ, then every fact and bucket of both faces."""
    _, edb, _ = retail_analytics(n_products=200, n_stores=24, n_sales=1500)
    pool = InternPool()
    sale = edb.relations["sale"]
    mirror = sale.columnar(pool)
    mirror.index((1,))  # what the check's seeded joins probe
    mirror.index((0,))
    sale.match({1: "p3"})  # a value-space index too
    before = held(sale)
    tuples, id_rows = sale.rows, mirror.rows

    gone = min(sale)
    new = (gone[0], gone[1], gone[2] + 1000)
    zdelta = effective_zdelta(
        edb, Delta().delete("sale", gone).insert("sale", new)
    )
    assert zdelta.op_count() == 2
    succ = derive_zdelta(edb, zdelta).relations["sale"]

    assert succ.rows is tuples and succ._columnar.rows is id_rows
    assert len(sale) == len(mirror) == len(succ) == 1500
    old_row, new_row = (pool.intern_fact("sale", f) for f in (gone, new))
    assert gone in sale and new not in sale
    assert old_row in mirror and new_row not in mirror
    assert sale._tuples is None  # nothing rebuilt to answer those
    assert held(sale) == before
    assert set(succ) == (set(sale) - {gone}) | {new}
    assert succ.index_patterns() == sale.index_patterns() == ((1,),)
    rows = [old_row, new_row]
    _untouched_buckets_are_lent(succ._columnar._indexes, mirror._indexes, rows)
    _untouched_buckets_are_lent(succ._indexes, sale._indexes, (gone, new))


def test_a_continued_head_lends_the_buckets_its_gain_does_not_touch():
    """A fixpoint continued from a Δ grows a clone of the head's
    committed mirror: the clone's buckets are the committed ones but for
    the keys of the rows it gained, and the committed mirror is as it
    was."""
    program = parse_program(
        "path(X, Y) :- edge(X, Y).\n"
        "path(X, Z) :- path(X, Y), edge(Y, Z).\n"
    )
    edb = Database()
    for i in [*range(30), *range(40, 70)]:  # two chains, 30 → 40 joins them
        edb.add_fact("edge", (i, i + 1))
    pool = InternPool()
    committed, _ = seminaive_evaluate(program, edb, pool=pool)
    path = committed.relations["path"]
    mirror = path.columnar(pool)
    mirror.index((1,))
    mirror.index((0,))
    before = held(path)

    db = derive_zdelta(
        committed, effective_zdelta(committed, Delta().insert("edge", (30, 40)))
    )
    stratum = program.strata[-1]  # path's SCC
    gained = evaluate_stratum(
        stratum, db, pool, delta={"edge": {pool.intern_fact("edge", (30, 40))}}
    )
    grown = db.relations["path"]
    assert grown is not path and held(path) == before
    rows = set().union(*gained["path"])
    assert rows and grown.columnar(pool).rows == mirror.rows | rows
    _untouched_buckets_are_lent(
        grown.columnar(pool)._indexes, mirror._indexes, rows
    )


@pytest.mark.parametrize("name", ["tc", "retail", "analytics"])
def test_served_rounds_never_write_a_relation_they_published(name):
    """Every relation a healthy served round publishes — EDB successors,
    task-fed ``pred`` relations, continued fixpoint heads — is a donor
    to the next round's. Rounds later each holds what it held."""
    wl = live_workload(name, seed=3)
    svc = UpdateStreamService(
        wl.program, wl.edb, scheduler_registry()["hybrid"](), workers=2,
        verify=True, strict=True,
    )
    published: list = []
    grown = 0
    for batches in make_stream(wl, "mixed", rounds=24):
        for delta in batches:
            svc.submit(delta)
        report = svc.run_round()
        assert report.materialization_ok
        m = report.metrics
        grown += m.continued_nodes + m.maintained_tasks
        mat = svc.materialization()
        if mat is not None:
            published += [(r, held(r)) for r in mat.relations.values()]
    assert grown  # the rounds grew successors from committed values
    for rel, then in published:
        assert_intact(rel, then)


def test_clones_written_on_four_threads_leave_the_donor_and_each_other_alone():
    """Work units grow successors of one committed mirror on different
    lanes while others read it: each clone's writes land in its own
    copies, the donor's buckets stay as they were, and every clone's
    index files exactly its own rows."""
    pool = InternPool()
    donor = ColumnarRelation("e", 2, pool).wrap(
        {(i % 13, i) for i in range(600)}
    )
    donor.index((0,))
    donor.index((1,))
    lent = {p: {k: set(b) for k, b in donor._indexes[p].items()}
            for p in donor.index_patterns()}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        barrier = threading.Barrier(6)
        clones: list = [None] * 4
        reads: list = []

        def writer(k: int) -> None:
            barrier.wait()
            clone = donor.clone()
            for i in range(k, 600, 4):
                clone.discard_row((i % 13, i))
                clone.add_row((i % 13, 1000 * (k + 1) + i))
            clones[k] = clone

        def reader() -> None:
            barrier.wait()
            for _ in range(50):
                reads.append(sum(map(len, donor.index((0,)).values())))

        threads = [threading.Thread(target=writer, args=(k,))
                   for k in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert reads == [600] * 100
    for p, index in lent.items():
        assert {k: set(b) for k, b in donor._indexes[p].items()} == index
    for k, clone in enumerate(clones):
        assert len(clone) == 600
        assert sum(1 for r in clone.rows if r[1] >= 1000) == 150
        for p in clone.index_patterns():
            rebuilt = ColumnarRelation("e", 2, pool).wrap(set(clone.rows))
            assert clone._indexes[p] == rebuilt.index(p), (k, p)
