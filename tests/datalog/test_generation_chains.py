"""Every generation of a relation reads its own facts.

``derive_zdelta`` makes a touched relation's successor take its row
sets, and the predecessor reads on as the successor minus the round's
clamped Δ — through a chain of them when the successor has a successor
of its own. These tests draw random clamped Z-set sequences over a
relation with built indexes in both faces, chain 2–6 generations (some
steps first derive a successor that is then dropped, as a rolled-back
round's is, and derive again from the same predecessor), and read every
older generation in random order: each read equals ``apply_zdelta``'s
independent snapshot of that generation. A past generation read on six
threads at once — some answering off the Δ, some rebuilding its rows —
reads the same.
"""

from __future__ import annotations

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import Database, Delta, InternPool, Relation
from repro.datalog.zset import apply_zdelta, derive_zdelta, effective_zdelta

FACT = st.tuples(st.integers(0, 4), st.integers(0, 4))
#: what a reader asks of an older generation
READS = ("in", "len", "iter", "old_index", "new_index", "copy", "eq")
STEP = st.tuples(
    st.sets(FACT, max_size=5),  # inserted
    st.sets(FACT, max_size=5),  # deleted
    st.booleans(),  # a successor derived and dropped first
)


def _step_delta(ins: set, dels: set) -> Delta:
    delta = Delta()
    for f in dels:
        delta.delete("e", f)
    for f in ins:
        delta.insert("e", f)
    return delta


def _read(rel: Relation, pool: InternPool, kind: str, fact, want: set):
    """One reader's question, in both faces where it has one."""
    mirror = rel.columnar(pool)
    row = pool.intern_fact("e", fact)
    if kind == "in":
        assert (fact in rel) == (fact in want)
        assert (row in mirror) == (fact in want)
    elif kind == "len":
        assert len(rel) == len(mirror) == len(want)
    elif kind == "iter":
        assert set(rel) == want
        assert set(mirror.facts()) == want
    elif kind == "old_index":  # built before the chain: its own buckets
        hits = {t for t in want if t[0] == fact[0]}
        assert set(rel.match({0: fact[0]})) == hits
        bucket = mirror.index((0,)).get(row[0], ())
        assert set(pool.extern_rows(list(bucket))) == hits
    elif kind == "new_index":  # a pattern nobody built yet
        hits = {t for t in want if t[1] == fact[1]}
        assert set(rel.match({1: fact[1]})) == hits
        bucket = mirror.index((1,)).get(row[1], ())
        assert set(pool.extern_rows(list(bucket))) == hits
    elif kind == "copy":
        assert rel.copy().rows == want
        assert rel.copy_indexed() == rel
        assert mirror.clone().rows == mirror.rows
    else:
        twin = Relation("e", 2)
        twin.extend(want)
        assert rel == twin and twin == rel
        assert rel.diff_count(twin) == 0


@settings(max_examples=150, deadline=None)
@given(
    start=st.sets(FACT, max_size=14),
    steps=st.lists(STEP, min_size=1, max_size=5),
    reads=st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from(READS), FACT),
        max_size=25,
    ),
)
def test_every_older_generation_reads_what_it_held(start, steps, reads):
    pool = InternPool()
    db = Database()
    db.relation("e", 2).extend(start)
    first = db.relations["e"]
    first.match({0: 0})  # a value-space index
    first.columnar(pool).index((0,))  # and a mirror one
    gens, snaps = [db], [set(start)]
    for ins, dels, dropped in steps:
        zdelta = effective_zdelta(gens[-1], _step_delta(ins, dels))
        want = apply_zdelta(gens[-1], zdelta).relation("e", 2).rows
        if dropped:
            # a rolled-back round's successor: derived, then nobody's
            derive_zdelta(gens[-1], zdelta)
        gens.append(derive_zdelta(gens[-1], zdelta))
        snaps.append(set(want))
    older = len(gens) - 1  # 2–6 generations, every one but the newest
    for at, kind, fact in reads:
        k = at % older
        _read(gens[k].relations["e"], pool, kind, fact, snaps[k])
    for db_k, want in zip(gens, snaps):
        rel = db_k.relations["e"]
        assert set(rel) == want and len(rel) == len(want)
        assert set(rel.columnar(pool).facts()) == want


def test_a_past_generation_read_on_six_threads_reads_what_it_held():
    """Work units read the committed generation on different lanes: while
    some answer ``len`` and ``in`` off the successors and the Δs, others
    rebuild both faces' rows or build a new index, and every read is of
    what the generation held."""
    pool = InternPool()
    db = Database()
    db.relation("e", 2).extend({(i % 13, i) for i in range(600)})
    rel = db.relations["e"]
    rel.match({0: 0})
    mirror = rel.columnar(pool)
    mirror.index((0,))
    want = set(rel)
    newer = db
    for k in range(2):  # a chain: the successor has a successor too
        delta = Delta()
        for i in range(k, 600, 12):
            delta.delete("e", (i % 13, i)).insert("e", (i % 13, 1000 + i))
        newer = derive_zdelta(newer, effective_zdelta(newer, delta))
    probes = [(i % 13, i) for i in range(0, 600, 7)]
    probes += [(i % 13, 1000 + i) for i in range(0, 600, 7)]
    rows = {pool.intern_fact("e", f): f in want for f in probes}
    wrong: list = []

    def check(what: str, got, expected) -> None:
        if got != expected:
            wrong.append(what)

    def answer_off_the_delta() -> None:
        for _ in range(20):
            check("len", len(rel), 600)
            check("mirror len", len(mirror), 600)
            for f in probes:
                check("in", f in rel, f in want)
            for row, held in rows.items():
                check("mirror in", row in mirror, held)

    def rebuild() -> None:
        check("iter", set(rel), want)
        check("mirror rows", set(pool.extern_rows(list(mirror.rows))), want)
        check("new index", set(rel.match({1: 7})), {(7, 7)})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        barrier = threading.Barrier(6)

        def run(work) -> None:
            barrier.wait()
            work()

        threads = [
            threading.Thread(target=run, args=(work,))
            for work in [answer_off_the_delta] * 4 + [rebuild] * 2
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not wrong, sorted(set(wrong))
    assert set(newer.relations["e"]) != want  # the successors did move
