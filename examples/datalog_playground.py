#!/usr/bin/env python3
"""Datalog engine playground — parse, evaluate, update, inspect.

Shows the engine features the other examples use implicitly: parsing,
stratification (including a rejection), semi-naive evaluation,
transitive closure with deletions (the fixpoint recomputed, a fact with
another derivation kept), and exporting a compiled computation DAG —
the engine's round on the program's static DAG — to Graphviz DOT.

Run:  python examples/datalog_playground.py
"""

from repro.datalog import (
    Database,
    Delta,
    DependencyGraph,
    IncrementalEngine,
    StratificationError,
    compile_update,
    explain,
    parse_program,
    seminaive_evaluate,
)
from repro.dag.dot import to_dot


def main() -> None:
    # --- parse and stratify -------------------------------------------
    program = parse_program(
        """
        % who can reach whom, and who is isolated
        link(a, b). link(b, c). link(c, d). link(b, d).
        node(a). node(b). node(c). node(d). node(e).
        reach(X, Y) :- link(X, Y).
        reach(X, Z) :- reach(X, Y), link(Y, Z).
        isolated(X) :- node(X), !connected(X).
        connected(X) :- reach(X, Y).
        connected(Y) :- reach(X, Y).
        """
    )
    strata = DependencyGraph(program).stratify()
    print("strata (evaluated bottom-up):")
    for i, s in enumerate(strata):
        print(f"  {i}: {s}")

    db, _ = seminaive_evaluate(program)
    print(f"\nreach: {sorted(db.relations['reach'])}")
    print(f"isolated: {sorted(db.relations['isolated'])}")

    # --- unstratifiable programs are rejected -------------------------
    try:
        DependencyGraph(
            parse_program("win(X) :- move(X, Y), !win(Y).")
        ).stratify()
    except StratificationError as exc:
        print(f"\nrejected as expected: {exc}")

    # --- incremental updates with deletion ----------------------------
    tc = parse_program(
        """
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- path(X, Y), edge(Y, Z).
        """
    )
    edb = Database()
    for t in [(1, 2), (2, 3), (3, 4), (1, 3)]:
        edb.add_fact("edge", t)
    engine = IncrementalEngine(tc, edb)
    print(f"\npaths before: {sorted(engine.db.relations['path'])}")
    print("\nwhy does path(1, 4) hold?")
    print(explain(tc, engine.db, "path", (1, 4)).pretty())
    engine.apply(Delta().delete("edge", (2, 3)))
    # path(1,3) survives via the direct edge — it is never deleted
    print(f"paths after -edge(2,3): {sorted(engine.db.relations['path'])}")
    assert (1, 3) in engine.db.relations["path"]

    # --- compile an update into a schedulable DAG ---------------------
    compiled = compile_update(tc, edb, Delta().insert("edge", (4, 5)))
    t = compiled.trace
    print(
        f"\ncompiled computation DAG: {t.dag.n_nodes} nodes, "
        f"{t.dag.n_edges} edges, {t.n_levels} levels, "
        f"{t.n_active_jobs} activated task(s)"
    )
    print(
        "nodes the round ran:",
        [t.dag.name_of(int(v)) for v in t.active_nodes],
    )
    print("DOT preview (first lines):")
    for line in to_dot(t.dag, max_nodes=8).splitlines()[:8]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
