"""Datalog-derived scheduling workloads.

These exercise the *entire* pipeline the paper motivates: a Datalog
program is materialized, the base data changes, and the maintenance
computation — compiled into a computation DAG by
:mod:`repro.datalog.compiler` — is handed to the schedulers.

Five program families, mirroring the domains LogicBlox served:

* :func:`transitive_closure` — the canonical recursive program on a
  random sparse graph (deep fixpoints → deep DAGs);
* :func:`same_generation` — the classic non-linear recursive benchmark;
* :func:`retail_rollup` — a retail-style hierarchy: product categories,
  store regions, promotion eligibility (stratified negation included);
* :func:`retail_analytics` — aggregation-heavy roll-ups (count/sum/max
  with threshold alerts), the shape of LogicBlox's retail analytics;
* :func:`points_to` — a field-insensitive Andersen-style points-to
  analysis, the static-analysis workload of Soufflé/Semmle;
* :func:`retail_flat` — a non-recursive, aggregate-free visibility
  pipeline with stratified negation: every node of its static DAG is a
  task or a predicate node (no fixpoint node), the shape the
  ``deletions`` and ``mixed`` serve streams run on.

Each returns ``(program, edb, delta)``; :func:`compile_workload` turns
one into a schedulable :class:`~repro.tasks.JobTrace`.
"""

from __future__ import annotations

import numpy as np

from ..datalog.ast import Program
from ..datalog.compiler import CompiledUpdate, compile_update
from ..datalog.database import Database
from ..datalog.zset import Delta
from ..datalog.parser import parse_program
from ..dag.random_dags import as_rng

__all__ = [
    "transitive_closure",
    "same_generation",
    "retail_rollup",
    "retail_analytics",
    "retail_flat",
    "points_to",
    "compile_workload",
    "DATALOG_WORKLOADS",
]


def transitive_closure(
    n: int = 60,
    extra_edges: int = 30,
    seed: int = 0,
) -> tuple[Program, Database, Delta]:
    """Reachability over a chain plus random shortcuts.

    The update inserts an edge near the chain's head (cascading deep)
    and deletes one shortcut.
    """
    rng = as_rng(seed)
    prog = parse_program(
        """
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- path(X, Y), edge(Y, Z).
        """
    )
    edb = Database()
    for i in range(n - 1):
        edb.add_fact("edge", (i, i + 1))
    shortcuts = set()
    while len(shortcuts) < extra_edges:
        a = int(rng.integers(0, n - 1))
        b = int(rng.integers(a + 1, n))
        if (a, b) not in shortcuts and b != a + 1:
            shortcuts.add((a, b))
    for a, b in shortcuts:
        edb.add_fact("edge", (a, b))
    victim = next(iter(sorted(shortcuts)))
    delta = Delta().insert("edge", (1, n // 2)).delete("edge", victim)
    return prog, edb, delta


def same_generation(
    depth: int = 7, fanout: int = 2, seed: int = 0
) -> tuple[Program, Database, Delta]:
    """Same-generation cousins over a synthetic family tree."""
    prog = parse_program(
        """
        sg(X, Y) :- sibling(X, Y).
        sg(X, Y) :- parent(XP, X), sg(XP, YP), parent(YP, Y).
        sibling(X, Y) :- parent(P, X), parent(P, Y), X != Y.
        """
    )
    edb = Database()
    next_id = [1]
    frontier = [0]
    for _d in range(depth):
        new_frontier = []
        for p in frontier:
            for _c in range(fanout):
                c = next_id[0]
                next_id[0] += 1
                edb.add_fact("parent", (p, c))
                new_frontier.append(c)
        frontier = new_frontier
    # update: graft a new child onto the root and remove one leaf's parent
    graft = next_id[0]
    leaf_edge = (frontier[0] // fanout if fanout else 0, frontier[0])
    # find the actual parent fact of frontier[0]
    parent_of_leaf = next(
        f for f in edb.relations["parent"] if f[1] == frontier[0]
    )
    delta = (
        Delta()
        .insert("parent", (0, graft))
        .delete("parent", parent_of_leaf)
    )
    return prog, edb, delta


def retail_rollup(
    n_products: int = 40,
    n_stores: int = 12,
    seed: int = 0,
) -> tuple[Program, Database, Delta]:
    """A retail hierarchy with promotion eligibility (uses negation).

    ``in_category`` rolls products up a category tree; ``served_by``
    rolls stores up a region tree; ``available`` joins assortments down
    both hierarchies; ``promo_eligible`` excludes clearance products via
    stratified negation. The update moves a product between categories
    and adds a clearance flag — the cascade the LogicBlox retail
    customers issue all day.
    """
    rng = as_rng(seed)
    prog = parse_program(
        """
        in_category(P, C) :- product_cat(P, C).
        in_category(P, C) :- in_category(P, D), subcat(D, C).
        served_by(S, R) :- store_region(S, R).
        served_by(S, R) :- served_by(S, Q), subregion(Q, R).
        available(P, S) :- assort(C, R), in_category(P, C), served_by(S, R).
        promo_eligible(P, S) :- available(P, S), !clearance(P).
        """
    )
    edb = Database()
    n_cats = max(4, n_products // 5)
    for c in range(1, n_cats):
        edb.add_fact("subcat", (c, int(rng.integers(0, c))))
    for p in range(n_products):
        edb.add_fact("product_cat", (f"p{p}", int(rng.integers(0, n_cats))))
    n_regions = max(3, n_stores // 3)
    for r in range(1, n_regions):
        edb.add_fact("subregion", (r, int(rng.integers(0, r))))
    for s in range(n_stores):
        edb.add_fact("store_region", (f"s{s}", int(rng.integers(0, n_regions))))
    for c in range(n_cats):
        if rng.random() < 0.5:
            edb.add_fact("assort", (c, int(rng.integers(0, n_regions))))
    for p in range(0, n_products, 7):
        edb.add_fact("clearance", (f"p{p}",))

    moved = f"p{int(rng.integers(0, n_products))}"
    old_cat = next(
        f for f in edb.relations["product_cat"] if f[0] == moved
    )
    delta = (
        Delta()
        .delete("product_cat", old_cat)
        .insert("product_cat", (moved, 0))
        .insert("clearance", (f"p{1 + int(rng.integers(1, n_products))}"[:3],))
    )
    return prog, edb, delta


def retail_analytics(
    n_products: int = 30,
    n_stores: int = 8,
    n_sales: int = 120,
    seed: int = 0,
) -> tuple[Program, Database, Delta]:
    """Aggregation-heavy retail analytics (count/sum/max roll-ups).

    Per-category quantity totals, per-store line counts, per-category
    best sellers, and threshold alerts derived from the aggregates —
    the LogicBlox retail workloads were exactly this shape. The update
    posts a day's new sales and voids one old line, cascading through
    every aggregate.
    """
    rng = as_rng(seed)
    prog = parse_program(
        """
        total_qty(C, sum(Q)) :- sale(S, P, Q), product_cat(P, C).
        store_lines(S, count(Q)) :- sale(S, P, Q).
        best_sale(C, max(Q)) :- sale(S, P, Q), product_cat(P, C).
        hot(C) :- total_qty(C, T), T > 50.
        quiet_store(S) :- store_open(S), !busy(S).
        busy(S) :- store_lines(S, N), N >= 3.
        """
    )
    edb = Database()
    n_cats = max(3, n_products // 6)
    for p in range(n_products):
        edb.add_fact("product_cat", (f"p{p}", int(rng.integers(0, n_cats))))
    for s in range(n_stores):
        edb.add_fact("store_open", (f"s{s}",))
    sales = set()
    while len(sales) < n_sales:
        sales.add(
            (
                f"s{int(rng.integers(0, n_stores))}",
                f"p{int(rng.integers(0, n_products))}",
                int(rng.integers(1, 9)),
            )
        )
    for t in sales:
        edb.add_fact("sale", t)
    delta = Delta()
    for _ in range(4):
        delta.insert(
            "sale",
            (
                f"s{int(rng.integers(0, n_stores))}",
                f"p{int(rng.integers(0, n_products))}",
                int(rng.integers(1, 9)),
            ),
        )
    delta.delete("sale", next(iter(sorted(sales))))
    return prog, edb, delta


def retail_flat(
    n_products: int = 40,
    n_stores: int = 10,
    seed: int = 0,
) -> tuple[Program, Database, Delta]:
    """A non-recursive product-visibility pipeline (negation, no
    aggregates, no recursion).

    Listings roll through a hide flag and store state into what is
    sellable and what gets featured — four strata of plain joins and
    one stratified negation. The update delists one product, hides
    another, and adds a listing.
    """
    rng = as_rng(seed)
    prog = parse_program(
        """
        stocked(P, S) :- listing(P, S).
        visible(P, S) :- stocked(P, S), !hidden(P).
        sellable(P, S) :- visible(P, S), open_store(S).
        featured(P) :- sellable(P, S), promo(S).
        """
    )
    edb = Database()
    listings = set()
    while len(listings) < n_products * 2:
        listings.add(
            (
                f"p{int(rng.integers(0, n_products))}",
                f"s{int(rng.integers(0, n_stores))}",
            )
        )
    for t in listings:
        edb.add_fact("listing", t)
    for p in range(0, n_products, 6):
        edb.add_fact("hidden", (f"p{p}",))
    for s in range(n_stores):
        if rng.random() < 0.8:
            edb.add_fact("open_store", (f"s{s}",))
        if rng.random() < 0.3:
            edb.add_fact("promo", (f"s{s}",))
    victim = next(iter(sorted(listings)))
    delta = (
        Delta()
        .delete("listing", victim)
        .insert("hidden", (f"p{1 + int(rng.integers(0, n_products - 1))}",))
        .insert(
            "listing",
            (
                f"p{int(rng.integers(0, n_products))}",
                f"s{int(rng.integers(0, n_stores))}",
            ),
        )
    )
    return prog, edb, delta


def points_to(
    n_vars: int = 30, n_stmts: int = 60, seed: int = 0
) -> tuple[Program, Database, Delta]:
    """Field-insensitive Andersen points-to analysis.

    Statements: ``addr(x, o)`` (x = &o), ``copy(x, y)`` (x = y),
    ``load(x, y)`` (x = *y), ``store(x, y)`` (*x = y). The update adds
    one copy edge (a new assignment in the program under analysis).
    """
    rng = as_rng(seed)
    prog = parse_program(
        """
        pt(X, O) :- addr(X, O).
        pt(X, O) :- copy(X, Y), pt(Y, O).
        pt(X, O) :- load(X, Y), pt(Y, Z), pt(Z, O).
        pt(Z, O) :- store(X, Y), pt(X, Z), pt(Y, O).
        """
    )
    edb = Database()
    for v in range(min(n_vars, n_stmts // 3)):
        edb.add_fact("addr", (f"v{v}", f"o{v % max(1, n_vars // 3)}"))
    kinds = ["copy", "load", "store"]
    for _ in range(n_stmts):
        k = kinds[int(rng.integers(0, 3))]
        a = f"v{int(rng.integers(0, n_vars))}"
        bvar = f"v{int(rng.integers(0, n_vars))}"
        edb.add_fact(k, (a, bvar))
    delta = Delta().insert(
        "copy", (f"v{int(rng.integers(0, n_vars))}", "v0")
    )
    return prog, edb, delta


#: name → zero-argument constructor, for benches and tests
DATALOG_WORKLOADS = {
    "transitive_closure": transitive_closure,
    "same_generation": same_generation,
    "retail_rollup": retail_rollup,
    "retail_analytics": retail_analytics,
    "retail_flat": retail_flat,
    "points_to": points_to,
}


def compile_workload(
    name: str,
    work_per_derivation: float = 1e-3,
    **kwargs,
) -> CompiledUpdate:
    """Build and compile a named Datalog workload into a job trace."""
    try:
        factory = DATALOG_WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown Datalog workload {name!r}; "
            f"choose from {sorted(DATALOG_WORKLOADS)}"
        ) from None
    prog, edb, delta = factory(**kwargs)
    cu = compile_update(
        prog,
        edb,
        delta,
        work_per_derivation=work_per_derivation,
        name=f"datalog:{name}",
    )
    return cu
