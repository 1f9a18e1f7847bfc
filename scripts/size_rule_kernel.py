#!/usr/bin/env python3
"""Size the rule plans of one shipped program: compile once, run how long?

Takes a program and EDB from ``repro.workloads.datalog_workloads`` —
``agg_burst`` is ``retail_analytics`` at the end-to-end benchmark's
``agg_burst`` size (200 products, 24 stores, 1 500 sales) — materializes
it with ``seminaive_evaluate(pool=…)`` and prints

* per rule × Δ-position (``-``: the full plan) the cold
  ``compile_rule_plan`` time (the first call in this process: the memo
  is empty) and the median ``run_rule_plan`` time over the final
  materialization, with the rows it returns and what one run adds to
  ``pool.probes`` — a Δ-position is every positive body occurrence of a
  derived predicate, and its Δ here is that predicate's whole final
  relation, so every plan of a rule derives the same rows and only
  where it reads differs;
* for a full plan, the occurrence the planner seeds it at over those
  relations (``seed``: its predicate; ``-`` where the tree plans the
  textual order, as an older tree does for the textual first) and,
  timed in the same process, the textual order's run µs and probes next
  to it (``text_us``, ``text_pr``) — what ``seminaive_evaluate(pool=…)``
  picks for the verify check, as far as a rule's stratum reads relations
  complete when it starts; a recursive rule's full plan runs on
  iteration 0, over its SCC's entry state, where the planner may seed it
  elsewhere;
* the median whole ``seminaive_evaluate(pool=…)``;
* the generation-2 garbage collections seen while timing: a collection
  that lands inside a single probe is an 8–12 ms pause and must not be
  read as the cost of a plan (medians here are over ``--runs``).

With ``--against DIR`` each tree runs in its own interpreter
(``scripts/_against.py``): ``--reps`` times this checkout's ``src/`` and
``DIR/src`` size the workload back to back, alternating which goes
first, and the table gives per plan both trees' seed and the median
run µs of both trees and their ratio (this ÷ against), then the same
for the whole evaluation.

It uses nothing that is not public API, so the same file runs on the
parent commit and on a change (a tree without ``full_seed`` plans
textually): the tables in CHANGES.md / DESIGN.md that quote it can be
reproduced from the repository.

Usage:
    python scripts/size_rule_kernel.py [--seed S] [--runs N]
        [--workload tc|sg|retail|analytics|flat|pt|agg_burst]
        [--against DIR] [--reps R]
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from _against import alternate, compare

HERE = Path(__file__).resolve()
#: ``--workload agg_burst``: ``retail_analytics`` at the size of the
#: end-to-end benchmark's ``agg_burst`` workload
AGG_BURST = {"n_products": 200, "n_stores": 24, "n_sales": 1500}


def gen2_collections() -> int:
    return gc.get_stats()[2]["collections"]


def load(workload: str, seed: int):
    """``(name, program, edb)`` of a ``--workload`` choice."""
    from repro.runtime import PROGRAM_ALIASES
    from repro.workloads.datalog_workloads import DATALOG_WORKLOADS

    if workload == "agg_burst":
        program, edb, _delta = DATALOG_WORKLOADS["retail_analytics"](
            seed=seed, **AGG_BURST
        )
        return workload, program, edb
    if workload not in PROGRAM_ALIASES:
        raise SystemExit(
            f"unknown workload {workload!r}; choose from "
            f"{sorted(PROGRAM_ALIASES)} or agg_burst"
        )
    name = PROGRAM_ALIASES[workload]
    program, edb, _delta = DATALOG_WORKLOADS[name](seed=seed)
    return name, program, edb


def seeded_order(rule, relations):
    """``(seed, order)`` the planner gives a full plan of ``rule`` over
    ``relations`` — ``(None, None)``: textual, as on a tree whose
    planner has no seed (``columnar.full_seed``) or seeds only away from
    the textual first."""
    import repro.datalog.columnar as columnar

    pick = getattr(columnar, "full_seed", None)
    seed = None if pick is None else pick(rule, relations)
    return seed, None if seed is None else columnar.body_order(rule, seed)


def timed(plan, final, pool, delta, runs: int) -> tuple[float, int, int]:
    """Median run µs, rows and probes of one run of ``plan``."""
    from repro.datalog.columnar import run_rule_plan

    run_rule_plan(plan, final, pool, delta)  # mirrors and indexes
    took = []
    for _ in range(runs):
        before = pool.probes
        t0 = perf_counter()
        rows = run_rule_plan(plan, final, pool, delta)
        took.append((perf_counter() - t0) * 1e6)
    return median(took), len(rows), pool.probes - before


def size(args) -> dict:
    """Every plan of the workload and the whole evaluation, as a dict."""
    from repro.datalog import InternPool, seminaive_evaluate
    from repro.datalog.columnar import compile_rule_plan

    name, program, edb = load(args.workload, args.seed)
    derived = {r.head.predicate for r in program.proper_rules}

    # cold compiles first: nothing has filled the memo yet
    plans = []
    for rule in program.proper_rules:
        positions = [None] + [
            pos for pos, lit in enumerate(rule.body)
            if lit.atom is not None and not lit.negated
            and lit.atom.predicate in derived
        ]
        for pos in positions:
            t0 = perf_counter()
            plan = compile_rule_plan(rule, None, pos)
            plans.append((rule, pos, plan, (perf_counter() - t0) * 1e3))

    pool = InternPool()
    collections = gen2_collections()
    final, _trace = seminaive_evaluate(program, edb, pool=pool)
    rows = []
    for rule, pos, plan, compile_ms in plans:
        delta = None if pos is None else {
            rule.body[pos].atom.predicate:
                final.relations[rule.body[pos].atom.predicate]
        }
        row = {"rule": repr(rule), "pos": pos, "compile_ms": compile_ms}
        row["text_us"], row["rows"], row["text_probes"] = timed(
            plan, final, pool, delta, args.runs
        )
        seed, order = (None, None) if pos is not None else seeded_order(
            rule, final.relations
        )
        row["seed"] = "-"
        row["run_us"], row["probes"] = row["text_us"], row["text_probes"]
        if order is not None:
            row["seed"] = rule.body[seed].atom.predicate
            seeded = compile_rule_plan(rule, order, None)
            row["run_us"], _rows, row["probes"] = timed(
                seeded, final, pool, None, args.runs
            )
        rows.append(row)

    took = []
    for _ in range(args.runs):
        t0 = perf_counter()
        seminaive_evaluate(program, edb, pool=InternPool())
        took.append((perf_counter() - t0) * 1e3)
    return {
        "name": name,
        "rules": len(program.proper_rules),
        "edb_facts": edb.total_facts(),
        "facts": final.total_facts(),
        "plans": rows,
        "eval_ms": median(took),
        "eval_min_ms": min(took),
        "eval_max_ms": max(took),
        "gen2": gen2_collections() - collections,
    }


def cut(text: str, width: int) -> str:
    return text[:width - 3] + "..." if len(text) > width else text


def report(got: dict, args) -> None:
    print(f"{got['name']}, seed {args.seed}: {got['rules']} rules, "
          f"{got['edb_facts']} EDB facts, {got['facts']} facts "
          f"materialized, {len(got['plans'])} plans, {args.runs} runs each")
    print(f"\n{'rule':52} {'Δ':>2} {'seed':>12} {'compile_ms':>10}"
          f" {'run_us':>9} {'text_us':>9} {'rows':>6} {'probes':>7}"
          f" {'text_pr':>7}")
    for p in got["plans"]:
        print(f"{cut(p['rule'], 52):52}"
              f" {'-' if p['pos'] is None else p['pos']:>2}"
              f" {p['seed']:>12} {p['compile_ms']:10.3f}"
              f" {p['run_us']:9.1f} {p['text_us']:9.1f} {p['rows']:6d}"
              f" {p['probes']:7d} {p['text_probes']:7d}")
    print(f"{'all plans':52} {'':>2} {'':>12}"
          f" {sum(p['compile_ms'] for p in got['plans']):10.3f}"
          f" {sum(p['run_us'] for p in got['plans']):9.1f}"
          f" {sum(p['text_us'] for p in got['plans']):9.1f}")
    print(f"\nseminaive_evaluate(pool=…)  {got['eval_ms']:9.3f} ms"
          f"  (median of {args.runs}; min {got['eval_min_ms']:.3f},"
          f" max {got['eval_max_ms']:.3f})")
    print(f"gc generation-2 collections while timing: {got['gen2']}")


def worker(args) -> int:
    """The workload on ``args.worker``'s tree, as one JSON line."""
    sys.path.insert(0, args.worker)
    print(json.dumps(size(args)))
    return 0


def against(args) -> int:
    """Alternate this tree and ``args.against`` over ``args.reps`` runs."""
    runs = alternate(HERE, args.against, args.reps, [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--runs", str(args.runs),
    ])
    plans = {
        name: [run["plans"] for run in got] for name, got in runs.items()
    }
    first = runs["this"][0]
    print(f"\n{first['name']}, seed {args.seed}: median over {args.reps} "
          f"rep(s) of each tree of the median of {args.runs} runs; "
          "against / this / this ÷ against")
    print("| rule | Δ | seed (against / this) | run_us |")
    print("|---|---|---|---|")
    for i, p in enumerate(first["plans"]):
        seeds = f"{plans['against'][0][i]['seed']} / {p['seed']}"
        cell = compare(plans, i, "run_us", lambda v: f"{v:.1f}")
        pos = "-" if p["pos"] is None else p["pos"]
        print(f"| `{p['rule']}` | {pos} | {seeds} | {cell} |")
    whole = {name: [[run] for run in got] for name, got in runs.items()}
    print(f"| seminaive_evaluate(pool=…) ms | | | "
          f"{compare(whole, 0, 'eval_ms')} |")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="pt",
                    help="a repro.runtime.PROGRAM_ALIASES name, or "
                    "agg_burst")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=25)
    ap.add_argument("--against", help="another checkout to compare with")
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        return worker(args)
    if args.against:
        return against(args)
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    report(size(args), args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
