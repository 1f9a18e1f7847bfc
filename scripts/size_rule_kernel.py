#!/usr/bin/env python3
"""Size the rule plans of one shipped program: compile once, run how long?

Takes a program and EDB from ``repro.workloads.datalog_workloads``,
materializes it with ``seminaive_evaluate(pool=…)`` and prints

* per rule × Δ-position the cold ``compile_rule_plan`` time (the first
  call in this process: the memo is empty) and the median
  ``run_rule_plan`` time over the final materialization, with the rows
  it returns and what one run adds to ``pool.probes`` — a Δ-position is
  every positive body occurrence of a derived predicate, and its Δ here
  is that predicate's whole final relation, so every plan of a rule
  derives the same rows and only where it reads differs;
* the median whole ``seminaive_evaluate(pool=…)``;
* the generation-2 garbage collections seen while timing: a collection
  that lands inside a single probe is an 8–12 ms pause and must not be
  read as the cost of a plan (medians here are over ``--runs``).

It uses nothing that is not public API, so the same file runs on the
parent commit and on a change: the tables in CHANGES.md / DESIGN.md
that quote it can be reproduced from the repository.

Usage:
    python scripts/size_rule_kernel.py [--seed S] [--runs N]
        [--workload tc|sg|retail|analytics|flat|pt]
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.datalog import InternPool, seminaive_evaluate  # noqa: E402
from repro.datalog.columnar import (  # noqa: E402
    compile_rule_plan,
    run_rule_plan,
)
from repro.runtime import PROGRAM_ALIASES  # noqa: E402
from repro.workloads.datalog_workloads import DATALOG_WORKLOADS  # noqa: E402


def gen2_collections() -> int:
    return gc.get_stats()[2]["collections"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="pt",
                    choices=sorted(PROGRAM_ALIASES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=25)
    args = ap.parse_args()
    name = PROGRAM_ALIASES[args.workload]
    program, edb, _delta = DATALOG_WORKLOADS[name](seed=args.seed)
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
    print(f"{name}, seed {args.seed}: {len(program.proper_rules)} rules, "
          f"{edb.total_facts()} EDB facts, {final.total_facts()} facts "
          f"materialized, {len(plans)} plans, {args.runs} runs each")
    print(f"\n{'rule':58} {'Δ':>2} {'compile_ms':>10} {'run_us':>9}"
          f" {'rows':>6} {'probes':>7}")
    total_us = 0.0
    for rule, pos, plan, compile_ms in plans:
        delta = None if pos is None else {
            rule.body[pos].atom.predicate:
                final.relations[rule.body[pos].atom.predicate]
        }
        run_rule_plan(plan, final, pool, delta)  # mirrors and indexes
        took = []
        for _ in range(args.runs):
            before = pool.probes
            t0 = perf_counter()
            rows = run_rule_plan(plan, final, pool, delta)
            took.append((perf_counter() - t0) * 1e6)
        total_us += median(took)
        text = repr(rule)
        print(f"{text[:55] + '...' if len(text) > 58 else text:58}"
              f" {'-' if pos is None else pos:>2} {compile_ms:10.3f}"
              f" {median(took):9.1f} {len(rows):6d}"
              f" {pool.probes - before:7d}")
    print(f"{'all plans':58} {'':>2}"
          f" {sum(p[3] for p in plans):10.3f} {total_us:9.1f}")

    took = []
    for _ in range(args.runs):
        t0 = perf_counter()
        seminaive_evaluate(program, edb, pool=InternPool())
        took.append((perf_counter() - t0) * 1e3)
    print(f"\nseminaive_evaluate(pool=…)  {median(took):9.3f} ms"
          f"  (median of {args.runs}; min {min(took):.3f},"
          f" max {max(took):.3f})")
    print(f"gc generation-2 collections while timing:"
          f" {gen2_collections() - collections}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
