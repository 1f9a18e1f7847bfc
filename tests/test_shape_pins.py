"""Shape pins: what a consolidation removed stays removed.

Each row of ``ABSENT`` names a design decision and, per module or class,
the names it must not define again — attributes (``dir``), dataclass
fields, slots or signature parameters. A name coming back means a second
way of doing one thing came back with it. ``SOURCE_ABSENT`` does the same
for text of a module's or a function's source, and the tests below it pin
the few limits a name table cannot state: one node per unit, plain-list
state, and run loops that only sequence their phases.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import repro

ABSENT: dict[str, dict[str, set[str]]] = {
    "one maintenance engine, no strategy fork": {
        "repro.datalog": {
            "make_engine", "CountingEngine", "BackwardForwardEngine",
            "MAINTENANCE_STRATEGIES",
        },
    },
    "the plan cache schedules the program, not the answer": {
        "repro.datalog.plancache": {"structure_key", "_cumulative_states"},
    },
    "one way to run a round, no cold-compile branch": {
        "repro.runtime.service": {"compile_update", "build_execution_plan"},
    },
    "extern on read, the mirror is the storage": {
        "repro.datalog.database:Relation": {"release_mirror"},
        "repro.datalog.units:ProgramSkeleton": {"read_downstream"},
    },
    "one evaluator under the one engine": {
        "repro.datalog.incremental": {
            "join_body", "instantiate_head", "eval_rule", "_delete_stratum",
            "_collect_candidates", "_verify_candidates", "_old_view",
            "_recompute_stratum",
        },
    },
    "pre-computation lives on the Dag": {
        "repro.schedulers.base:SchedulerContext": {"memo"},
        "repro.datalog.units:ExecutionPlan": {"sched_memo"},
        "repro.tasks.trace:JobTrace": {"seed_levels"},
    },
    "one kernel per rule plan, no step interpreter": {
        "repro.datalog.columnar": {
            "_run_scan", "_emit_bucket", "_cmp_filter", "_assign_bind",
            "_SCAN", "_FILTER", "_BIND", "_NEG",
        },
        "repro.datalog.columnar:RulePlan": {"steps"},
    },
    "one skeleton": {
        "repro.datalog.units": {"PlanSkeleton"},
    },
    "one semi-naive loop": {
        "repro.datalog.units": {"_insert_stratum", "_gained", "_Stratum"},
        "repro.datalog.units:RoundCtx": {"committed_baseline"},
    },
    "every node emits its Z-set": {
        "repro.datalog.units:ProgramSkeleton": {"_zset"},
        "repro.datalog.units:RoundCtx": {"zsets"},
        "repro.datalog.incremental:IncrementalEngine": {"_net"},
        "repro.runtime.service": {"_round_diffs"},
    },
    # a compiled trace is the engine's round on the static G: no
    # unrolled compiler and no iteration records
    "one DAG model": {
        "repro.datalog.compiler": {"_cumulative_states"},
        "repro.datalog.compiler:build_round_structure": {"n_iters"},
        "repro.datalog.seminaive:seminaive_evaluate": {"record"},
    },
    # the intervals are unioned once, by the recorder
    "the executor's round is its phases": {
        "repro.runtime.executor:RoundOutcome": {"stall_s"},
    },
}

SOURCE_ABSENT: dict[str, set[str]] = {
    "repro.datalog.units": {"eval_rule", "_cumulative_states"},
    # the strict check walks the Dag's one cached topological order
    "repro.verify.invariants:check_invariants": {"topological_order("},
    "repro.tasks.activation:propagate_changes": {"topological_order("},
}


def _resolve(target: str):
    module, _, path = target.partition(":")
    obj = importlib.import_module(module)
    for attr in path.split(".") if path else ():
        obj = getattr(obj, attr)
    return obj


def _defined(obj) -> set[str]:
    """Every name ``obj`` defines: attributes (inherited and slots
    included), dataclass fields and, for a function, its parameters."""
    names = set(dir(obj))
    if dataclasses.is_dataclass(obj):
        names |= {f.name for f in dataclasses.fields(obj)}
    if inspect.isfunction(obj):
        names |= set(inspect.signature(obj).parameters)
    return names


@pytest.mark.parametrize("decision", ABSENT)
def test_removed_names_stay_absent(decision):
    for target, names in ABSENT[decision].items():
        back = names & _defined(_resolve(target))
        assert not back, f"{target} defines {sorted(back)} again"


@pytest.mark.parametrize("target", SOURCE_ABSENT)
def test_removed_code_stays_absent(target):
    source = inspect.getsource(_resolve(target))
    back = {text for text in SOURCE_ABSENT[target] if text in source}
    assert not back, f"{target} mentions {sorted(back)} again"


def test_one_skeleton_is_a_plain_class():
    from repro.datalog.units import ProgramSkeleton

    assert ProgramSkeleton.__bases__ == (object,)


def test_the_cached_scan_keeps_no_v_length_state():
    """The queue is a list and the active keys a sorted list: no
    occupancy array, no prefix sums, no second incoming queue."""
    from repro.dag import Dag
    from repro.schedulers import HybridScheduler
    from repro.schedulers.base import ReadinessOracle, SchedulerContext
    from repro.tasks import JobTrace

    t = JobTrace(
        dag=Dag(3, [(0, 1), (1, 2)]), work=np.ones(3),
        initial_tasks=np.array([0]),
        changed_edges=np.ones(2, dtype=bool), name="c",
    )
    h = HybridScheduler()
    h.prepare(SchedulerContext(
        trace=t, processors=2, oracle=ReadinessOracle(lambda v: True)
    ))
    kept = set(vars(type(h._lbx))) | set(vars(h._lbx))
    gone = {"_consolidate", "_prefix", "_key_active", "_incoming"} & kept
    assert not gone, gone


def test_a_compiled_trace_has_one_node_per_unit():
    """One DAG model: the compiled trace of every shipped workload has
    one node per unit of its execution plan."""
    from repro.datalog.units import build_execution_plan
    from repro.workloads.datalog_workloads import (
        DATALOG_WORKLOADS,
        compile_workload,
    )

    for name in DATALOG_WORKLOADS:
        cu = compile_workload(name)
        assert cu.trace.dag.n_nodes == len(build_execution_plan(cu).units), (
            name
        )


def test_the_simulator_walks_plain_lists():
    """The activation tracker of ``simulate`` and of every served round
    keeps its per-node and per-edge state in Python lists."""
    from repro.dag import Dag
    from repro.tasks import JobTrace

    t = JobTrace(
        dag=Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)]), work=np.ones(4),
        initial_tasks=np.array([0]),
        changed_edges=np.ones(4, dtype=bool), name="d",
    )
    s = t.fresh_activation_state()
    for n in ("unresolved_parents", "activated", "will_execute",
              "executed", "resolved", "dispatched", "quarantined",
              "changed_edges"):
        assert type(getattr(s, n)) is list, n


def test_the_executors_round_is_its_phases():
    """``run()`` only sequences the named phases of one per-round state;
    the intervals are unioned once, by the recorder."""
    from repro.runtime.executor import RoundExecutor
    from repro.runtime.recorder import union_intervals

    assert len(inspect.getsource(RoundExecutor.run).splitlines()) <= 60
    assert union_intervals.__module__ == "repro.runtime.recorder"


FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
SRC = Path(repro.__file__).resolve().parent


def _own_nodes(f):
    """The nodes of ``f``'s body outside any function nested in it."""
    todo = list(f.body)
    while todo:
        n = todo.pop()
        if not isinstance(n, FUNCS + (ast.Lambda,)):
            yield n
            todo.extend(ast.iter_child_nodes(n))


def test_the_simulators_run_is_its_phases():
    """``simulate()`` only sequences the phases of one per-run state: no
    closure in ``sim/engine.py``, and the dispatch check both loops call
    is the one function that raises ``InvalidDispatchError``."""
    tree = ast.parse((SRC / "sim" / "engine.py").read_text())
    nested = [
        (f.name, g.name)
        for f in ast.walk(tree) if isinstance(f, FUNCS)
        for g in ast.walk(f) if g is not f and isinstance(g, FUNCS)
    ]
    assert not nested, f"nested defs in sim/engine.py: {nested}"
    sim = next(
        f for f in tree.body
        if isinstance(f, ast.FunctionDef) and f.name == "simulate"
    )
    first = sim.body[1] if isinstance(sim.body[0], ast.Expr) else sim.body[0]
    lines = sim.end_lineno - first.lineno + 1
    assert lines <= 40, f"simulate body is {lines} lines"
    raisers = {
        (str(p.relative_to(SRC)), f.name)
        for p in sorted(SRC.rglob("*.py"))
        for f in ast.walk(ast.parse(p.read_text()))
        if isinstance(f, FUNCS)
        if any(
            isinstance(n, ast.Raise) and n.exc is not None
            and ast.unparse(n.exc).startswith("InvalidDispatchError(")
            for n in _own_nodes(f)
        )
    }
    assert len(raisers) == 1, f"raise InvalidDispatchError in {sorted(raisers)}"
