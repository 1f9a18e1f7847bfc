"""A program is a value: ``Program`` is frozen, and what follows from its
rules — arities, predicate sets, facts, proper rules, stated facts,
strata, recursive predicates — is derived once, on the program, and
handed out read-only.

The oracle for every derived view is a recomputation from ``rules``
written inline below: the method bodies ``Program`` had before its
views were cached.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from types import MappingProxyType

import pytest

import repro.datalog.depgraph as depgraph_module
from repro.datalog import (
    Database,
    Delta,
    IncrementalEngine,
    Program,
    compile_update,
    parse_program,
)
from repro.datalog.depgraph import condensation_sccs
from repro.runtime import UpdateStreamService, live_workload
from repro.schedulers import scheduler_registry
from repro.workloads.datalog_workloads import DATALOG_WORKLOADS
from repro.workloads.generated import UpdateStream, stratified_program

TC = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
edge(1, 2).
"""


def _programs() -> dict[str, Program]:
    out = {name: make()[0] for name, make in DATALOG_WORKLOADS.items()}
    for seed in (5, 23):
        out[f"stratified_{seed}"] = stratified_program(seed).program
    out["negation_and_facts"] = parse_program(
        """
        reach(X) :- source(X).
        reach(Y) :- reach(X), edge(X, Y).
        unreach(X) :- node(X), !reach(X).
        total(sum(X)) :- node(X).
        source(1). node(1). node(2). node(2).
        """
    )
    return out


PROGRAMS = _programs()


# -- the oracle: the old method bodies, recomputed from ``rules`` -------
def _arities(program: Program) -> dict[str, int]:
    return {
        atom.predicate: atom.arity
        for r in program.rules
        for atom in (
            r.head,
            *(lit.atom for lit in r.body if lit.atom is not None),
        )
    }


def _predicates(program: Program) -> set[str]:
    out: set[str] = set()
    for r in program.rules:
        out.add(r.head.predicate)
        for p, _ in r.body_predicates():
            out.add(p)
    return out


def _idb(program: Program) -> set[str]:
    return {r.head.predicate for r in program.rules if not r.is_fact}


def _stated(program: Program) -> dict[str, tuple]:
    stated: dict[str, list] = {}
    for r in program.rules:
        if r.is_fact:
            stated.setdefault(r.head.predicate, []).append(
                tuple(t.value for t in r.head.terms)
            )
    return {p: tuple(facts) for p, facts in stated.items()}


def _sccs(program: Program) -> list[list[str]]:
    edges: dict[str, set[str]] = {}
    for r in program.rules:
        for p, _neg in r.body_predicates():
            edges.setdefault(p, set()).add(r.head.predicate)
    return condensation_sccs(sorted(_predicates(program)), edges)


def _strata(program: Program) -> tuple:
    proper = [r for r in program.rules if not r.is_fact]
    return tuple(
        tuple(
            (ri, r) for ri, r in enumerate(proper)
            if r.head.predicate in set(stratum)
        )
        for stratum in _sccs(program)
    )


def _recursive(program: Program) -> set[str]:
    out = {p for comp in _sccs(program) if len(comp) > 1 for p in comp}
    for r in program.rules:
        if any(p == r.head.predicate for p, _ in r.body_predicates()):
            out.add(r.head.predicate)
    return out


# -- frozen ------------------------------------------------------------
def test_rules_are_a_tuple_and_the_program_is_frozen():
    program = parse_program(TC)
    assert type(program.rules) is tuple
    assert type(Program([*program.rules]).rules) is tuple
    with pytest.raises(dataclasses.FrozenInstanceError):
        program.rules = ()  # type: ignore[misc]
    with pytest.raises(dataclasses.FrozenInstanceError):
        program.extra = 1  # type: ignore[attr-defined]


def test_derived_views_are_read_only_and_built_once():
    program = parse_program(TC)
    for view in ("arities", "predicates", "idb_predicates",
                 "edb_predicates"):
        assert getattr(program, view)() is getattr(program, view)(), view
    for attr in ("facts", "proper_rules", "stated_facts", "strata",
                 "depgraph"):
        assert getattr(program, attr) is getattr(program, attr), attr
    assert type(program.arities()) is MappingProxyType
    assert type(program.stated_facts) is MappingProxyType
    for view in (program.predicates(), program.idb_predicates(),
                 program.edb_predicates(),
                 program.depgraph.recursive_predicates()):
        assert type(view) is frozenset
    assert type(program.facts) is tuple
    assert type(program.proper_rules) is tuple
    with pytest.raises(TypeError):
        program.arities()["edge"] = 3  # type: ignore[index]
    with pytest.raises(TypeError):
        program.stated_facts["edge"] = ()  # type: ignore[index]


def test_equal_rules_make_equal_programs():
    a, b = parse_program(TC), parse_program("\n\n" + TC)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != parse_program(TC + "edge(2, 3).")
    # the derived views are rebuilt on unpickling, not pickled
    a.stated_facts, a.depgraph
    assert pickle.loads(pickle.dumps(a)) == a == copy.deepcopy(a)


def test_a_lenient_program_keeps_the_last_arity():
    program = Program(
        parse_program("p(X) :- q(X).").rules
        + parse_program("r(X, Y) :- q(X, Y).").rules,
        check=False,
    )
    assert dict(program.arities()) == {"p": 1, "q": 2, "r": 2}
    with pytest.raises(ValueError, match="used with arities 1 and 2"):
        Program(program.rules)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_view_equals_its_recomputation(name):
    program = PROGRAMS[name]
    assert dict(program.arities()) == _arities(program)
    assert list(program.arities()) == list(_arities(program))
    assert program.predicates() == _predicates(program)
    assert program.idb_predicates() == _idb(program)
    assert program.edb_predicates() == _predicates(program) - _idb(program)
    assert program.facts == tuple(r for r in program.rules if r.is_fact)
    assert program.proper_rules == tuple(
        r for r in program.rules if not r.is_fact
    )
    assert dict(program.stated_facts) == _stated(program)
    assert program.depgraph.stratify() == _sccs(program)
    assert program.strata == _strata(program)
    assert program.depgraph.recursive_predicates() == _recursive(program)


# -- one dependency graph, one Tarjan run, per program ------------------
@pytest.fixture
def counted(monkeypatch):
    counts = {"graphs": 0, "tarjan": 0}
    post = depgraph_module.DependencyGraph.__post_init__

    def counting_post(self):
        counts["graphs"] += 1
        post(self)

    def counting_sccs(*args):
        counts["tarjan"] += 1
        return condensation_sccs(*args)

    monkeypatch.setattr(
        depgraph_module.DependencyGraph, "__post_init__", counting_post
    )
    monkeypatch.setattr(depgraph_module, "condensation_sccs", counting_sccs)
    return counts


def _stream(name: str):
    """A fresh program, its EDB and 12 update batches."""
    if name == "generated":
        gen = stratified_program(5)
        batches = UpdateStream(gen, 5, cancel=0)
        return gen.program, gen.edb, [batches.batch(1) for _ in range(12)]
    wl = live_workload(name, seed=1)
    return wl.program, wl.edb, [wl.random_batch() for _ in range(12)]


@pytest.mark.parametrize("name", ["generated", "tc", "pt"])
def test_service_builds_one_graph_and_runs_tarjan_once(counted, name):
    program, edb, deltas = _stream(name)
    svc = UpdateStreamService(
        program, edb, scheduler_registry()["levelbased"](),
        workers=2, verify=True, strict=True,
    )
    for delta in deltas:
        svc.submit(delta)
        assert svc.run_round().materialization_ok
    assert counted == {"graphs": 1, "tarjan": 1}


@pytest.mark.parametrize("name", ["generated", "tc", "pt"])
def test_engine_builds_at_most_one_graph(counted, name):
    program, edb, deltas = _stream(name)
    engine = IncrementalEngine(program, edb)
    for delta in deltas:
        engine.apply(delta)
    assert counted["graphs"] <= 1 and counted["tarjan"] <= 1


# -- an EDB whose arity disagrees with the program is refused -----------
def _serve(program, edb):
    return UpdateStreamService(
        program, edb, scheduler_registry()["levelbased"](), workers=2
    )


@pytest.mark.parametrize(
    "entry",
    [
        _serve,
        IncrementalEngine,
        lambda program, edb: compile_update(program, edb, Delta()),
    ],
    ids=["service", "engine", "compile_update"],
)
def test_an_edb_arity_the_program_disagrees_with_is_refused(entry):
    program = parse_program(
        "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), edge(Y, Z)."
    )
    edb = Database()
    edb.add_fact("edge", (1, 2, 3))
    with pytest.raises(ValueError, match=r"'edge' has arity 3.* arity 2"):
        entry(program, edb)
