"""The recursive half of the program generator."""

from __future__ import annotations

import pytest

from repro.verify.program import analyze_program
from repro.workloads.generated import recursive_program


def test_recursive_programs_are_legal_and_reach_every_shape():
    """Fifty seeds: no error-severity finding and a fix node in each;
    among them a two-predicate SCC, and a negation and an aggregate
    above an SCC."""
    shapes = set()
    for seed in range(50):
        program = recursive_program(seed).program
        assert not analyze_program(program).errors(), seed
        recursive = program.depgraph.recursive_predicates()
        assert recursive, seed
        if any(len(scc) > 1 for scc in program.depgraph.sccs()):
            shapes.add("two-predicate SCC")
        for rule in program.proper_rules:
            reads = dict(rule.body_predicates())
            if rule.head.predicate in recursive or not recursive & set(reads):
                continue
            if any(reads[p] for p in recursive & set(reads)):
                shapes.add("negation above")
            if rule.has_aggregate:
                shapes.add("aggregate above")
    assert shapes == {"two-predicate SCC", "negation above", "aggregate above"}
    with pytest.raises(ValueError, match="n_edb must be >= 2"):
        recursive_program(0, n_edb=1)
