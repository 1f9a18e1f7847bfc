"""Row replay of the DAG :func:`~repro.datalog.compiler.compile_update`
unrolls: the reference for its change flags.

``compile_update`` unrolls two recorded semi-naive evaluations into a
DAG — a source per EDB predicate, one task per (rule, Δ-position,
iteration), one state node per (predicate, iteration) — and reads its
change flags off the recorded outputs. Nothing in ``src`` executes that
DAG; this module does, on fact sets, each task joining with the row
evaluator's :func:`~repro.datalog.unify.eval_rule`, so the flags can be
checked against real diffs: a node changed iff its replayed value over
the old EDB differs from its replayed value over the new one.

Replay is sound because of the snapshot (two-phase) iteration semantics
of :func:`~repro.datalog.seminaive.seminaive_evaluate`: every recorded
rule-instance output is a pure function of the previous iteration's
predicate states, which are exactly the values the DAG wires into the
task. Running the nodes in any precedence-respecting order over either
side's EDB reproduces that side's evaluation; past a side's fixpoint its
Δ is empty, so its tasks derive nothing and its states stay put, as the
recorded trace has them.
"""

from __future__ import annotations

import numpy as np

from repro.datalog import Database, Relation
from repro.datalog.compiler import CompiledUpdate
from repro.datalog.depgraph import DependencyGraph
from repro.datalog.unify import eval_rule


class UnrolledReplay:
    """The unrolled DAG of ``cu`` as functions of fact sets."""

    def __init__(self, cu: CompiledUpdate) -> None:
        program = cu.program
        self.cu = cu
        self.rules = program.proper_rules
        self.arity = program.arities()
        self.key_to_id = cu.structure.key_to_id
        strata = DependencyGraph(program).stratify()
        self.stratum_of = {
            p: si for si, comp in enumerate(strata) for p in comp
        }
        self.edb_preds = program.edb_predicates()
        self.n_iters = [1] * len(strata)
        #: (predicate, stratum, iteration) → the tasks writing that state
        self.writers: dict[tuple, list[int]] = {}
        for nid, key in enumerate(cu.node_keys):
            if key[0] == "pred":
                self.n_iters[key[2]] = max(self.n_iters[key[2]], key[3] + 1)
            elif key[0] == "task":
                head = self.rules[key[3]].head.predicate
                self.writers.setdefault((head, key[1], key[2]), []).append(nid)
        self.stated: dict[str, set] = {}
        for fact in program.facts:
            self.stated.setdefault(fact.head.predicate, set()).add(
                tuple(t.value for t in fact.head.terms)
            )
        #: predicate → node carrying its final value
        self.final_nodes = {p: self.out_id(p) for p in self.stratum_of}

    def out_id(self, p: str) -> int:
        if p in self.edb_preds:
            return self.key_to_id[("edb", p)]
        si = self.stratum_of[p]
        return self.key_to_id[("pred", p, si, self.n_iters[si] - 1)]

    def _relation(self, p: str, facts) -> Relation:
        rel = Relation(p, self.arity[p])
        rel.extend(facts)
        return rel

    def _run(self, key: tuple, values: list, baseline: dict) -> frozenset:
        """One node's value from its inputs' values in ``values``."""
        if key[0] == "edb":
            return baseline[key[1]]
        if key[0] == "pred":
            _, p, si, k = key
            acc = set(
                values[self.key_to_id[("pred", p, si, k - 1)]]
                if k > 0
                else baseline[p]
            )
            for nid in self.writers.get((p, si, k), ()):
                acc |= values[nid]
            return frozenset(acc)
        _, si, k, ri, pos = key
        rule = self.rules[ri]
        overrides = None
        if pos is not None:
            dq = rule.body[pos].atom.predicate
            older = (
                values[self.key_to_id[("pred", dq, si, k - 2)]]
                if k >= 2
                else baseline[dq]
            )
            delta = values[self.key_to_id[("pred", dq, si, k - 1)]] - older
            if not delta:
                return frozenset()
            overrides = {dq: self._relation(dq, delta)}
        db = Database()
        for i, lit in enumerate(rule.body):
            if lit.atom is None or i == pos:
                continue
            q = lit.atom.predicate
            if self.stratum_of.get(q) == si and q not in self.edb_preds:
                # a stratum-local predicate: the previous iteration's
                # state, or only its program facts at iteration 0
                facts = (
                    values[self.key_to_id[("pred", q, si, k - 1)]]
                    if k > 0
                    else baseline[q]
                )
            else:
                facts = values[self.out_id(q)]
            db.relations[q] = self._relation(q, facts)
        return frozenset(eval_rule(rule, db, overrides, pos))

    def values(
        self,
        edb: Database,
        executed: np.ndarray | None = None,
        skipped: list | None = None,
    ) -> list[frozenset]:
        """Every node's value over ``edb``, nodes run in level order.

        With ``executed``, only those nodes run; every other node keeps
        its value in ``skipped``.
        """
        baseline = {
            p: frozenset(self.stated.get(p, ()))
            | frozenset(edb.relations.get(p, ()))
            for p in self.arity
        }
        keys = self.cu.node_keys
        values: list = (
            list(skipped) if skipped is not None else [None] * len(keys)
        )
        for node in np.argsort(self.cu.trace.levels, kind="stable"):
            node = int(node)
            if executed is None or executed[node]:
                values[node] = self._run(keys[node], values, baseline)
        return values

    def change_flags(self) -> list[bool]:
        """Per node: whether its replayed value differs between the two
        sides of the round."""
        old = self.values(self.cu.edb_old)
        new = self.values(self.cu.edb_new)
        return [a != b for a, b in zip(old, new)]

    def materialization(self, values: list) -> dict[str, frozenset]:
        """The round's new database as ``Database.as_dict`` has it."""
        out = {
            p: frozenset(rel) for p, rel in self.cu.edb_new.relations.items()
        }
        out.update((p, values[n]) for p, n in self.final_nodes.items())
        return out
