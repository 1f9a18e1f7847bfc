"""Predicate dependency graph, SCCs, and stratification.

The *predicate dependency graph* has one node per predicate and an edge
``p → q`` whenever ``p`` appears in the body of a rule with head ``q``
(marked negative when the occurrence is negated). Strongly connected
components (Tarjan, iterative) identify mutually recursive predicate
groups; a program is *stratifiable* iff no negative edge lies inside an
SCC. Strata are the SCCs in topological order — the evaluator
processes them bottom-up, and the one computation DAG
(:func:`~repro.datalog.compiler.build_round_structure`) makes each
recursive SCC's whole fixpoint one node.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .ast import Program

__all__ = ["DependencyGraph", "StratificationError", "condensation_sccs"]


class StratificationError(ValueError):
    """The program negates a predicate inside its own recursive clique."""


def condensation_sccs(
    nodes: list[str], edges: dict[str, set[str]]
) -> list[list[str]]:
    """Strongly connected components in *dependency order*: if any edge
    runs from component A to component B, A appears before B.

    Iterative Tarjan emits components sinks-first (a component completes
    before anything that reaches it), so the emission order is reversed
    before returning.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[str, list[str], int]] = [
            (root, sorted(edges.get(root, ())), 0)
        ]
        while work:
            v, children, ci = work.pop()
            if ci == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            while ci < len(children):
                w = children[ci]
                ci += 1
                if w not in index:
                    work.append((v, children, ci))
                    work.append((w, sorted(edges.get(w, ())), 0))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    sccs.reverse()
    return sccs


@dataclass
class DependencyGraph:
    """Dependency structure of a :class:`~repro.datalog.ast.Program`.

    A program keeps one (:attr:`~repro.datalog.ast.Program.depgraph`),
    and the static DAG, the evaluators and the analyzer all read it. Its
    SCCs (one Tarjan run), recursive predicates and negation cycles are
    derived at construction and shared, read-only.
    """

    program: Program
    #: body-pred → set of head-preds it feeds (positive or negative)
    edges: dict[str, set[str]] = field(default_factory=dict)
    #: (body-pred, head-pred) pairs where the body occurrence is negated
    negative_edges: set[tuple[str, str]] = field(default_factory=set)
    #: negative edge → why it stratifies ("negation" | "aggregation");
    #: negation wins when one edge has both kinds of occurrence
    negative_edge_kinds: dict[tuple[str, str], str] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        deps: dict[str, set[str]] = defaultdict(set)
        for rule in self.program.proper_rules:
            for pred, negated in rule.body_predicates():
                edge = (pred, rule.head.predicate)
                deps[pred].add(rule.head.predicate)
                # aggregation stratifies like negation: the aggregated
                # body must be fully materialized before the rule runs
                if negated:
                    self.negative_edges.add(edge)
                    self.negative_edge_kinds[edge] = "negation"
                elif rule.has_aggregate:
                    self.negative_edges.add(edge)
                    self.negative_edge_kinds.setdefault(edge, "aggregation")
        self.edges = dict(deps)
        # one Tarjan run; every view below reads it, none writes it
        self._sccs = condensation_sccs(
            sorted(self.program.predicates()), self.edges
        )
        self._comp_of = {p: i for i, c in enumerate(self._sccs) for p in c}
        self._recursive = frozenset(
            [p for comp in self._sccs if len(comp) > 1 for p in comp]
            + [p for p, targets in self.edges.items() if p in targets]
        )
        self._cycles = [
            (
                self._witness_path(dst, src, set(self._component(src)))
                + [dst],
                self.negative_edge_kinds[(src, dst)],
            )
            for src, dst in sorted(self.negative_edges)
            if self._comp_of[src] == self._comp_of[dst]
        ]

    # ------------------------------------------------------------------
    def _component(self, pred: str) -> list[str]:
        return self._sccs[self._comp_of[pred]]

    def sccs(self) -> list[list[str]]:
        """SCCs in dependency order (a predicate's inputs come first)."""
        return self._sccs

    def recursive_predicates(self) -> frozenset[str]:
        """Predicates in a multi-node SCC or with a self-loop."""
        return self._recursive

    def _witness_path(
        self, start: str, goal: str, comp: set[str]
    ) -> list[str]:
        """Shortest dependency path ``start → … → goal`` within one SCC
        (BFS over positive-or-negative edges, restricted to ``comp``)."""
        if start == goal:
            return [start]
        parent: dict[str, str | None] = {start: None}
        frontier = [start]
        while frontier:
            nxt: list[str] = []
            for u in frontier:
                for w in sorted(self.edges.get(u, ())):
                    if w not in comp or w in parent:
                        continue
                    parent[w] = u
                    if w == goal:
                        path = [w]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])  # type: ignore[arg-type]
                        path.reverse()
                        return path
                    nxt.append(w)
            frontier = nxt
        return [start, goal]  # unreachable: start/goal share an SCC

    def negation_cycles(self) -> list[tuple[list[str], str]]:
        """Every stratification violation with a witness cycle.

        For each negative edge ``src → dst`` inside one SCC, returns
        ``(cycle, kind)`` where ``cycle`` is a predicate path
        ``[dst, …, src, dst]`` — the positive dependency chain from the
        rule's head back to the offending body predicate, closed by the
        negative edge — and ``kind`` is ``"negation"`` or
        ``"aggregation"``. Empty iff the program stratifies.
        """
        return self._cycles

    def stratify(self) -> list[list[str]]:
        """Strata (SCCs in dependency order); raises on negation in a cycle.

        Each stratum is one SCC. All predicates an SCC depends on appear
        in strictly earlier strata, so negated bodies are fully
        materialized before their consumers run — the standard
        stratified-negation semantics.
        """
        if self._cycles:
            cycle, kind = self._cycles[0]
            raise StratificationError(
                f"{kind} of {cycle[-2]!r} inside its own recursive "
                f"component {self._component(cycle[-2])!r}: dependency "
                "cycle " + " -> ".join(map(repr, cycle))
            )
        return self._sccs

    def is_stratifiable(self) -> bool:
        """Whether :meth:`stratify` succeeds."""
        return not self._cycles
