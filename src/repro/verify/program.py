"""Whole-program static analysis for Datalog programs.

A multi-pass analyzer over the AST (:mod:`repro.datalog.ast`) and the
predicate dependency graph (:mod:`repro.datalog.depgraph`), reporting
positioned findings in the same shape — and with the same suppression
syntax — as the scheduler contract linter:

``syntax``
    Clauses the lenient parser could not build (reported, the rest of
    the file still analyzes).
``safety``
    Range-restriction violations: head/negated/comparison variables
    never bound by a positive body atom, non-ground facts, aggregates
    outside rule heads.
``stratification``
    Negation (or aggregation) of a predicate inside its own recursive
    component, with the witness dependency cycle spelled out.
``arity``
    A predicate used with inconsistent arities across rules, or
    contradicting its ``% edb:`` declaration.
``undefined-predicate``
    A body predicate with no facts, no rules, and no EDB declaration
    (only when the file declares its EDB — without a declaration every
    head-less predicate is assumed to be input).
``dead-rule``
    Rules that can never fire (some positive body predicate is provably
    empty) and rules unreachable from the declared outputs.
``duplicate-rule`` / ``subsumed-rule``
    A rule that is an α-renaming of an earlier one / a rule made
    redundant by a more general one (θ-subsumption).
``cartesian-join``
    A body atom joined with no shared variables and no constants — a
    cross product under the left-to-right join — with a reordering
    hint when one exists. The computed orders feed the runtime: the
    plan cache hands them to :class:`~repro.datalog.units.ProgramSkeleton`.

Source files may declare their schema with pragmas (ordinary ``%``
comments the lexer already skips)::

    % edb: edge/2, label/2
    % output: report, alerts

``% edb:`` names the input predicates and arities (enabling the
undefined-predicate and declaration-mismatch checks and grounding the
dead-rule analysis); ``% output:`` names the predicates the program is
*for* (enabling unreachable-rule detection).

:class:`ProgramAnalysis` also exposes one runtime hook:
:meth:`~ProgramAnalysis.join_orders_for` (the cartesian-repair body
orders, keyed by rule for any program that holds the rule), which the
plan cache hands to its rule plans. A dead rule is not removed from
what runs: it stays in the program's static DAG, and a round that
activates it joins against an empty relation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Iterable

from ..datalog.ast import (
    Assignment,
    Atom,
    Comparison,
    Constant,
    Literal,
    Program,
    Rule,
    Variable,
)
from ..datalog.parser import ParseError, parse_program_lenient
from .diagnostics import Finding, apply_suppressions

__all__ = [
    "ALL_PROGRAM_RULES",
    "ProgramAnalysis",
    "analyze_program",
    "analyze_source",
    "analyze_path",
]

SYNTAX = "syntax"
SAFETY = "safety"
STRATIFICATION = "stratification"
ARITY = "arity"
UNDEFINED_PREDICATE = "undefined-predicate"
DEAD_RULE = "dead-rule"
DUPLICATE_RULE = "duplicate-rule"
SUBSUMED_RULE = "subsumed-rule"
CARTESIAN_JOIN = "cartesian-join"
PRAGMA = "pragma"
ALL_PROGRAM_RULES = (
    SYNTAX,
    SAFETY,
    STRATIFICATION,
    ARITY,
    UNDEFINED_PREDICATE,
    DEAD_RULE,
    DUPLICATE_RULE,
    SUBSUMED_RULE,
    CARTESIAN_JOIN,
    PRAGMA,
)

#: bodies longer than this skip the subsumption search (worst case is
#: exponential in body length; real rules are far shorter)
_MAX_SUBSUMPTION_BODY = 8

_PRAGMA_RE = re.compile(r"^\s*%\s*(edb|output)\s*:\s*(.*?)\s*$")
_EDB_ITEM_RE = re.compile(r"^([a-z_][A-Za-z0-9_]*)\s*/\s*(\d+)$")
_OUTPUT_ITEM_RE = re.compile(r"^[a-z_][A-Za-z0-9_]*$")


# ----------------------------------------------------------------------
# the analysis result
# ----------------------------------------------------------------------
@dataclass
class ProgramAnalysis:
    """Findings plus the runtime-consumable facts about one program."""

    program: Program
    path: str
    findings: list[Finding]
    #: ``% edb:``-declared input predicates → arity (empty without pragma)
    declared_edb: dict[str, int] = dc_field(default_factory=dict)
    #: ``% output:``-declared result predicates (None without pragma)
    outputs: frozenset[str] | None = None
    #: indices into ``program.rules`` unreachable from the outputs
    unreachable_rules: frozenset[int] = frozenset()
    #: proper-rule index → recommended body evaluation order (a
    #: permutation of body literal indices; only rules whose original
    #: order forms a cross product that reordering repairs)
    join_orders: dict[int, tuple[int, ...]] = dc_field(default_factory=dict)
    #: stable per-rule ids, ``head#n`` (nth rule for that head)
    rule_ids: list[str] = dc_field(default_factory=list)

    def errors(self) -> list[Finding]:
        """The error-severity findings."""
        return [f for f in self.findings if f.severity == "error"]

    def _never_firing(self) -> tuple[set[int], set[str]]:
        """Least-fixpoint possibly-nonempty analysis (the ``dead-rule``
        finding).

        The program's own facts and any declared EDB are assumed
        possibly non-empty; a proper rule *fires* once every positive
        body predicate is possibly non-empty, which makes its head
        possibly non-empty. Returns ``(indices of rules that never
        fire, possibly-nonempty preds)``. Negated atoms are ignored (an
        empty predicate only makes a negation more permissive), so a
        rule reported here cannot contribute to any materialization.
        """
        nonempty = set(self.declared_edb)
        nonempty.update(r.head.predicate for r in self.program.facts)
        rules = list(enumerate(self.program.rules))
        fires: set[int] = set()
        changed = True
        while changed:
            changed = False
            for i, r in rules:
                if r.is_fact or i in fires:
                    continue
                if all(
                    lit.atom.predicate in nonempty
                    for lit in r.body
                    if lit.atom is not None and not lit.negated
                ):
                    fires.add(i)
                    nonempty.add(r.head.predicate)
                    changed = True
        dead = {i for i, r in rules if not r.is_fact and i not in fires}
        return dead, nonempty

    # -- runtime hook ---------------------------------------------------
    def join_orders_for(self, program: Program) -> dict[int, tuple[int, ...]]:
        """Re-key :attr:`join_orders` for ``program``, whose proper-rule
        indices may differ from the analyzed program's (a sub-program, a
        reordered copy). Matches rules by structural value."""
        if not self.join_orders:
            return {}
        proper = self.program.proper_rules
        by_rule = {proper[i]: order for i, order in self.join_orders.items()}
        return {
            i: by_rule[r]
            for i, r in enumerate(program.proper_rules)
            if r in by_rule
        }


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _rule_pos(rule: Rule) -> tuple[int, int]:
    return rule.head.line or 1, rule.head.col or 1


def _lit_pos(lit: Literal, rule: Rule) -> tuple[int, int]:
    src = lit.atom or lit.comparison or lit.assignment
    line = getattr(src, "line", None)
    col = getattr(src, "col", None)
    if line is None:
        return _rule_pos(rule)
    return line, col or 1


def _atom_pos(atom: Atom, rule: Rule) -> tuple[int, int]:
    if atom.line is None:
        return _rule_pos(rule)
    return atom.line, atom.col or 1


def _rule_ids(program: Program) -> list[str]:
    counts: dict[str, int] = {}
    ids: list[str] = []
    for r in program.rules:
        n = counts.get(r.head.predicate, 0) + 1
        counts[r.head.predicate] = n
        ids.append(f"{r.head.predicate}#{n}")
    return ids


def _canonical(rule: Rule) -> str:
    """The rule's repr with variables renamed in first-occurrence order
    (α-equivalent rules canonicalize identically)."""
    mapping: dict[str, str] = {}

    def ren(name: str) -> str:
        if name not in mapping:
            mapping[name] = f"V{len(mapping)}"
        return mapping[name]

    def term(t) -> str:
        if isinstance(t, Variable):
            return ren(t.name)
        return repr(t)

    def atom(a: Atom) -> str:
        parts = []
        for t in a.terms:
            if hasattr(t, "op") and hasattr(t, "var"):  # Aggregate
                parts.append(f"{t.op}({ren(t.var.name)})")
            else:
                parts.append(term(t))
        return f"{a.predicate}({', '.join(parts)})"

    out = [atom(rule.head)]
    for lit in rule.body:
        if lit.atom is not None:
            out.append(("!" if lit.negated else "") + atom(lit.atom))
        elif lit.comparison is not None:
            c = lit.comparison
            out.append(f"{term(c.left)} {c.op} {term(c.right)}")
        else:
            a = lit.assignment
            assert a is not None
            rhs = term(a.left)
            if a.op is not None:
                rhs += f" {a.op} {term(a.right)}"
            out.append(f"{ren(a.target.name)} = {rhs}")
    return out[0] + " :- " + ", ".join(out[1:])


# -- θ-subsumption ------------------------------------------------------
def _match_term(ta, tb, theta: dict[str, object]) -> dict | None:
    if isinstance(ta, Variable):
        cur = theta.get(ta.name)
        if cur is None:
            ext = dict(theta)
            ext[ta.name] = tb
            return ext
        return theta if cur == tb else None
    if isinstance(ta, Constant):
        return theta if ta == tb else None
    return None  # aggregates never subsume


def _match_terms(ts_a, ts_b, theta: dict | None) -> dict | None:
    if theta is None or len(ts_a) != len(ts_b):
        return None
    for ta, tb in zip(ts_a, ts_b):
        theta = _match_term(ta, tb, theta)
        if theta is None:
            return None
    return theta


def _match_literal(la: Literal, lb: Literal, theta: dict) -> dict | None:
    if la.atom is not None:
        if lb.atom is None or la.negated != lb.negated:
            return None
        if la.atom.predicate != lb.atom.predicate:
            return None
        return _match_terms(la.atom.terms, lb.atom.terms, theta)
    if la.comparison is not None:
        if lb.comparison is None or la.comparison.op != lb.comparison.op:
            return None
        return _match_terms(
            (la.comparison.left, la.comparison.right),
            (lb.comparison.left, lb.comparison.right),
            theta,
        )
    a, b = la.assignment, lb.assignment
    if a is None or b is None or a.op != b.op:
        return None
    return _match_terms(
        (a.target, a.left, a.right), (b.target, b.left, b.right), theta
    )


def _subsumes(a: Rule, b: Rule) -> bool:
    """Whether a substitution θ maps ``a``'s head onto ``b``'s head and
    every ``a`` body literal onto *some* ``b`` body literal — then every
    derivation ``b`` makes, ``a`` already makes, so ``b`` is redundant.
    Aggregate rules are skipped (their group semantics are not
    set-monotone under body weakening)."""
    if a.has_aggregate or b.has_aggregate:
        return False
    if max(len(a.body), len(b.body)) > _MAX_SUBSUMPTION_BODY:
        return False
    if a.head.predicate != b.head.predicate:
        return False
    theta0 = _match_terms(a.head.terms, b.head.terms, {})
    if theta0 is None:
        return False

    def search(i: int, theta: dict) -> bool:
        if i == len(a.body):
            return True
        for lb in b.body:
            ext = _match_literal(a.body[i], lb, theta)
            if ext is not None and search(i + 1, ext):
                return True
        return False

    return search(0, theta0)


# -- cartesian joins and greedy body orders -----------------------------
def _disconnected_atoms(rule: Rule, order: Iterable[int]) -> list[int]:
    """Body indices (among ``order``) where a positive atom joins with
    no shared bound variable and no constant — a cross product under
    the left-to-right nested-loop join."""
    bound: set[str] = set()
    out: list[int] = []
    first = True
    for i in order:
        lit = rule.body[i]
        if lit.atom is not None and not lit.negated:
            names = {v.name for v in lit.atom.variables()}
            has_const = any(
                isinstance(t, Constant) for t in lit.atom.terms
            )
            if not first and names and not has_const and not (names & bound):
                out.append(i)
            bound |= names
            first = False
        elif lit.assignment is not None:
            a = lit.assignment
            if all(v.name in bound for v in a.inputs()):
                bound.add(a.target.name)
    return out


def _greedy_order(rule: Rule) -> tuple[int, ...]:
    """A connectivity-first body order: positive atoms chosen greedily
    by (connected, shared variables, constants bound), with filters and
    assignments placed as soon as they become evaluable — the same
    eligibility the deferred-filter join uses, so the order is
    semantics-preserving."""
    remaining: dict[int, Atom] = {}
    pending: dict[int, Literal] = {}
    for i, lit in enumerate(rule.body):
        if lit.atom is not None and not lit.negated:
            remaining[i] = lit.atom
        else:
            pending[i] = lit
    order: list[int] = []
    bound: set[str] = set()

    def flush() -> None:
        progressed = True
        while progressed:
            progressed = False
            for i in sorted(pending):
                lit = pending[i]
                if lit.assignment is not None:
                    a = lit.assignment
                    if all(v.name in bound for v in a.inputs()):
                        order.append(i)
                        bound.add(a.target.name)
                        del pending[i]
                        progressed = True
                elif all(v.name in bound for v in lit.variables()):
                    order.append(i)
                    del pending[i]
                    progressed = True

    while remaining:
        best_key: tuple | None = None
        best_i = -1
        for i in sorted(remaining):
            atom = remaining[i]
            names = {v.name for v in atom.variables()}
            shared = len(names & bound)
            consts = sum(isinstance(t, Constant) for t in atom.terms)
            key = (
                1 if (shared or not order) else 0,
                shared,
                consts,
                -i,
            )
            if best_key is None or key > best_key:
                best_key, best_i = key, i
        atom = remaining.pop(best_i)
        order.append(best_i)
        bound |= {v.name for v in atom.variables()}
        flush()
    order.extend(sorted(pending))  # unsatisfiable leftovers: unsafe rule
    return tuple(order)


# ----------------------------------------------------------------------
# pragmas
# ----------------------------------------------------------------------
def _parse_pragmas(
    text: str, path: str
) -> tuple[dict[str, int], frozenset[str] | None, list[Finding]]:
    declared: dict[str, int] = {}
    outputs: set[str] | None = None
    findings: list[Finding] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = _PRAGMA_RE.match(line)
        if not m:
            continue
        kind, payload = m.group(1), m.group(2)
        for item in filter(None, (s.strip() for s in payload.split(","))):
            if kind == "edb":
                em = _EDB_ITEM_RE.match(item)
                if em is None:
                    findings.append(
                        Finding(
                            path, lineno, line.index(item) + 1, PRAGMA,
                            f"malformed edb declaration {item!r}",
                            "write predicate/arity pairs: "
                            "% edb: edge/2, label/2",
                        )
                    )
                    continue
                declared[em.group(1)] = int(em.group(2))
            else:
                if outputs is None:
                    outputs = set()
                if _OUTPUT_ITEM_RE.match(item) is None:
                    findings.append(
                        Finding(
                            path, lineno, line.index(item) + 1, PRAGMA,
                            f"malformed output declaration {item!r}",
                            "name predicates: % output: report, alerts",
                        )
                    )
                    continue
                outputs.add(item)
    return declared, frozenset(outputs) if outputs is not None else None, (
        findings
    )


# ----------------------------------------------------------------------
# the analyzer
# ----------------------------------------------------------------------
def _analyze(
    program: Program,
    path: str,
    *,
    source: str | None = None,
    declared_edb: dict[str, int] | None = None,
    outputs: frozenset[str] | None = None,
    parse_errors: Iterable[ParseError] = (),
    pragma_findings: Iterable[Finding] = (),
) -> ProgramAnalysis:
    declared_edb = dict(declared_edb or {})
    rule_ids = _rule_ids(program)
    findings: list[Finding] = list(pragma_findings)

    def add(
        rule: str,
        pos: tuple[int, int],
        message: str,
        hint: str,
        severity: str = "error",
    ) -> None:
        findings.append(
            Finding(path, pos[0], pos[1], rule, message, hint, severity)
        )

    for exc in parse_errors:
        findings.append(
            Finding(
                path, exc.line or 1, exc.col or 1, SYNTAX, str(exc),
                "fix the syntax; this clause was skipped and the rest "
                "of the file analyzed without it",
            )
        )

    analysis = ProgramAnalysis(
        program=program,
        path=path,
        findings=findings,
        declared_edb=declared_edb,
        outputs=outputs,
        rule_ids=rule_ids,
    )

    # -- pass 1: per-rule well-formedness (safety et al.) ---------------
    safety_bad: set[int] = set()
    for i, rule in enumerate(program.rules):
        rid = rule_ids[i]
        if rule.is_fact and not rule.head.is_ground():
            safety_bad.add(i)
            add(
                SAFETY, _rule_pos(rule),
                f"{rid}: fact {rule.head!r} is not ground",
                "facts must use constants only; give the rule a body to "
                "bind its variables",
            )
        for lit in rule.body:
            if lit.atom is not None and lit.atom.has_aggregate():
                safety_bad.add(i)
                add(
                    SAFETY, _lit_pos(lit, rule),
                    f"{rid}: aggregate in body literal {lit!r}",
                    "aggregates are only allowed in rule heads",
                )
        if sum(1 for _ in rule.head.aggregates()) > 1:
            safety_bad.add(i)
            add(
                SAFETY, _rule_pos(rule),
                f"{rid}: more than one aggregate in head {rule.head!r}",
                "at most one aggregate per head; split the rule",
            )
        for name, lit in rule.range_restriction():
            safety_bad.add(i)
            if lit is None:
                if rule.is_fact:
                    continue  # already reported as a non-ground fact
                add(
                    SAFETY, _rule_pos(rule),
                    f"{rid}: head variable {name} not bound in a "
                    "positive body atom",
                    f"add a positive body atom that binds {name}, or "
                    "replace it with a constant",
                )
            elif lit.is_assignment:
                add(
                    SAFETY, _lit_pos(lit, rule),
                    f"{rid}: assignment input {name} in {lit!r} is "
                    "never bound",
                    f"bind {name} with a positive body atom before the "
                    "assignment",
                )
            else:
                add(
                    SAFETY, _lit_pos(lit, rule),
                    f"{rid}: variable {name} in {lit!r} not bound in a "
                    "positive body atom",
                    "negated and comparison literals only filter; bind "
                    f"{name} positively first",
                )

    # -- pass 2: arity/schema consistency -------------------------------
    seen_arity: dict[str, tuple[int, int, str]] = {
        p: (a, 0, "the edb declaration") for p, a in declared_edb.items()
    }
    for i, rule in enumerate(program.rules):
        atoms = [rule.head] + [
            lit.atom for lit in rule.body if lit.atom is not None
        ]
        for atom in atoms:
            prev = seen_arity.get(atom.predicate)
            if prev is None:
                line, _col = _atom_pos(atom, rule)
                seen_arity[atom.predicate] = (
                    atom.arity, line, f"line {line}"
                )
            elif prev[0] != atom.arity:
                add(
                    ARITY, _atom_pos(atom, rule),
                    f"{rule_ids[i]}: predicate {atom.predicate!r} used "
                    f"with arity {atom.arity}, but it has arity "
                    f"{prev[0]} ({prev[2]})",
                    "every use of a predicate must agree on its arity",
                )

    # -- pass 3: stratification -----------------------------------------
    for cycle, kind in program.depgraph.negation_cycles():
        src, dst = cycle[-2], cycle[0]
        pos, rid = None, None
        for i, rule in enumerate(program.rules):
            if rule.head.predicate != dst:
                continue
            for lit in rule.body:
                if lit.atom is None or lit.atom.predicate != src:
                    continue
                if (kind == "negation" and lit.negated) or (
                    kind == "aggregation" and rule.has_aggregate
                ):
                    pos, rid = _lit_pos(lit, rule), rule_ids[i]
                    break
            if pos is not None:
                break
        add(
            STRATIFICATION,
            pos or (1, 1),
            f"{rid or dst}: {kind} of {src!r} inside its own recursive "
            "component (cycle: " + " -> ".join(cycle) + ")",
            "break the cycle: move the negated/aggregated predicate "
            "into an earlier stratum or split the recursion",
        )

    # -- pass 4: reachability and dead rules ----------------------------
    if declared_edb:
        defined = set(declared_edb) | {
            r.head.predicate for r in program.rules
        }
        flagged: set[str] = set()
        for i, rule in enumerate(program.rules):
            for lit in rule.body:
                atom = lit.atom
                if atom is None or atom.predicate in defined:
                    continue
                if atom.predicate in flagged:
                    continue
                flagged.add(atom.predicate)
                add(
                    UNDEFINED_PREDICATE, _atom_pos(atom, rule),
                    f"{rule_ids[i]}: predicate {atom.predicate!r} has no "
                    "facts, no rules, and no edb declaration",
                    f"declare it (% edb: {atom.predicate}/{atom.arity}) "
                    "or define it with rules",
                    severity="warning",
                )
        never, nonempty = analysis._never_firing()
        for i in sorted(never):
            rule = program.rules[i]
            empty = next(
                (
                    lit
                    for lit in rule.body
                    if lit.atom is not None
                    and not lit.negated
                    and lit.atom.predicate not in nonempty
                ),
                None,
            )
            why = (
                f"predicate {empty.atom.predicate!r} can never hold facts"
                if empty is not None and empty.atom is not None
                else "its positive body can never be satisfied"
            )
            add(
                DEAD_RULE,
                _lit_pos(empty, rule) if empty is not None
                else _rule_pos(rule),
                f"{rule_ids[i]}: rule can never fire — {why}",
                "the rule stays in the program's DAG and is only ever "
                "joined against an empty relation; delete the rule or "
                "feed the predicate",
                severity="warning",
            )
    if outputs is not None:
        known = {r.head.predicate for r in program.rules} | set(declared_edb)
        for p in sorted(outputs - known):
            add(
                PRAGMA, (1, 1),
                f"declared output {p!r} is never defined",
                "outputs must be rule heads, facts, or declared edb "
                "predicates",
                severity="warning",
            )
        reachable = set(outputs)
        changed = True
        while changed:
            changed = False
            for rule in program.proper_rules:
                if rule.head.predicate not in reachable:
                    continue
                for p, _neg in rule.body_predicates():
                    if p not in reachable:
                        reachable.add(p)
                        changed = True
        unreachable = [
            i
            for i, r in enumerate(program.rules)
            if not r.is_fact and r.head.predicate not in reachable
        ]
        analysis.unreachable_rules = frozenset(unreachable)
        for i in unreachable:
            rule = program.rules[i]
            add(
                DEAD_RULE, _rule_pos(rule),
                f"{rule_ids[i]}: head {rule.head.predicate!r} is "
                "unreachable from the declared outputs "
                f"({', '.join(sorted(outputs))})",
                "delete the rule or add its head to % output:",
                severity="warning",
            )

    # -- pass 5: duplicate and subsumed rules ---------------------------
    canon = [_canonical(r) for r in program.rules]
    canon_first: dict[str, int] = {}
    duplicates: set[int] = set()
    for i, rule in enumerate(program.rules):
        j = canon_first.setdefault(canon[i], i)
        if j != i:
            duplicates.add(i)
            add(
                DUPLICATE_RULE, _rule_pos(rule),
                f"{rule_ids[i]}: duplicate of {rule_ids[j]} "
                f"(line {_rule_pos(program.rules[j])[0]})",
                "identical up to variable renaming; delete one copy",
                severity="warning",
            )
    proper = [
        (i, r)
        for i, r in enumerate(program.rules)
        if not r.is_fact and i not in duplicates and i not in safety_bad
    ]
    for bi, b in proper:
        for ai, a in proper:
            if ai == bi or canon[ai] == canon[bi]:
                continue
            if _subsumes(a, b):
                add(
                    SUBSUMED_RULE, _rule_pos(b),
                    f"{rule_ids[bi]}: subsumed by the more general "
                    f"{rule_ids[ai]} (line {_rule_pos(a)[0]})",
                    "every fact this rule derives is already derived "
                    "by the subsuming rule; delete it",
                    severity="warning",
                )
                break

    # -- pass 6: cartesian joins + join-order hints ---------------------
    pi = -1
    for i, rule in enumerate(program.rules):
        if rule.is_fact:
            continue
        pi += 1
        if i in safety_bad:
            continue
        original = _disconnected_atoms(rule, range(len(rule.body)))
        if not original:
            continue
        order = _greedy_order(rule)
        repaired = _disconnected_atoms(rule, order)
        hint = (
            "reorder the body so every atom shares a variable with an "
            "earlier one: " + ", ".join(repr(rule.body[j]) for j in order)
            if len(repaired) < len(original)
            else "no reordering helps; add a join variable or split "
            "the rule"
        )
        if len(repaired) < len(original):
            analysis.join_orders[pi] = order
        for j in original:
            lit = rule.body[j]
            assert lit.atom is not None
            add(
                CARTESIAN_JOIN, _lit_pos(lit, rule),
                f"{rule_ids[i]}: joining {lit.atom.predicate!r} with no "
                "shared variables forms a cross product",
                hint,
                severity="warning",
            )

    if source is not None:
        analysis.findings = apply_suppressions(
            findings, {path: source.splitlines()}
        )
    else:
        analysis.findings = apply_suppressions(findings, {})
    return analysis


def analyze_program(program: Program, path: str = "<program>") -> (
    ProgramAnalysis
):
    """Analyze an in-memory (already validated) program.

    No source text means no pragmas and no suppressions: every
    head-less predicate counts as EDB input and reachability is not
    checked. This is the runtime entry point — the update-stream
    service hands the result's join-order hints to its plan cache.
    """
    return _analyze(program, path)


def analyze_source(text: str, path: str = "<program>") -> ProgramAnalysis:
    """Lenient-parse and analyze Datalog source text."""
    program, parse_errors = parse_program_lenient(text)
    declared, outputs, pragma_findings = _parse_pragmas(text, path)
    return _analyze(
        program,
        path,
        source=text,
        declared_edb=declared,
        outputs=outputs,
        parse_errors=parse_errors,
        pragma_findings=pragma_findings,
    )


def analyze_path(path: str | Path) -> ProgramAnalysis:
    """Analyze one ``.dlog`` source file."""
    p = Path(path)
    return analyze_source(p.read_text(), str(p))
