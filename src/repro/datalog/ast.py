"""Abstract syntax for Datalog programs.

A program is a set of *rules* ``head :- body.`` and *facts*
``pred(c1, …, cn).`` Terms are variables (capitalized identifiers) or
constants (integers, quoted strings, or lowercase identifiers). Body
literals may be negated (``!edge(X, Y)``) — programs must then be
stratifiable — and may be comparison built-ins (``X < Y``, ``X != Y``).

These classes are deliberately tiny immutable values: the evaluator
(:mod:`repro.datalog.seminaive`), the incremental maintenance engine
(:mod:`repro.datalog.incremental`), and the DAG compiler
(:mod:`repro.datalog.compiler`) all pattern-match over them.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property, partial
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterator, Mapping, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .depgraph import DependencyGraph

__all__ = [
    "Variable",
    "Constant",
    "Term",
    "Atom",
    "Aggregate",
    "Comparison",
    "Assignment",
    "ARITH_OPS",
    "Literal",
    "Rule",
    "Program",
    "COMPARISON_OPS",
    "AGGREGATE_OPS",
]


@dataclass(frozen=True)
class Variable:
    """A logic variable (capitalized in the concrete syntax)."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Constant:
    """A constant: int or string (symbols are stored as strings)."""

    value: int | str

    def __repr__(self) -> str:
        if isinstance(self.value, str):
            # only lowercase identifiers can print bare — anything else
            # would re-parse as a variable or fail to lex
            if (
                self.value.isidentifier()
                and self.value[0].islower()
                and self.value[0] != "_"
            ):
                return self.value
            return f'"{self.value}"'
        return str(self.value)


#: aggregation operators usable in rule heads
AGGREGATE_OPS = ("count", "sum", "min", "max")


@dataclass(frozen=True)
class Aggregate:
    """An aggregate head term ``op(Var)`` — e.g. ``total(C, sum(Q))``.

    Allowed only in rule heads; the rule then computes one fact per
    binding of its plain head variables (the group), aggregating the
    multiset of ``var`` bindings within the group. Aggregation is
    stratified exactly like negation: the rule's body predicates must
    be fully materialized in earlier strata.
    """

    op: str
    var: "Variable"

    def __post_init__(self) -> None:
        if self.op not in AGGREGATE_OPS:
            raise ValueError(f"unknown aggregate {self.op!r}")

    def __repr__(self) -> str:
        return f"{self.op}({self.var!r})"


Term = Union[Variable, Constant, Aggregate]


@dataclass(frozen=True)
class Atom:
    """``predicate(t1, …, tn)``.

    ``line``/``col`` record the 1-based source position of the
    predicate token when the atom came from the parser (``None`` for
    programmatically built atoms). They are excluded from equality and
    hashing so structurally identical atoms — and therefore rules and
    whole-program fingerprints — compare the same regardless of where
    they were written.
    """

    predicate: str
    terms: tuple[Term, ...]
    line: int | None = field(default=None, compare=False)
    col: int | None = field(default=None, compare=False)

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> Iterator[Variable]:
        for t in self.terms:
            if isinstance(t, Variable):
                yield t
            elif isinstance(t, Aggregate):
                yield t.var

    def aggregates(self) -> Iterator["Aggregate"]:
        for t in self.terms:
            if isinstance(t, Aggregate):
                yield t

    def has_aggregate(self) -> bool:
        return any(isinstance(t, Aggregate) for t in self.terms)

    def is_ground(self) -> bool:
        return all(isinstance(t, Constant) for t in self.terms)

    def __repr__(self) -> str:
        return f"{self.predicate}({', '.join(map(repr, self.terms))})"


#: comparison operators usable in rule bodies
COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")

#: binary arithmetic operators usable in assignments
ARITH_OPS = ("+", "-", "*")


@dataclass(frozen=True)
class Assignment:
    """A body binding ``Target = Left op Right`` (or ``Target = Left``).

    Evaluated once its input terms are bound: binds ``target`` if free,
    or filters on equality if already bound. Note that recursive rules
    generating fresh values through arithmetic (``D2 = D + 1``) can
    diverge — Datalog with arithmetic is not guaranteed to terminate;
    the evaluators accept a ``max_iterations`` guard for this reason.
    """

    target: "Variable"
    left: "Term"
    op: str | None = None
    right: "Term | None" = None
    line: int | None = field(default=None, compare=False)
    col: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if (self.op is None) != (self.right is None):
            raise ValueError("op and right must be given together")
        if self.op is not None and self.op not in ARITH_OPS:
            raise ValueError(f"unknown arithmetic operator {self.op!r}")

    def inputs(self) -> Iterator["Variable"]:
        for t in (self.left, self.right):
            if isinstance(t, Variable):
                yield t

    def variables(self) -> Iterator["Variable"]:
        yield self.target
        yield from self.inputs()

    def __repr__(self) -> str:
        expr = repr(self.left)
        if self.op is not None:
            expr += f" {self.op} {self.right!r}"
        return f"{self.target!r} = {expr}"


@dataclass(frozen=True)
class Comparison:
    """A built-in constraint ``left op right`` between two terms."""

    op: str
    left: Term
    right: Term
    line: int | None = field(default=None, compare=False)
    col: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def variables(self) -> Iterator[Variable]:
        for t in (self.left, self.right):
            if isinstance(t, Variable):
                yield t

    def __repr__(self) -> str:
        return f"{self.left!r} {self.op} {self.right!r}"


@dataclass(frozen=True)
class Literal:
    """A body element: an atom (possibly negated), a comparison, or an
    arithmetic assignment."""

    atom: Atom | None = None
    comparison: Comparison | None = None
    assignment: Assignment | None = None
    negated: bool = False

    def __post_init__(self) -> None:
        payloads = sum(
            x is not None
            for x in (self.atom, self.comparison, self.assignment)
        )
        if payloads != 1:
            raise ValueError(
                "literal must hold exactly one of atom/comparison/assignment"
            )
        if self.atom is None and self.negated:
            raise ValueError(
                "only atoms can be negated; use the dual comparison op"
            )

    @property
    def is_comparison(self) -> bool:
        return self.comparison is not None

    @property
    def is_assignment(self) -> bool:
        return self.assignment is not None

    def variables(self) -> Iterator[Variable]:
        src = self.atom or self.comparison or self.assignment
        yield from src.variables()

    def __repr__(self) -> str:
        if self.comparison is not None:
            return repr(self.comparison)
        if self.assignment is not None:
            return repr(self.assignment)
        return ("!" if self.negated else "") + repr(self.atom)


@dataclass(frozen=True)
class Rule:
    """``head :- body.`` — a fact when the body is empty.

    Pass ``check=False`` to skip the well-formedness validation (ground
    facts, aggregate placement, range restriction). The static analyzer
    (:mod:`repro.verify.program`) uses this to build rules from broken
    source and *report* the violations instead of crashing; everything
    that evaluates rules assumes they were built checked.
    """

    head: Atom
    body: tuple[Literal, ...] = ()
    check: InitVar[bool] = True

    @property
    def is_fact(self) -> bool:
        return not self.body

    @property
    def has_aggregate(self) -> bool:
        return self.head.has_aggregate()

    def __post_init__(self, check: bool) -> None:
        if not check:
            return
        if self.is_fact and not self.head.is_ground():
            raise ValueError(f"fact {self.head!r} must be ground")
        for lit in self.body:
            if lit.atom is not None and lit.atom.has_aggregate():
                raise ValueError(
                    f"aggregates are only allowed in rule heads: {lit!r}"
                )
        if sum(1 for _ in self.head.aggregates()) > 1:
            raise ValueError(
                f"at most one aggregate per head: {self.head!r}"
            )
        self._check_safety()

    def bound_variables(self) -> set[str]:
        """Variable names bound by positive body atoms, closed under
        assignments (an assignment binds its target once its inputs are
        transitively bound)."""
        bound = {v.name for lit in self.body if not lit.negated and lit.atom
                 for v in lit.variables()}
        changed = True
        while changed:
            changed = False
            for lit in self.body:
                a = lit.assignment
                if a is None or a.target.name in bound:
                    continue
                if all(v.name in bound for v in a.inputs()):
                    bound.add(a.target.name)
                    changed = True
        return bound

    def range_restriction(self) -> list[tuple[str, "Literal | None"]]:
        """Range-restriction violations as ``(variable, literal)`` pairs.

        ``literal`` is the negated atom / comparison / assignment whose
        variable is never bound, or ``None`` when the variable appears
        in the head. An empty list means the rule is safe. Head
        violations come first, then body violations in literal order —
        the order :meth:`_check_safety` raises in.
        """
        bound = self.bound_variables()
        out: list[tuple[str, Literal | None]] = []
        seen: set[tuple[str, int]] = set()
        for v in self.head.variables():
            if v.name not in bound and (v.name, -1) not in seen:
                seen.add((v.name, -1))
                out.append((v.name, None))
        for idx, lit in enumerate(self.body):
            if lit.negated or lit.is_comparison:
                names = (v.name for v in lit.variables())
            elif lit.assignment is not None:
                names = (v.name for v in lit.assignment.inputs())
            else:
                continue
            for name in names:
                if name not in bound and (name, idx) not in seen:
                    seen.add((name, idx))
                    out.append((name, lit))
        return out

    def _check_safety(self) -> None:
        """Range restriction: every head/negated/comparison variable must
        be bound by a positive body atom or an assignment whose inputs
        are (transitively) bound."""
        for name, lit in self.range_restriction():
            if lit is None:
                if not self.body:
                    # a non-ground fact; already rejected as such
                    continue
                raise ValueError(
                    f"unsafe rule: head variable {name} not bound in "
                    f"a positive body atom: {self!r}"
                )
            if lit.is_assignment:
                raise ValueError(
                    f"unsafe rule: assignment input {name} in "
                    f"{lit!r} is never bound"
                )
            raise ValueError(
                f"unsafe rule: variable {name} in "
                f"{lit!r} not bound in a positive body atom"
            )

    def body_predicates(self) -> Iterator[tuple[str, bool]]:
        """Yield (predicate, negated) for every body atom."""
        for lit in self.body:
            if lit.atom is not None:
                yield lit.atom.predicate, lit.negated

    def __repr__(self) -> str:
        if self.is_fact:
            return f"{self.head!r}."
        return f"{self.head!r} :- {', '.join(map(repr, self.body))}."


#: a value :class:`Program` derives from its rules at construction
_derived = partial(field, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Program:
    """An ordered, immutable collection of rules and facts: a value.

    ``rules`` is a tuple (any iterable is frozen into one); programs
    with equal rules are equal. What follows from the rules alone is
    derived once, on the program, read-only: arities (in the pass that
    checks them), predicate sets, :attr:`facts` and :attr:`proper_rules`
    at construction; :attr:`stated_facts`, :attr:`depgraph` and
    :attr:`strata` on first use. Every consumer reads these objects.

    ``check=False`` skips the cross-rule arity validation — used by the
    lenient parser so the static analyzer can diagnose inconsistent
    programs instead of refusing to build them; :meth:`arities` then
    keeps the last use of each predicate.
    """

    rules: tuple[Rule, ...] = ()
    check: InitVar[bool] = True
    #: ground facts (empty-body rules)
    facts: tuple[Rule, ...] = _derived()
    #: rules with a non-empty body
    proper_rules: tuple[Rule, ...] = _derived()
    _arities: Mapping[str, int] = _derived()
    _predicates: frozenset[str] = _derived()
    _idb: frozenset[str] = _derived()
    _edb: frozenset[str] = _derived()

    def __post_init__(self, check: bool) -> None:
        rules = tuple(self.rules)
        arities: dict[str, int] = {}
        for r in rules:
            for a in (r.head, *(l.atom for l in r.body if l.atom is not None)):
                prev = arities.get(a.predicate)
                if check and prev is not None and prev != a.arity:
                    raise ValueError(
                        f"predicate {a.predicate} used with arities "
                        f"{prev} and {a.arity}"
                    )
                arities[a.predicate] = a.arity
        proper = tuple(r for r in rules if not r.is_fact)
        idb = frozenset(r.head.predicate for r in proper)
        for name, value in (
            ("rules", rules),
            ("facts", tuple(r for r in rules if r.is_fact)),
            ("proper_rules", proper),
            ("_arities", MappingProxyType(arities)),
            ("_predicates", frozenset(arities)),
            ("_idb", idb),
            ("_edb", frozenset(arities) - idb),
        ):
            object.__setattr__(self, name, value)

    def __reduce__(self) -> tuple:  # rebuilt: a mapping proxy won't pickle
        return type(self), (self.rules, False)

    @cached_property
    def stated_facts(self) -> Mapping[str, tuple[tuple, ...]]:
        """Predicate → the value tuples the program's facts state for
        it, in program order: what every evaluation seeds it with."""
        stated: dict[str, list[tuple]] = {}
        for r in self.facts:
            stated.setdefault(r.head.predicate, []).append(
                tuple(t.value for t in r.head.terms)  # type: ignore[union-attr]
            )
        return MappingProxyType({p: tuple(f) for p, f in stated.items()})

    @cached_property
    def depgraph(self) -> "DependencyGraph":
        """The program's one dependency graph; it keeps its SCCs."""
        from .depgraph import DependencyGraph

        return DependencyGraph(self)

    @cached_property
    def strata(self) -> tuple[tuple[tuple[int, Rule], ...], ...]:
        """Per stratum of ``depgraph.stratify()``, in that order, its
        proper rules as ``(index into proper_rules, rule)`` pairs.
        Raises :class:`~repro.datalog.depgraph.StratificationError`."""
        comps = self.depgraph.stratify()
        stratum_of = {p: si for si, comp in enumerate(comps) for p in comp}
        out: list[list[tuple[int, Rule]]] = [[] for _ in comps]
        for ri, r in enumerate(self.proper_rules):
            out[stratum_of[r.head.predicate]].append((ri, r))
        return tuple(map(tuple, out))

    def predicates(self) -> frozenset[str]:
        """Every predicate mentioned in a head or body."""
        return self._predicates

    def arities(self) -> Mapping[str, int]:
        """Arity of every predicate mentioned in a head or body."""
        return self._arities

    def idb_predicates(self) -> frozenset[str]:
        """Predicates defined by at least one proper rule."""
        return self._idb

    def edb_predicates(self) -> frozenset[str]:
        """Predicates appearing only as facts / inputs."""
        return self._edb

    def rules_for(self, predicate: str) -> list[Rule]:
        """Proper rules whose head is ``predicate``."""
        return [r for r in self.proper_rules if r.head.predicate == predicate]

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __repr__(self) -> str:
        return "\n".join(map(repr, self.rules))
