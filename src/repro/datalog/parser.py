"""Recursive-descent parser: text → :class:`repro.datalog.ast.Program`.

Grammar::

    program    ::= clause*
    clause     ::= head ( ":-" body )? "."
    head       ::= IDENT "(" hterm ("," hterm)* ")" | IDENT
    hterm      ::= term | AGG "(" VAR ")"            (AGG ∈ count|sum|min|max)
    body       ::= literal ("," literal)*
    literal    ::= "!"? atom
                 | term cmp-op term                  (== != < <= > >=)
                 | VAR "=" term (("+"|"-"|"*") term)?
    atom       ::= IDENT "(" term ("," term)* ")" | IDENT
    term       ::= VAR | INT | STRING | IDENT        (IDENT = symbol)

Zero-arity atoms (``tick.``) are allowed. Comparisons use the body-term
syntax directly (``path(X, Y), X != Y``); arithmetic appears only on
the right side of an assignment, spaced (``D2 = D + 1`` — ``-5`` is a
negative literal, ``D - 5`` a subtraction).

Every :class:`ParseError` carries the 1-based source position of the
offending token (``.line``/``.col``, also appended to the message; its
``.reason`` is the message without it, for callers that print their own
``FILE:LINE:COL:`` prefix), and
parsed atoms/comparisons/assignments are stamped with their positions
so downstream diagnostics (:mod:`repro.verify.program`) point at real
source spans. :func:`parse_program_lenient` recovers at clause
boundaries and returns the errors instead of raising, for analyzers
that want to report *all* problems in a file.
"""

from __future__ import annotations

from .ast import (
    AGGREGATE_OPS,
    ARITH_OPS,
    Aggregate,
    Assignment,
    Atom,
    Comparison,
    Constant,
    Literal,
    Program,
    Rule,
    Variable,
)
from .lexer import LexError, Token, tokenize

__all__ = [
    "parse_program",
    "parse_program_lenient",
    "parse_rule",
    "ParseError",
]


class ParseError(ValueError):
    """Raised on syntactically invalid input, with token context.

    ``line``/``col`` hold the 1-based position of the offending token
    (``None`` when no position is known, e.g. whole-program checks);
    ``str()`` ends in "at line L, column C" when they are known, and
    ``reason`` is the message without any position.
    """

    def __init__(
        self, reason: str, line: int | None = None, col: int | None = None
    ) -> None:
        message = reason
        if line is not None:
            message = f"{reason} at line {line}, column {col}"
        super().__init__(message)
        self.reason = reason
        self.line = line
        self.col = col


class _Parser:
    def __init__(self, text: str) -> None:
        try:
            self.tokens = list(tokenize(text))
        except LexError as exc:
            raise ParseError(exc.reason, exc.line, exc.col) from exc
        self.pos = 0

    # ------------------------------------------------------------------
    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            raise ParseError(
                "unexpected end of input",
                last.line if last else None,
                last.col if last else None,
            )
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = f"{kind} {text!r}" if text else kind
            raise ParseError(
                f"expected {want}, got {tok!r}", tok.line, tok.col
            )
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return (
            tok is not None
            and tok.kind == kind
            and (text is None or tok.text == text)
        )

    # ------------------------------------------------------------------
    def parse_term(self):
        tok = self.next()
        if tok.kind == "VAR":
            return Variable(tok.text)
        if tok.kind == "INT":
            return Constant(int(tok.text))
        if tok.kind == "STRING":
            return Constant(tok.text)
        if tok.kind == "IDENT":
            return Constant(tok.text)  # lowercase symbol constant
        raise ParseError(f"expected a term, got {tok!r}", tok.line, tok.col)

    def parse_head_term(self):
        """A head term: a plain term or an aggregate ``op(Var)``."""
        tok = self.peek()
        nxt = (
            self.tokens[self.pos + 1]
            if self.pos + 1 < len(self.tokens)
            else None
        )
        if (
            tok is not None
            and tok.kind == "IDENT"
            and tok.text in AGGREGATE_OPS
            and nxt is not None
            and nxt.kind == "PUNCT"
            and nxt.text == "("
        ):
            op = self.next().text
            self.expect("PUNCT", "(")
            var_tok = self.expect("VAR")
            self.expect("PUNCT", ")")
            return Aggregate(op, Variable(var_tok.text))
        return self.parse_term()

    def parse_atom(self, allow_aggregates: bool = False) -> Atom:
        name_tok = self.expect("IDENT")
        terms: list = []
        term = self.parse_head_term if allow_aggregates else self.parse_term
        if self.at("PUNCT", "("):
            self.next()
            terms.append(term())
            while self.at("PUNCT", ","):
                self.next()
                terms.append(term())
            self.expect("PUNCT", ")")
        return Atom(
            name_tok.text, tuple(terms), line=name_tok.line, col=name_tok.col
        )

    def parse_literal(self) -> Literal:
        if self.at("BANG"):
            self.next()
            return Literal(atom=self.parse_atom(), negated=True)
        # lookahead: "IDENT (" or bare IDENT is an atom; otherwise it must
        # be a comparison whose left side is a term
        tok = self.peek()
        if tok is not None and tok.kind == "IDENT":
            nxt = (
                self.tokens[self.pos + 1]
                if self.pos + 1 < len(self.tokens)
                else None
            )
            if nxt is None or nxt.kind != "OP":
                return Literal(atom=self.parse_atom())
        start = self.peek()
        line = start.line if start else None
        col = start.col if start else None
        left = self.parse_term()
        op_tok = self.expect("OP")
        op = op_tok.text
        if op == "=":
            if not isinstance(left, Variable):
                raise ParseError(
                    f"assignment target must be a variable, got {left!r}",
                    line,
                    col,
                )
            expr_left = self.parse_term()
            nxt = self.peek()
            if nxt is not None and nxt.kind == "OP" and nxt.text in ARITH_OPS:
                arith = self.next().text
                expr_right = self.parse_term()
                return Literal(
                    assignment=Assignment(
                        left, expr_left, arith, expr_right,
                        line=line, col=col,
                    )
                )
            return Literal(
                assignment=Assignment(left, expr_left, line=line, col=col)
            )
        if op in ARITH_OPS:
            raise ParseError(
                f"unexpected arithmetic operator {op!r}; arithmetic is "
                "only allowed on the right side of an assignment",
                op_tok.line,
                op_tok.col,
            )
        right = self.parse_term()
        return Literal(
            comparison=Comparison(op, left, right, line=line, col=col)
        )

    def parse_clause(self, check: bool = True) -> Rule:
        head = self.parse_atom(allow_aggregates=True)
        body: list[Literal] = []
        if self.at("ARROW"):
            self.next()
            body.append(self.parse_literal())
            while self.at("PUNCT", ","):
                self.next()
                body.append(self.parse_literal())
        self.expect("PUNCT", ".")
        try:
            return Rule(head, tuple(body), check=check)
        except ValueError as exc:
            raise ParseError(str(exc), head.line, head.col) from exc

    def parse_program(self) -> Program:
        rules: list[Rule] = []
        while self.peek() is not None:
            rules.append(self.parse_clause())
        try:
            return Program(tuple(rules))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc


def parse_program(text: str) -> Program:
    """Parse a whole program (facts and rules)."""
    return _Parser(text).parse_program()


def parse_program_lenient(text: str) -> tuple[Program, list[ParseError]]:
    """Parse as much of ``text`` as possible, collecting errors.

    Clause-level recovery: a clause that fails to parse is skipped up
    to (and including) the next ``.`` and its :class:`ParseError`
    recorded; the remaining clauses still parse. Rule and program
    well-formedness checks (safety, arity consistency) are *disabled* —
    the static analyzer re-derives those as positioned findings — so
    the returned :class:`~repro.datalog.ast.Program` may be unsafe and
    must not be evaluated directly.
    """
    errors: list[ParseError] = []
    try:
        p = _Parser(text)
    except ParseError as exc:
        return Program((), check=False), [exc]
    rules: list[Rule] = []
    while p.peek() is not None:
        start = p.pos
        try:
            rules.append(p.parse_clause(check=False))
        except ParseError as exc:
            errors.append(exc)
            if p.pos == start:
                p.pos += 1  # guarantee progress on a stuck prefix
            while p.peek() is not None and not p.at("PUNCT", "."):
                p.pos += 1
            if p.peek() is not None:
                p.pos += 1  # consume the clause terminator
    return Program(tuple(rules), check=False), errors


def parse_rule(text: str) -> Rule:
    """Parse a single clause; raises if there is trailing input."""
    p = _Parser(text)
    rule = p.parse_clause()
    tok = p.peek()
    if tok is not None:
        raise ParseError(
            f"trailing input after clause: {tok!r}", tok.line, tok.col
        )
    return rule
