"""Tokenizer for the Datalog concrete syntax.

Token kinds: identifiers (lower = predicate/symbol, Upper = variable),
integers, quoted strings, punctuation (``( ) , .``), the rule arrow
``:-``, negation ``!``, comparison operators, and ``%`` line comments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = ["Token", "tokenize", "LexError"]


class LexError(ValueError):
    """Raised on unrecognized input, with line/column context.

    ``line``/``col`` expose the 1-based position machine-readably (the
    message ends in the same position for humans); ``reason`` is the
    message without it.
    """

    def __init__(self, reason: str, line: int, col: int) -> None:
        super().__init__(f"{reason} at {line}:{col}")
        self.reason = reason
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    """One lexeme with its source position."""

    kind: str  # IDENT | VAR | INT | STRING | PUNCT | OP | ARROW | BANG
    text: str
    line: int
    col: int

    def __repr__(self) -> str:
        # the position is the error's to report (ParseError.line/.col)
        return f"{self.kind}({self.text!r})"


_PUNCT = {"(", ")", ",", "."}
_TWO_CHAR_OPS = ("==", "!=", "<=", ">=")
_ONE_CHAR_OPS = ("<", ">", "=", "+", "-", "*")


def tokenize(text: str) -> Iterator[Token]:
    """Yield tokens; raises :class:`LexError` on bad input."""
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "%":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith(":-", i):
            yield Token("ARROW", ":-", line, col)
            i += 2
            col += 2
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR_OPS:
            yield Token("OP", two, line, col)
            i += 2
            col += 2
            continue
        if c == "!":
            yield Token("BANG", "!", line, col)
            i += 1
            col += 1
            continue
        # negative integer literals bind tighter than the '-' operator:
        # "-5" is one INT token; write "X - 5" (spaced) for subtraction
        if c == "-" and i + 1 < n and text[i + 1].isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            yield Token("INT", text[i:j], line, col)
            col += j - i
            i = j
            continue
        if c in _ONE_CHAR_OPS:
            yield Token("OP", c, line, col)
            i += 1
            col += 1
            continue
        if c in _PUNCT:
            yield Token("PUNCT", c, line, col)
            i += 1
            col += 1
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise LexError("unterminated string", line, col)
                j += 1
            if j >= n:
                raise LexError("unterminated string", line, col)
            yield Token("STRING", text[i + 1 : j], line, col)
            col += j + 1 - i
            i = j + 1
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            yield Token("INT", text[i:j], line, col)
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "VAR" if word[0].isupper() or word[0] == "_" else "IDENT"
            yield Token(kind, word, line, col)
            col += j - i
            i = j
            continue
        raise LexError(f"unexpected character {c!r}", line, col)
