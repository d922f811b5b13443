"""Tokenizer for the OQL subset.

One compiled master regex (the shape :mod:`repro.calculus.parser` uses)
scans the source in a single ``finditer`` pass: each match skips the
blanks and ``--`` comments before a token and names the token's class by
its group, so no character is looked at twice. Keywords are case-insensitive (ODMG style)
and are classified here, once; identifiers keep their case. ``#`` is
allowed inside identifiers (the paper's travel-agency schema uses
attributes like ``bed#`` and ``hotel#``). Digits are ASCII ``0-9`` only:
``²`` or ``٣`` is an unexpected character, not a number ``int()`` may or
may not accept.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import OQLSyntaxError
from repro.span import Span

KEYWORDS = frozenset(
    {
        "select",
        "distinct",
        "from",
        "where",
        "in",
        "as",
        "and",
        "or",
        "not",
        "exists",
        "for",
        "all",
        "order",
        "group",
        "by",
        "having",
        "asc",
        "desc",
        "union",
        "intersect",
        "except",
        "struct",
        "set",
        "bag",
        "list",
        "array",
        "sort",
        "true",
        "false",
        "nil",
        "if",
        "then",
        "else",
        "mod",
        "div",
        "like",
        "element",
        "flatten",
        "count",
        "sum",
        "avg",
        "max",
        "min",
        "partition",
    }
)

_TOKEN = re.compile(
    r"""
    (?:[ \t\r]+|--[^\n]*)*            # blanks and comments before the token
    (?: (?P<newline>\n)
      | (?P<number>[0-9]+(?:\.[0-9]+)?|\.[0-9]+)   # "1." and "1..2" leave the dot(s)
      | (?P<word>[^\W\d][\w\#]*)
      | (?P<param>\$\w*)
      | (?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
      | (?P<op><=|>=|!=|<>|:=|\+=|\.\.|[=<>+\-*/])
      | (?P<punct>[(),\[\].:])
      | (?P<bad>.)                    # anything else, an open quote included
      | \Z )
    """,
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


class Token(NamedTuple):
    """One lexical token with its source position (1-based)."""

    kind: str  # 'keyword' | 'ident' | 'number' | 'string' | 'param' | 'op' | 'punct' | 'eof'
    text: str
    line: int
    column: int
    #: Column just past the token's source text. 0 means "unknown"
    #: (hand-built tokens); ``end_column``/``span`` then fall back to
    #: ``column + len(text)``.
    raw_end: int = 0

    def is_keyword(self, word: str) -> bool:
        return self.kind == "keyword" and self.text == word

    @property
    def end_column(self) -> int:
        """Column one past the last source character of this token."""
        if self.raw_end:
            return self.raw_end
        return self.column + max(len(self.text), 1)

    @property
    def span(self) -> Span:
        """The source region this token occupies."""
        return Span(self.line, self.column, self.line, self.end_column)

    def __str__(self) -> str:
        return f"{self.kind}:{self.text!r}"


def tokenize(source: str) -> list[Token]:
    """Scan ``source`` into tokens, ending with an ``eof`` token.

    >>> [t.text for t in tokenize("select c.name from c in Cities")][:4]
    ['select', 'c', '.', 'name']
    """
    tokens: list[Token] = []
    line = 1
    line_start = 0  # a newline inside a string literal does not start a line
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        if kind is None:  # end of input
            break
        start, end = match.span(kind)
        if kind == "newline":
            line += 1
            line_start = end
            continue
        text = source[start:end]
        column = start - line_start + 1
        if kind == "word":
            lowered = text.lower()
            if lowered in KEYWORDS:
                kind, text = "keyword", lowered
            elif text[0].isalpha() or text[0] == "_":
                kind = "ident"
            else:  # a letter-like numeral ("²", "Ⅷ") cannot start a name
                text, kind = text[0], "bad"
        elif kind == "string":
            text = text[1:-1]
            if "\\" in text:
                text = _ESCAPE.sub(r"\1", text)
        elif kind == "param":
            text = text[1:]
            if not text:
                raise OQLSyntaxError("expected a parameter name after '$'", line, column)
        if kind == "bad":
            if text in "\"'":
                raise OQLSyntaxError("unterminated string literal", line, column)
            raise OQLSyntaxError(f"unexpected character {text!r}", line, column)
        tokens.append(Token(kind, text, line, column, end - line_start + 1))
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens
