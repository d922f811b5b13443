"""A parser for the paper's calculus notation.

Lets tests, docs and interactive sessions write terms exactly as the
paper prints them, instead of via the builder DSL:

>>> from repro.calculus.parser import parse_calculus
>>> str(parse_calculus("set{ (a, b) | a <- Xs, b <- Ys, a < b }"))
'set{ (a, b) | a <- Xs, b <- Ys, (a < b) }'

Supported grammar (superset of what the pretty printer emits)::

    term     := comprehension | if | lambda | let | or-expr
    compr    := MONOID '{' term ('|' qualifier (',' qualifier)*)? '}'
    monoid   := NAME | NAME '[' lambda ']'          (sorted[\\x. e])
              | NAME '[' term ']'                   (vec: sum[8])
    qualifier:= NAME '<-' term                      (generator)
              | NAME '[' NAME ']' '<-' term         (indexed generator)
              | NAME '==' term                      (binding)
              | term                                (predicate)
    lambda   := '\\' NAME '.' term
    if       := 'if' term 'then' term 'else' term
    let      := 'let' NAME '=' term 'in' term
    atoms    := literals, records '<a=e, ...>', tuples '(e, e)',
                zero(M), unit(M)(e), 'new(e)', '!e', 'e := e',
                paths 'x.a.b', indexing 'e[i]', calls 'f(e, ...)',
                merge 'e1 (+)M e2'

Monoid names with a ``[size]`` suffix where the name is a known
primitive monoid (``sum[8]``) denote vector monoids ``M[n]``.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.calculus.ast import (
    Assign,
    Bind,
    BinOp,
    Call,
    Comprehension,
    Const,
    Deref,
    Empty,
    Filter,
    Generator,
    If,
    Index,
    Lambda,
    Let,
    Merge,
    MethodCall,
    MonoidRef,
    New,
    Proj,
    Qualifier,
    RecordCons,
    Singleton,
    Term,
    TupleCons,
    UnOp,
    Var,
)
from repro.errors import CalculusError
from repro.monoids.registry import static_monoid
from repro.span import point_span

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow><-)
  | (?P<bind>==)
  | (?P<mergeop>\(\+\))
  | (?P<op><=|>=|!=|:=|[-+*/<>=])
  | (?P<punct>[{}()\[\],.|!@\\])
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
  | (?P<name>[A-Za-z_][A-Za-z0-9_~#]*)
""",
    re.VERBOSE,
)

_KEYWORD_OPS = {"and", "or", "in", "union", "intersect", "except", "div", "mod"}


def parse_calculus(source: str) -> Term:
    """Parse one calculus term written in the paper's notation.

    A monoid name is one :func:`~repro.monoids.static_monoid` knows, so
    a monoid registered after import parses like Table 1's.
    """
    tokens, offsets = _tokenize(source)
    parser = _CalcParser(tokens)
    try:
        term = parser.parse_term()
    except RecursionError:
        offset = offsets[parser._pos]
        line = source.count("\n", 0, offset) + 1
        column = offset - source.rfind("\n", 0, offset)
        raise CalculusError(
            f"calculus text nested too deeply at {point_span(line, column)}"
        ) from None
    parser.expect_end()
    return term


def _tokenize(source: str) -> tuple[list[tuple[str, str]], list[int]]:
    """The tokens of ``source`` and the offset each starts at."""
    tokens: list[tuple[str, str]] = []
    offsets: list[int] = []
    position = 0
    while position < len(source):
        match = _TOKEN_RE.match(source, position)
        if match is None:
            raise CalculusError(
                f"cannot tokenize calculus text at: {source[position:position + 20]!r}"
            )
        if match.lastgroup != "ws":
            tokens.append((match.lastgroup, match.group()))
            offsets.append(position)
        position = match.end()
    tokens.append(("end", ""))
    offsets.append(len(source))
    return tokens, offsets


class _CalcParser:
    def __init__(self, tokens: list[tuple[str, str]]) -> None:
        self._tokens = tokens
        self._pos = 0
        # While parsing a `let` binding's value, the bare keyword `in`
        # terminates the value instead of acting as membership.
        self._no_in = 0
        # While parsing record field values, a bare `>` closes the record
        # rather than comparing (parenthesize comparisons inside records).
        self._no_gt = 0

    # -- plumbing -------------------------------------------------------------

    def _peek(self, offset: int = 0) -> tuple[str, str]:
        return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]

    def _advance(self) -> tuple[str, str]:
        token = self._tokens[self._pos]
        if token[0] != "end":
            self._pos += 1
        return token

    def _accept(self, kind: str, text: Optional[str] = None) -> bool:
        token = self._peek()
        if token[0] == kind and (text is None or token[1] == text):
            self._advance()
            return True
        return False

    def _expect(self, kind: str, text: Optional[str] = None) -> str:
        token = self._peek()
        if token[0] != kind or (text is not None and token[1] != text):
            raise CalculusError(
                f"expected {text or kind!r}, found {token[1]!r} in calculus text"
            )
        return self._advance()[1]

    def expect_end(self) -> None:
        if self._peek()[0] != "end":
            raise CalculusError(f"trailing input in calculus text: {self._peek()[1]!r}")

    # -- grammar ----------------------------------------------------------------

    def parse_term(self) -> Term:
        token = self._peek()
        if token == ("punct", "\\"):
            return self._lambda()
        if token == ("name", "if"):
            return self._if()
        if token == ("name", "let"):
            return self._let()
        return self._or_expr()

    def _lambda(self) -> Lambda:
        self._expect("punct", "\\")
        param = self._expect("name")
        self._expect("punct", ".")
        return Lambda(param, self.parse_term())

    def _if(self) -> If:
        self._expect("name", "if")
        cond = self.parse_term()
        self._expect("name", "then")
        then_branch = self.parse_term()
        self._expect("name", "else")
        return If(cond, then_branch, self.parse_term())

    def _let(self) -> Let:
        self._expect("name", "let")
        name = self._expect("name")
        self._expect("op", "=")
        self._no_in += 1
        try:
            value = self.parse_term()
        finally:
            self._no_in -= 1
        self._expect("name", "in")
        return Let(name, value, self.parse_term())

    def _or_expr(self) -> Term:
        node = self._and_expr()
        while self._peek() == ("name", "or"):
            self._advance()
            node = BinOp("or", node, self._and_expr())
        return node

    def _and_expr(self) -> Term:
        node = self._not_expr()
        while self._peek() == ("name", "and"):
            self._advance()
            node = BinOp("and", node, self._not_expr())
        return node

    def _not_expr(self) -> Term:
        if self._peek() == ("name", "not"):
            self._advance()
            return UnOp("not", self._not_expr())
        return self._comparison()

    def _comparison(self) -> Term:
        node = self._additive()
        token = self._peek()
        if token[0] == "op" and token[1] in ("=", "!=", "<", "<=", ">", ">="):
            if token[1] == ">" and self._no_gt:
                return node
            op = self._advance()[1]
            return BinOp(op, node, self._additive())
        if token == ("name", "in") and not self._no_in:
            self._advance()
            return BinOp("in", node, self._additive())
        if token[0] == "op" and token[1] == ":=":
            self._advance()
            return Assign(node, self.parse_term())
        return node

    def _additive(self) -> Term:
        node = self._multiplicative()
        while True:
            token = self._peek()
            if token[0] == "op" and token[1] in ("+", "-"):
                op = self._advance()[1]
                node = BinOp(op, node, self._multiplicative())
            elif token[0] == "name" and token[1] in ("union", "except"):
                op = self._advance()[1]
                node = BinOp(op, node, self._multiplicative())
            elif token[0] == "mergeop":
                self._advance()
                ref = self._monoid_ref()
                node = Merge(ref, node, self._multiplicative())
            else:
                return node

    def _multiplicative(self) -> Term:
        node = self._unary()
        while True:
            token = self._peek()
            if token[0] == "op" and token[1] in ("*", "/"):
                op = self._advance()[1]
                node = BinOp(op, node, self._unary())
            elif token[0] == "name" and token[1] in ("div", "mod", "intersect"):
                op = self._advance()[1]
                node = BinOp(op, node, self._unary())
            else:
                return node

    def _unary(self) -> Term:
        token = self._peek()
        if token == ("op", "-"):
            self._advance()
            operand = self._unary()
            if isinstance(operand, Const) and isinstance(operand.value, (int, float)):
                return Const(-operand.value)
            return UnOp("-", operand)
        if token == ("punct", "!"):
            self._advance()
            return Deref(self._unary())
        return self._postfix()

    def _postfix(self) -> Term:
        node = self._primary()
        while True:
            if self._accept("punct", "."):
                name = self._expect("name")
                if self._peek() == ("punct", "("):
                    self._advance()
                    args = self._arguments()
                    node = MethodCall(node, name, args)
                else:
                    node = Proj(node, name)
            elif self._peek() == ("punct", "["):
                self._advance()
                index = self.parse_term()
                self._expect("punct", "]")
                node = Index(node, index)
            else:
                return node

    def _arguments(self) -> tuple[Term, ...]:
        if self._accept("punct", ")"):
            return ()
        args = [self.parse_term()]
        while self._accept("punct", ","):
            args.append(self.parse_term())
        self._expect("punct", ")")
        return tuple(args)

    # -- primaries -------------------------------------------------------------------

    def _primary(self) -> Term:
        kind, text = self._peek()
        if kind == "number":
            self._advance()
            return Const(float(text) if "." in text else int(text))
        if kind == "string":
            self._advance()
            body = text[1:-1]
            return Const(re.sub(r"\\(.)", r"\1", body))
        if kind == "punct" and text == "(":
            return self._tuple_or_paren()
        if kind == "punct" and text == "<":  # unreachable: '<' is an op
            pass
        if kind == "op" and text == "<":
            return self._record()
        if kind == "name":
            return self._name_primary()
        raise CalculusError(f"unexpected token {text!r} in calculus text")

    def _tuple_or_paren(self) -> Term:
        self._expect("punct", "(")
        # Parentheses re-enable `>` comparison inside record fields.
        saved_gt, self._no_gt = self._no_gt, 0
        try:
            return self._tuple_or_paren_body()
        finally:
            self._no_gt = saved_gt

    def _tuple_or_paren_body(self) -> Term:
        first = self.parse_term()
        if self._accept("punct", ","):
            items = [first, self.parse_term()]
            while self._accept("punct", ","):
                items.append(self.parse_term())
            self._expect("punct", ")")
            return TupleCons(tuple(items))
        self._expect("punct", ")")
        return first

    def _record(self) -> RecordCons:
        self._expect("op", "<")
        fields: list[tuple[str, Term]] = []
        if not self._accept("op", ">"):
            self._no_gt += 1
            try:
                while True:
                    name = self._expect("name")
                    self._expect("op", "=")
                    fields.append((name, self.parse_term()))
                    if not self._accept("punct", ","):
                        break
            finally:
                self._no_gt -= 1
            self._expect("op", ">")
        return RecordCons(tuple(fields))

    def _name_primary(self) -> Term:
        text = self._peek()[1]
        if text == "true":
            self._advance()
            return Const(True)
        if text == "false":
            self._advance()
            return Const(False)
        if text == "none":
            self._advance()
            return Const(None)
        if text == "zero":
            self._advance()
            self._expect("punct", "(")
            ref = self._monoid_ref()
            self._expect("punct", ")")
            return Empty(ref)
        if text == "unit":
            return self._unit()
        if text == "new":
            self._advance()
            self._expect("punct", "(")
            state = self.parse_term()
            self._expect("punct", ")")
            return New(state)
        if text == "hom":
            return self._hom()
        if self._is_comprehension_head():
            return self._comprehension()
        self._advance()
        if self._peek() == ("punct", "("):
            self._advance()
            return Call(text, self._arguments())
        return Var(text)

    def _unit(self) -> Singleton:
        self._expect("name", "unit")
        self._expect("punct", "(")
        ref = self._monoid_ref()
        self._expect("punct", ")")
        self._expect("punct", "(")
        element = self.parse_term()
        index = None
        if self._accept("punct", "@"):
            index = self.parse_term()
        self._expect("punct", ")")
        return Singleton(ref, element, index)

    def _hom(self) -> Term:
        from repro.calculus.ast import Hom

        self._expect("name", "hom")
        self._expect("punct", "[")
        source = self._monoid_ref()
        self._expect("op", "-")
        self._expect("op", ">")
        target = self._monoid_ref()
        self._expect("punct", "]")
        self._expect("punct", "(")
        fn = self.parse_term()
        self._expect("punct", ")")
        self._expect("punct", "(")
        arg = self.parse_term()
        self._expect("punct", ")")
        if not isinstance(fn, Lambda):
            raise CalculusError("hom requires a lambda: hom[N -> M](\\v. e)(u)")
        return Hom(source, target, fn.param, fn.body, arg)

    # -- comprehensions -----------------------------------------------------------------

    def _is_comprehension_head(self) -> bool:
        kind, text = self._peek()
        if kind != "name" or static_monoid(text) is None:
            return False
        nxt = self._peek(1)
        if nxt == ("punct", "{"):
            return True
        if nxt == ("punct", "["):
            # sorted[\x. e]{ ... } or sum[8]{ ... }: scan for ']' '{'
            depth = 0
            offset = 1
            while True:
                token = self._peek(offset)
                if token[0] == "end":
                    return False
                if token == ("punct", "["):
                    depth += 1
                elif token == ("punct", "]"):
                    depth -= 1
                    if depth == 0:
                        return self._peek(offset + 1) == ("punct", "{")
                offset += 1
        return False

    def _monoid_ref(self) -> MonoidRef:
        name = self._expect("name")
        if self._peek() == ("punct", "["):
            self._advance()
            if name in ("sorted", "sortedbag"):
                key = self.parse_term()
                self._expect("punct", "]")
                return MonoidRef(name, key=key)
            size = self.parse_term()
            self._expect("punct", "]")
            return MonoidRef("vec", element=MonoidRef(name), size=size)
        if static_monoid(name) is None:
            raise CalculusError(f"unknown monoid {name!r} in calculus text")
        return MonoidRef(name)

    def _comprehension(self) -> Comprehension:
        ref = self._monoid_ref()
        self._expect("punct", "{")
        head = self.parse_term()
        head_index = None
        if self._accept("punct", "@"):
            head_index = self.parse_term()
        qualifiers: list[Qualifier] = []
        if self._accept("punct", "|"):
            qualifiers.append(self._qualifier())
            while self._accept("punct", ","):
                qualifiers.append(self._qualifier())
        self._expect("punct", "}")
        if head_index is not None:
            head = TupleCons((head, head_index))
        return Comprehension(ref, head, tuple(qualifiers))

    def _qualifier(self) -> Qualifier:
        kind, text = self._peek()
        if kind == "name":
            nxt = self._peek(1)
            if nxt[0] == "arrow":
                var_name = self._advance()[1]
                self._advance()  # <-
                return Generator(var_name, self.parse_term())
            if (
                nxt == ("punct", "[")
                and self._peek(2)[0] == "name"
                and self._peek(3) == ("punct", "]")
                and self._peek(4)[0] == "arrow"
            ):
                var_name = self._advance()[1]
                self._advance()  # [
                index_name = self._advance()[1]
                self._advance()  # ]
                self._advance()  # <-
                return Generator(var_name, self.parse_term(), index_name)
            if nxt[0] == "bind":
                var_name = self._advance()[1]
                self._advance()  # ==
                return Bind(var_name, self.parse_term())
        return Filter(self.parse_term())
