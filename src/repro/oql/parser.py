"""Recursive-descent parser for the OQL subset.

Covers the features the paper maps into the calculus: select-from-where
with ``distinct``, nested subqueries at any expression position,
quantifiers (``exists x in E : p``, ``for all x in E : p``,
``exists(select ...)``), membership ``in``, aggregates (``count``,
``sum``, ``avg``, ``max``, ``min``), ``element``, ``flatten``,
``struct`` and collection constructors, path expressions and method
calls, set operators (``union``/``intersect``/``except``), ``sort x in
E by keys``, ``order by``, ``group by ... having`` and conditional
expressions.

Operator precedence, loosest to tightest::

    or < and < not < comparison/in < +,-,union,except
       < *,/,mod,div,intersect < unary - < postfix (. [ ()) < primary

The binary levels are one table, :data:`_BINARY`, read by one
precedence-climbing loop (:meth:`_Parser._expression`): each operator
token maps to ``(binding power, AST operator, right power)``, the loop
folds an operator whose power is inside the caller's floor and parses
its right operand with the right power as the new floor. ``or`` /
``and`` / the additive and multiplicative levels associate to the left
(right power one above their own); a comparison's right operand is an
additive expression and comparisons do not chain (``a = b = c`` is
trailing input at the second ``=``); prefix ``not`` sits between ``and``
and the comparisons, so ``not a = b`` negates the comparison and
``1 + not x`` is a syntax error.
"""

from __future__ import annotations

from repro.errors import OQLSyntaxError
from repro.oql.ast import (
    Aggregate,
    BinaryOp,
    CallOp,
    CollectionExpr,
    Exists,
    ExistsQuery,
    ForAll,
    FromClause,
    GroupItem,
    IfExpr,
    IndexOp,
    Literal,
    MethodOp,
    Name,
    OQLNode,
    OrderItem,
    Param,
    Path,
    Select,
    SortExpr,
    StructExpr,
    UnaryOp,
)
from repro.oql.lexer import Token, tokenize
from repro.span import Span, set_span, span_of

_AGGREGATES = ("count", "sum", "avg", "max", "min")

_OR, _AND, _NOT, _COMPARISON, _ADDITIVE, _MULTIPLICATIVE, _UNARY = range(1, 8)


def _level(power: int, right: int, ops: str = "", keywords: str = "") -> dict:
    """Table rows for the operators of one precedence level."""
    rows = {("op", text): (power, text, right) for text in ops.split()}
    rows.update({("keyword", text): (power, text, right) for text in keywords.split()})
    return rows


#: ``(token kind, token text) -> (binding power, AST operator, right power)``.
_BINARY: dict[tuple[str, str], tuple[int, str, int]] = {
    **_level(_OR, _AND, keywords="or"),
    **_level(_AND, _NOT, keywords="and"),
    **_level(_COMPARISON, _ADDITIVE, ops="= != < <= > >=", keywords="in like"),
    **_level(_ADDITIVE, _MULTIPLICATIVE, ops="+ -", keywords="union except"),
    **_level(_MULTIPLICATIVE, _UNARY, ops="* /", keywords="mod div intersect"),
    ("op", "<>"): (_COMPARISON, "!=", _ADDITIVE),  # the other spelling of !=
}
_NO_OPERATOR = (0, "", 0)  # below every floor


def parse(source: str) -> OQLNode:
    """Parse one OQL query.

    >>> node = parse("select distinct c.name from c in Cities where c.pop > 10")
    >>> type(node).__name__
    'Select'

    Nesting too deep for Python's stack is a syntax error at the token
    where the parser gave up.
    """
    parser = _Parser(tokenize(source))
    try:
        return parser.parse_query()
    except RecursionError:
        token = parser._tokens[parser._pos]
        raise OQLSyntaxError("query nested too deeply", span=token.span) from None


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing -------------------------------------------------------
    # The token list always ends with ``eof``, which nothing accepts, so
    # ``self._tokens[self._pos]`` is always in range.

    def _accept(self, kind: str, text: str) -> bool:
        token = self._tokens[self._pos]
        if token.kind == kind and token.text == text:
            self._pos += 1
            return True
        return False

    def _accept_keyword(self, word: str) -> bool:
        return self._accept("keyword", word)

    def _expect_keyword(self, word: str) -> None:
        if not self._accept("keyword", word):
            self._fail(f"expected {word!r}")

    def _expect(self, kind: str, text: str) -> None:
        if not self._accept(kind, text):
            self._fail(f"expected {text!r}")

    def _expect_ident(self) -> str:
        token = self._tokens[self._pos]
        if token.kind == "ident":
            self._pos += 1
            return token.text
        self._fail("expected an identifier")
        raise AssertionError  # pragma: no cover

    def _fail(self, message: str) -> None:
        token = self._tokens[self._pos]
        found = "end of input" if token.kind == "eof" else f"{token.kind} {token.text!r}"
        raise OQLSyntaxError(f"{message}, found {found}", span=token.span)

    # -- span plumbing --------------------------------------------------------

    def _spanned(self, node: OQLNode, start: Token) -> OQLNode:
        """Attach a span from ``start`` to the last consumed token."""
        last = self._tokens[self._pos - 1] if self._pos > 0 else start
        end_line, end_column = last.line, last.end_column
        if (end_line, end_column) < (start.line, start.end_column):
            end_line, end_column = start.line, start.end_column
        set_span(node, Span(start.line, start.column, end_line, end_column))
        return node

    # -- entry ----------------------------------------------------------------

    def parse_query(self) -> OQLNode:
        node = self._expression()
        if self._tokens[self._pos].kind != "eof":
            self._fail("unexpected trailing input")
        return node

    # -- expression grammar -------------------------------------------------------

    def _expression(self, floor: int = _OR) -> OQLNode:
        """An expression whose binary operators all bind at ``floor`` or tighter."""
        tokens = self._tokens
        start = tokens[self._pos]
        if floor <= _NOT and self._accept("keyword", "not"):
            node = self._spanned(UnaryOp("not", self._expression(_NOT)), start)
            ceiling = _AND
        else:
            node = self._unary()
            ceiling = _MULTIPLICATIVE
        while True:
            token = tokens[self._pos]
            power, op, right = _BINARY.get((token.kind, token.text), _NO_OPERATOR)
            if not floor <= power <= ceiling:
                return node
            self._pos += 1
            node = self._spanned(BinaryOp(op, node, self._expression(right)), start)
            # What follows binds no tighter than what was just folded, and
            # strictly looser after a comparison: comparisons do not chain.
            ceiling = power - 1 if power == _COMPARISON else power

    def _unary(self) -> OQLNode:
        start = self._tokens[self._pos]
        if self._accept("op", "-"):
            return self._spanned(UnaryOp("-", self._unary()), start)
        return self._postfix()

    def _postfix(self) -> OQLNode:
        start = self._tokens[self._pos]
        node = self._primary()
        while True:
            if self._accept("punct", "."):
                name = self._field_name()
                if self._accept("punct", "("):
                    args = self._arguments()
                    node = MethodOp(node, name, args)
                else:
                    node = Path(node, name)
            elif self._accept("punct", "["):
                index = self._expression()
                self._expect("punct", "]")
                node = IndexOp(node, index)
            else:
                return node
            self._spanned(node, start)

    def _field_name(self) -> str:
        # Field names may collide with keywords (e.g. ``partition``,
        # ``count``): accept both token kinds after a dot.
        token = self._tokens[self._pos]
        if token.kind in ("ident", "keyword"):
            self._pos += 1
            return token.text
        self._fail("expected a field name")
        raise AssertionError  # pragma: no cover

    def _arguments(self) -> tuple[OQLNode, ...]:
        if self._accept("punct", ")"):
            return ()
        args = [self._expression()]
        while self._accept("punct", ","):
            args.append(self._expression())
        self._expect("punct", ")")
        return tuple(args)

    # -- primaries --------------------------------------------------------------------

    def _primary(self) -> OQLNode:
        start = self._tokens[self._pos]
        node = self._primary_inner()
        if span_of(node) is None:
            self._spanned(node, start)
        return node

    def _primary_inner(self) -> OQLNode:
        token = self._tokens[self._pos]
        if token.kind == "number":
            self._pos += 1
            text = token.text
            return Literal(float(text) if "." in text else int(text))
        if token.kind == "string":
            self._pos += 1
            return Literal(token.text)
        if token.kind == "param":
            self._pos += 1
            return Param(token.text)
        if token.kind == "keyword":
            return self._keyword_primary(token)
        if token.kind == "ident":
            self._pos += 1
            if self._accept("punct", "("):
                args = self._arguments()
                return CallOp(token.text, args)
            return Name(token.text)
        if self._accept("punct", "("):
            node = self._expression()
            self._expect("punct", ")")
            return node
        self._fail("expected an expression")
        raise AssertionError  # pragma: no cover

    def _keyword_primary(self, token: Token) -> OQLNode:
        word = token.text
        if word == "true":
            self._pos += 1
            return Literal(True)
        if word == "false":
            self._pos += 1
            return Literal(False)
        if word == "nil":
            self._pos += 1
            return Literal(None)
        if word == "select":
            return self._select()
        if word == "exists":
            return self._exists()
        if word == "for":
            return self._forall()
        if word == "struct":
            return self._struct()
        if word in ("set", "bag", "list", "array"):
            return self._collection(word)
        if word in _AGGREGATES:
            self._pos += 1
            self._expect("punct", "(")
            arg = self._expression()
            self._expect("punct", ")")
            return Aggregate(word, arg)
        if word in ("element", "flatten", "distinct"):
            self._pos += 1
            self._expect("punct", "(")
            arg = self._expression()
            self._expect("punct", ")")
            return CallOp("to_set" if word == "distinct" else word, (arg,))
        if word == "sort":
            return self._sort()
        if word == "if":
            self._pos += 1
            cond = self._expression()
            self._expect_keyword("then")
            then_branch = self._expression()
            self._expect_keyword("else")
            else_branch = self._expression()
            return IfExpr(cond, then_branch, else_branch)
        if word == "partition":
            self._pos += 1
            return Name("partition")
        self._fail("unexpected keyword")
        raise AssertionError  # pragma: no cover

    def _select(self) -> Select:
        self._expect_keyword("select")
        distinct = self._accept_keyword("distinct")
        head = self._expression()
        self._expect_keyword("from")
        from_clauses = [self._from_clause()]
        while self._accept("punct", ","):
            from_clauses.append(self._from_clause())
        where = None
        if self._accept_keyword("where"):
            where = self._expression()
        group_by: tuple[GroupItem, ...] = ()
        having = None
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by = self._group_items()
            if self._accept_keyword("having"):
                having = self._expression()
        order_by: tuple[OrderItem, ...] = ()
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by = self._order_items()
        return Select(
            head,
            tuple(from_clauses),
            where=where,
            distinct=distinct,
            order_by=order_by,
            group_by=group_by,
            having=having,
        )

    def _from_clause(self) -> FromClause:
        # Preferred ODMG form: ``x in E``. Alternative: ``E as x``.
        start = self._tokens[self._pos]
        if self._tokens[self._pos].kind == "ident":
            next_token = self._tokens[self._pos + 1]
            if next_token.is_keyword("in"):
                var = self._expect_ident()
                self._expect_keyword("in")
                source = self._expression()
                return self._spanned(FromClause(var, source), start)
        source = self._expression()
        if self._accept_keyword("as"):
            var = self._expect_ident()
            return self._spanned(FromClause(var, source), start)
        if self._tokens[self._pos].kind == "ident":
            # ``E x`` — SQL-style alias without AS
            var = self._expect_ident()
            return self._spanned(FromClause(var, source), start)
        self._fail("from clause needs a variable: use `x in E` or `E as x`")
        raise AssertionError  # pragma: no cover

    def _order_items(self) -> tuple[OrderItem, ...]:
        items = [self._order_item()]
        while self._accept("punct", ","):
            items.append(self._order_item())
        return tuple(items)

    def _order_item(self) -> OrderItem:
        key = self._expression()
        descending = False
        if self._accept_keyword("desc"):
            descending = True
        else:
            self._accept_keyword("asc")
        return OrderItem(key, descending)

    def _group_items(self) -> tuple[GroupItem, ...]:
        items = [self._group_item()]
        while self._accept("punct", ","):
            items.append(self._group_item())
        return tuple(items)

    def _group_item(self) -> GroupItem:
        label = self._expect_ident()
        self._expect("punct", ":")
        key = self._expression()
        return GroupItem(label, key)

    def _exists(self) -> OQLNode:
        self._expect_keyword("exists")
        if self._accept("punct", "("):
            query = self._expression()
            self._expect("punct", ")")
            return ExistsQuery(query)
        var = self._expect_ident()
        self._expect_keyword("in")
        source = self._expression()
        self._expect("punct", ":")
        pred = self._expression()
        return Exists(var, source, pred)

    def _forall(self) -> ForAll:
        self._expect_keyword("for")
        self._expect_keyword("all")
        var = self._expect_ident()
        self._expect_keyword("in")
        source = self._expression()
        self._expect("punct", ":")
        pred = self._expression()
        return ForAll(var, source, pred)

    def _struct(self) -> StructExpr:
        self._expect_keyword("struct")
        self._expect("punct", "(")
        fields = [self._struct_field()]
        while self._accept("punct", ","):
            fields.append(self._struct_field())
        self._expect("punct", ")")
        return StructExpr(tuple(fields))

    def _struct_field(self) -> tuple[str, OQLNode]:
        name = self._expect_ident()
        self._expect("punct", ":")
        return name, self._expression()

    def _collection(self, kind: str) -> CollectionExpr:
        self._pos += 1
        self._expect("punct", "(")
        if self._accept("punct", ")"):
            return CollectionExpr("list" if kind == "array" else kind, ())
        items = [self._expression()]
        while self._accept("punct", ","):
            items.append(self._expression())
        self._expect("punct", ")")
        return CollectionExpr("list" if kind == "array" else kind, tuple(items))

    def _sort(self) -> SortExpr:
        self._expect_keyword("sort")
        var = self._expect_ident()
        self._expect_keyword("in")
        source = self._expression()
        self._expect_keyword("by")
        keys = self._order_items()
        return SortExpr(var, source, keys)
