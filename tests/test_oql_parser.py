"""OQL parser: shapes of the syntax tree."""

import pytest

from repro.errors import OQLSyntaxError
from repro.oql import parse
from repro.oql.ast import (
    Aggregate,
    BinaryOp,
    CallOp,
    CollectionExpr,
    Exists,
    ExistsQuery,
    ForAll,
    IfExpr,
    IndexOp,
    Literal,
    MethodOp,
    Name,
    Path,
    Select,
    SortExpr,
    StructExpr,
    UnaryOp,
)


class TestSelect:
    def test_minimal(self):
        node = parse("select c from c in Cities")
        assert isinstance(node, Select)
        assert not node.distinct
        assert node.from_clauses[0].var == "c"
        assert node.from_clauses[0].source == Name("Cities")
        assert node.where is None

    def test_distinct_and_where(self):
        node = parse("select distinct c.name from c in Cities where c.pop > 5")
        assert node.distinct
        assert isinstance(node.head, Path)
        assert isinstance(node.where, BinaryOp)

    def test_multiple_from_clauses(self):
        node = parse("select h from c in Cities, h in c.hotels")
        assert [f.var for f in node.from_clauses] == ["c", "h"]

    def test_as_alias(self):
        node = parse("select c from Cities as c")
        assert node.from_clauses[0].var == "c"

    def test_implicit_alias(self):
        node = parse("select c from Cities c")
        assert node.from_clauses[0].var == "c"

    def test_missing_alias_fails(self):
        with pytest.raises(OQLSyntaxError):
            parse("select c from Cities")

    def test_order_by(self):
        node = parse("select e from e in E order by e.salary desc, e.name")
        assert node.order_by[0].descending
        assert not node.order_by[1].descending

    def test_group_by_and_having(self):
        node = parse(
            "select struct(d: dno, n: count(partition)) from e in E "
            "group by dno: e.dno having count(partition) > 2"
        )
        assert node.group_by[0].label == "dno"
        assert node.having is not None

    def test_nested_select_in_from(self):
        node = parse("select x from x in (select y from y in Ys)")
        assert isinstance(node.from_clauses[0].source, Select)

    def test_nested_select_in_where(self):
        node = parse("select x from x in Xs where x in (select y from y in Ys)")
        assert isinstance(node.where, BinaryOp)
        assert node.where.op == "in"


class TestExpressions:
    def test_precedence_arithmetic(self):
        node = parse("1 + 2 * 3")
        assert isinstance(node, BinaryOp) and node.op == "+"
        assert isinstance(node.right, BinaryOp) and node.right.op == "*"

    def test_precedence_booleans(self):
        node = parse("a or b and c")
        assert node.op == "or"
        assert node.right.op == "and"

    def test_not(self):
        node = parse("not a")
        assert isinstance(node, UnaryOp) and node.op == "not"

    def test_comparison_chain_not_allowed(self):
        # single comparison only; the rest parses as trailing input
        with pytest.raises(OQLSyntaxError):
            parse("1 < 2 < 3")

    def test_neq_spellings(self):
        assert parse("a != b").op == "!="
        assert parse("a <> b").op == "!="

    def test_union_and_intersect_precedence(self):
        node = parse("A union B intersect C")
        assert node.op == "union"
        assert node.right.op == "intersect"

    def test_paths_and_methods(self):
        node = parse("c.hotels.name")
        assert isinstance(node, Path) and node.field == "name"
        node = parse("h.cheapest_room().price")
        assert isinstance(node, Path)
        assert isinstance(node.base, MethodOp)

    def test_method_with_args(self):
        node = parse("o.m(1, 2)")
        assert isinstance(node, MethodOp)
        assert len(node.args) == 2

    def test_indexing(self):
        node = parse("xs[3]")
        assert isinstance(node, IndexOp)

    def test_keyword_field_names_after_dot(self):
        node = parse("g.partition")
        assert isinstance(node, Path) and node.field == "partition"

    def test_if_expression(self):
        node = parse("if a > 1 then 'big' else 'small'")
        assert isinstance(node, IfExpr)

    def test_unary_minus(self):
        node = parse("-x")
        assert isinstance(node, UnaryOp) and node.op == "-"

    def test_literals(self):
        assert parse("42") == Literal(42)
        assert parse("4.5") == Literal(4.5)
        assert parse("'s'") == Literal("s")
        assert parse("true") == Literal(True)
        assert parse("nil") == Literal(None)

    def test_parenthesized(self):
        node = parse("(1 + 2) * 3")
        assert node.op == "*"


class TestQuantifiersAndAggregates:
    def test_exists_in(self):
        node = parse("exists h in c.hotels : h.stars = 5")
        assert isinstance(node, Exists)
        assert node.var == "h"

    def test_exists_subquery(self):
        node = parse("exists(select h from h in Hs)")
        assert isinstance(node, ExistsQuery)

    def test_forall(self):
        node = parse("for all x in Xs : x > 0")
        assert isinstance(node, ForAll)

    def test_aggregates(self):
        for op in ("count", "sum", "avg", "max", "min"):
            node = parse(f"{op}(Xs)")
            assert isinstance(node, Aggregate) and node.op == op

    def test_element_flatten_distinct(self):
        assert parse("element(Xs)") == CallOp("element", (Name("Xs"),))
        assert parse("flatten(Xs)") == CallOp("flatten", (Name("Xs"),))
        assert parse("distinct(Xs)") == CallOp("to_set", (Name("Xs"),))

    def test_membership(self):
        node = parse("3 in Xs")
        assert node.op == "in"


class TestConstructors:
    def test_struct(self):
        node = parse("struct(a: 1, b: 'x')")
        assert isinstance(node, StructExpr)
        assert [name for name, _ in node.fields] == ["a", "b"]

    def test_collections(self):
        for kind in ("set", "bag", "list"):
            node = parse(f"{kind}(1, 2, 3)")
            assert isinstance(node, CollectionExpr)
            assert node.kind == kind
            assert len(node.items) == 3

    def test_array_is_list(self):
        assert parse("array(1)").kind == "list"

    def test_empty_collection(self):
        assert parse("set()").items == ()

    def test_sort(self):
        node = parse("sort c in Cities by c.name, c.pop desc")
        assert isinstance(node, SortExpr)
        assert node.var == "c"
        assert node.keys[1].descending

    def test_function_call(self):
        node = parse("sqrt(2)")
        assert isinstance(node, CallOp)


class TestErrors:
    def test_trailing_input(self):
        with pytest.raises(OQLSyntaxError, match="trailing"):
            parse("1 2")

    def test_missing_from(self):
        with pytest.raises(OQLSyntaxError):
            parse("select x")

    def test_error_carries_position(self):
        try:
            parse("select x from x in")
        except OQLSyntaxError as err:
            assert err.line >= 1
        else:  # pragma: no cover
            pytest.fail("expected a syntax error")

    def test_bad_struct(self):
        with pytest.raises(OQLSyntaxError):
            parse("struct(a 1)")


# The module docstring's table, binary levels only, loosest first.
_LEVELS = (
    ("or",),
    ("and",),
    ("=", "!=", "<>", "<", "<=", ">", ">=", "in", "like"),
    ("+", "-", "union", "except"),
    ("*", "/", "mod", "div", "intersect"),
)
_LEVEL_OF = {op: level for level, ops in enumerate(_LEVELS) for op in ops}
_COMPARISON_LEVEL = 2


class TestPrecedenceMatrix:
    """Every ordered pair of binary operators, against the docstring's table."""

    @staticmethod
    def _binary(op, left, right):
        return BinaryOp("!=" if op == "<>" else op, left, right)

    @pytest.mark.parametrize("first", _LEVEL_OF)
    def test_every_operator_pair(self, first):
        a, b, c = Name("a"), Name("b"), Name("c")
        for second in _LEVEL_OF:
            source = f"a {first} b {second} c"
            if _LEVEL_OF[first] == _LEVEL_OF[second] == _COMPARISON_LEVEL:
                # comparisons do not chain: the second one is trailing input
                with pytest.raises(OQLSyntaxError, match="unexpected trailing input") as info:
                    parse(source)
                assert (info.value.line, info.value.column) == (1, len(f"a {first} b ") + 1)
            elif _LEVEL_OF[second] > _LEVEL_OF[first]:
                assert parse(source) == self._binary(first, a, self._binary(second, b, c)), source
            else:  # looser, or the same level: left-associative
                assert parse(source) == self._binary(second, self._binary(first, a, b), c), source

    def test_chained_comparison_errors_point_at_the_second_operator(self):
        for source, column in (("a = b = c", 7), ("a in b in c", 8), ("x or a < b < c", 12),
                               ("not a = b = c", 11)):
            with pytest.raises(OQLSyntaxError, match="unexpected trailing input") as info:
                parse(source)
            assert info.value.column == column, source

    def test_not_is_looser_than_comparison_and_tighter_than_and(self):
        a, b, c = Name("a"), Name("b"), Name("c")
        assert parse("not a = b") == UnaryOp("not", BinaryOp("=", a, b))
        assert parse("not a and b") == BinaryOp("and", UnaryOp("not", a), b)
        assert parse("a and not b = c") == BinaryOp(
            "and", a, UnaryOp("not", BinaryOp("=", b, c)))
        assert parse("not not a or b") == BinaryOp(
            "or", UnaryOp("not", UnaryOp("not", a)), b)

    @pytest.mark.parametrize("source", ["1 + not x", "a = not b", "a * not b", "- not a"])
    def test_not_below_its_level_is_a_syntax_error(self, source):
        with pytest.raises(OQLSyntaxError, match="unexpected keyword, found keyword 'not'"):
            parse(source)

    def test_unary_minus_binds_tighter_than_every_binary_operator(self):
        a, b = Name("a"), Name("b")
        for op in _LEVEL_OF:
            assert parse(f"- a {op} b") == self._binary(op, UnaryOp("-", a), b)
            assert parse(f"a {op} - b") == self._binary(op, a, UnaryOp("-", b))
