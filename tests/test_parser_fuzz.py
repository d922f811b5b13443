"""Fuzzing the two parsers and ``Database.run``.

1. Garbage in, *clean errors* out: random text must either parse or
   raise the dedicated syntax error — never an internal exception, a
   nesting too deep for Python's stack included.
2. Random expressions over every carrier, run through ``Database.run``
   on both engines, typed or not, answer a value or a ``ReproError`` —
   and the same value from both engines.
3. Printer/parser round trip on random calculus terms over every
   registered monoid: anything the pretty printer emits must parse back
   alpha-equal.
"""

from __future__ import annotations

import functools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.vectors.linalg  # noqa: F401  (registers csum and cell)
from repro.calculus import alpha_equal, pretty
from repro.calculus.parser import parse_calculus
from repro.errors import CalculusError, OQLSyntaxError, ReproError, ResourceLimitError
from repro.monoids import PrimitiveMonoid, default_registry
from repro.oql import parse as parse_oql

#: Deep enough to exhaust Python's recursion limit in either parser, even
#: inside ``@given``, which raises the limit while a test runs.
_DEEP = 1000

_OQL_FRAGMENTS = [
    "select", "from", "where", "in", "distinct", "exists", "(", ")", ",",
    "c", "Cities", "h", ".", "name", "=", "'x'", "1", "+", "and", "struct",
    "order", "by", "group", ":", "sum", "*", "sort",
]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_OQL_FRAGMENTS), max_size=12))
@example(["("] * _DEEP + ["1"] + [")"] * _DEEP)
def test_oql_parser_never_crashes(fragments):
    source = " ".join(fragments)
    try:
        parse_oql(source)
    except OQLSyntaxError:
        pass  # the only acceptable failure mode


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=40))
def test_oql_lexer_never_crashes(text):
    from repro.oql import tokenize

    try:
        tokenize(text)
    except OQLSyntaxError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40))
@example("²")
@example("select c from c in Cities where c.n = 1٣")
@example("(" * _DEEP + "1" + ")" * _DEEP)
@example("select " * _DEEP)
def test_oql_parse_of_any_text_never_crashes(text):
    """Not only the lexer: a token the lexer lets through must not blow
    up the parser (``int("²")`` did, as a bare ``ValueError``)."""
    try:
        parse_oql(text)
    except OQLSyntaxError:
        pass


def test_non_ascii_digits_are_unexpected_characters():
    import pytest

    for text, column in (("²", 1), ("1 + ٣", 5), ("x = ½", 5), ("12²", 3)):
        with pytest.raises(OQLSyntaxError, match="unexpected character") as info:
            parse_oql(text)
        assert (info.value.line, info.value.column) == (1, column)


_CALC_FRAGMENTS = [
    "set{", "}", "|", "<-", "x", "Xs", ",", "(", ")", "sum", "1", "+",
    "==", "\\", ".", "zero(set)", "unit(bag)(1)", "<a=1>", "!", ":=",
]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_CALC_FRAGMENTS), max_size=10))
@example(["("] * _DEEP + ["1"] + [")"] * _DEEP)
@example(["set{"] * _DEEP)
def test_calculus_parser_never_crashes(fragments):
    source = " ".join(fragments)
    try:
        parse_calculus(source)
    except CalculusError:
        pass


def test_deep_nesting_is_a_syntax_error_with_a_position():
    with pytest.raises(OQLSyntaxError, match="nested too deeply") as info:
        parse_oql("(" * _DEEP + "1" + ")" * _DEEP)
    assert info.value.line == 1 and 1 < info.value.column <= _DEEP
    with pytest.raises(CalculusError, match=r"nested too deeply at line 1, column \d+"):
        parse_calculus("(" * _DEEP + "1" + ")" * _DEEP)


class TestDeepQueriesThroughDatabaseRun:
    """A query too deep for some stage ends in a ``ReproError``."""

    def test_translate_overflow_is_a_resource_limit(self, travel_db):
        # parsing a left-deep sum is a loop; translating it recurses
        with pytest.raises(ResourceLimitError, match="too deeply to compile"):
            travel_db.run(" + ".join(["1"] * 400))

    def test_parse_overflow_is_a_syntax_error(self, travel_db):
        with pytest.raises(OQLSyntaxError, match="nested too deeply"):
            travel_db.run("(" * _DEEP + "1" + ")" * _DEEP)

    def test_execute_overflow_is_a_resource_limit(self, travel_db, monkeypatch):
        def overflow(self, term):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(type(travel_db.evaluator()), "evaluate", overflow)
        with pytest.raises(ResourceLimitError, match="too deeply to execute"):
            travel_db.run("1 + 1", engine="interpret")


# -- nothing but a ReproError escapes Database.run ----------------------------

#: Atoms of every carrier, and paths bound by :data:`_FROM`.
_ATOMS = [
    "set(1,2)", "bag(1,2)", "list(1,2)", "'ab'", "1", "2.5", "true",
    "struct(a: 1)", "c.name", "c.hotels", "h.rooms", "r.price",
]
_BINOPS = [
    "union", "intersect", "except", "+", "-", "*", "/", "div", "mod",
    "<", "=", "!=", "in", "and", "or",
]
_BUILTINS = [
    "count", "sum", "avg", "max", "min", "abs", "length", "element",
    "flatten", "listtoset", "first", "last",
]
_FROM = "from c in Cities, h in c.hotels, r in h.rooms"


def _expressions(depth):
    """OQL expressions up to ``depth`` operators deep over :data:`_ATOMS`."""
    atoms = st.sampled_from(_ATOMS)
    if depth == 0:
        return atoms
    inner = _expressions(depth - 1)
    return st.one_of(
        atoms,
        st.tuples(inner, st.sampled_from(_BINOPS), inner).map(lambda p: f"({p[0]} {p[1]} {p[2]})"),
        st.tuples(st.sampled_from(_BUILTINS), inner).map(lambda p: f"{p[0]}({p[1]})"),
    )


@functools.lru_cache(maxsize=1)
def _travel():
    from repro.db import demo_travel_database

    return demo_travel_database(num_cities=3, seed=1)


def _outcome(oql, engine, typecheck):
    """The query's value, or the :class:`ReproError` class it raised;
    any other exception propagates and fails the test."""
    try:
        return True, _travel().run(oql, engine=engine, typecheck=typecheck)
    except ReproError as err:
        return False, type(err)


@settings(max_examples=150, deadline=None)
@given(_expressions(2))
def test_nothing_but_a_repro_error_escapes_run(expression):
    for oql in (
        f"select distinct {expression} {_FROM}",
        f"select distinct r.price {_FROM} where {expression}",
    ):
        for typecheck in (False, True):
            algebra = _outcome(oql, "auto", typecheck)
            reference = _outcome(oql, "interpret", typecheck)
            if algebra[0] and reference[0]:
                assert algebra[1] == reference[1], oql


# -- round trip on random structured terms -----------------------------------

_names = st.sampled_from(["x", "y", "z", "Xs", "Ys"])


def _terms(monoids):
    from repro.calculus import (
    add,
    comp,
    const,
    eq,
    filt,
    gen,
    if_,
    lt,
    not_,
    proj,
    rec,
    tup,
    var,
)

    base = st.one_of(
        st.integers(-5, 5).map(const),
        st.booleans().map(const),
        st.sampled_from(["a", "bc"]).map(const),
        _names.map(var),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda p: add(p[0], p[1])),
            st.tuples(children, children).map(lambda p: eq(p[0], p[1])),
            st.tuples(children, children).map(lambda p: lt(p[0], p[1])),
            st.tuples(children, children).map(lambda p: tup(p[0], p[1])),
            # projection from variables only: "-1.f" is lexically a
            # negation of a projection, a degenerate form real terms avoid
            _names.map(lambda n: proj(var(n), "f")),
            children.map(not_),
            st.tuples(children, children, children).map(
                lambda p: if_(p[0], p[1], p[2])
            ),
            st.tuples(children, children).map(lambda p: rec(a=p[0], b=p[1])),
            st.tuples(_names, st.sampled_from(monoids), children, children).map(
                lambda p: comp(p[1], p[3], [gen(p[0], var("Src")), filt(eq(var(p[0]), p[2]))])
            ),
        )

    return st.recursive(base, extend, max_leaves=8)


@pytest.fixture
def user_monoid(register_monoid):
    return register_monoid(
        PrimitiveMonoid("gcd", 0, math.gcd, commutative=True, idempotent=True)
    )


@pytest.mark.usefixtures("user_monoid")
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pretty_parse_round_trip(data):
    """Every registered monoid: Table 1, ``csum`` and ``cell``, and one
    registered by this test."""
    monoids = default_registry().names()
    assert {"set", "bag", "list", "sum", "csum", "cell", "gcd"} <= set(monoids)
    term = data.draw(_terms(monoids))
    text = pretty(term)
    reparsed = parse_calculus(text)
    assert alpha_equal(reparsed, term), text
