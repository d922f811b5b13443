"""Fuzzing the two parsers.

1. Garbage in, *clean errors* out: random text must either parse or
   raise the dedicated syntax error — never an internal exception.
2. Printer/parser round trip on random calculus terms: anything the
   pretty printer emits must parse back alpha-equal.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.calculus import alpha_equal, pretty
from repro.calculus.parser import parse_calculus
from repro.errors import CalculusError, OQLSyntaxError
from repro.oql import parse as parse_oql

_OQL_FRAGMENTS = [
    "select", "from", "where", "in", "distinct", "exists", "(", ")", ",",
    "c", "Cities", "h", ".", "name", "=", "'x'", "1", "+", "and", "struct",
    "order", "by", "group", ":", "sum", "*", "sort",
]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_OQL_FRAGMENTS), max_size=12))
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
def test_calculus_parser_never_crashes(fragments):
    source = " ".join(fragments)
    try:
        parse_calculus(source)
    except CalculusError:
        pass


# -- round trip on random structured terms -----------------------------------

_names = st.sampled_from(["x", "y", "z", "Xs", "Ys"])


def _terms():
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
            st.tuples(_names, st.sampled_from(["set", "bag", "list", "sum"]),
                      children, children).map(
                lambda p: comp(p[1], p[3], [gen(p[0], var("Src")), filt(eq(var(p[0]), p[2]))])
            ),
        )

    return st.recursive(base, extend, max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(term=_terms())
def test_pretty_parse_round_trip(term):
    text = pretty(term)
    reparsed = parse_calculus(text)
    assert alpha_equal(reparsed, term), text
