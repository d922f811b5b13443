"""The normalization engine: fixpoints, traces, canonical forms."""

import pytest

from repro.calculus import (
    add,
    alpha_equal,
    comp,
    const,
    eq,
    filt,
    gen,
    lam,
    apply,
    children,
    mref,
    proj,
    var,
)
from repro.eval import evaluate
from repro.normalize import (
    is_canonical,
    is_canonical_comprehension,
    is_simple_path,
    normalize,
    normalize_with_trace,
)
from repro.oql import translate_oql
from repro.values import Record


class TestEngine:
    def test_normal_form_is_fixed_point(self):
        term = translate_oql(
            "select distinct h.name from c in Cities, h in c.hotels "
            "where c.name = 'Portland'"
        )
        once = normalize(term)
        assert normalize(once) == once

    def test_trace_records_each_step(self):
        inner = comp("set", var("c"), [gen("c", var("Cities"))])
        outer = comp("set", proj(var("x"), "name"), [gen("x", inner)])
        result, trace = normalize_with_trace(outer)
        assert trace.rules_fired() == ["N9-flatten", "N3-bind"]
        assert trace.result == result
        assert len(trace) == 2

    def test_trace_render(self):
        term = apply(lam("x", var("x")), const(1))
        _, trace = normalize_with_trace(term)
        out = trace.render()
        assert "N1-beta" in out and "source:" in out

    def test_rule_counts(self):
        term = apply(lam("x", apply(lam("y", var("y")), var("x"))), const(1))
        _, trace = normalize_with_trace(term)
        assert trace.rule_counts()["N1-beta"] == 2

    def test_max_steps_guard(self):
        from repro.errors import NormalizationError

        term = apply(lam("x", var("x")), const(1))
        with pytest.raises(NormalizationError):
            normalize(term, max_steps=0)

    def test_rewrites_inside_all_positions(self):
        redex = apply(lam("x", var("x")), const(1))
        # in generator source, predicate, and head simultaneously
        term = comp(
            "set",
            add(redex, const(0)),
            [gen("v", const((1,))), filt(eq(redex, const(1)))],
        )
        result = normalize(term)
        assert is_canonical(result)
        assert evaluate(result) == frozenset({1})


    def test_monoid_key_terms_are_left_as_written(self):
        # Decision, pinned: the engine rewrites a node's ordinary
        # children, never the terms inside its MonoidRef (the shape
        # table's ``monoid_kids``), although ``children`` lists them. A
        # beta-redex in a ``sorted[f]`` key therefore survives and the
        # term still counts as canonical. Changing this changes normal
        # forms and ``normalize.rule_fires`` (ROADMAP item 5).
        key = lam("x", apply(lam("y", var("y")), proj(var("x"), "name")))
        term = comp(mref("sorted", key), var("c"), [gen("c", var("Cities"))])
        result, trace = normalize_with_trace(term)
        assert result == term
        assert len(trace) == 0
        assert is_canonical(term)
        assert key in children(term)


class TestPaperDerivation:
    """The paper's worked normalization: the Portland hotels query.

    bag{ h.name | h <- set{ h | c <- Cities, c.name="Portland",
                                 h <- c.hotels }, ... } nested shapes
    flatten into one canonical comprehension over simple paths.
    """

    def test_nested_from_clause_flattens(self):
        nested = translate_oql(
            "select distinct h.name from h in "
            "(select distinct h from c in Cities, h in c.hotels "
            " where c.name = 'Portland')"
        )
        flat, trace = normalize_with_trace(nested)
        assert is_canonical_comprehension(flat)
        assert "N9-flatten" in trace.rules_fired()
        # Same canonical form as writing the flat query directly.
        direct = normalize(
            translate_oql(
                "select distinct h.name from c in Cities, h in c.hotels "
                "where c.name = 'Portland'"
            )
        )
        assert alpha_equal(flat, direct)

    def test_flattened_query_evaluates_identically(self):
        cities = frozenset(
            {
                Record(
                    name="Portland",
                    hotels=frozenset({Record(name="A"), Record(name="B")}),
                ),
                Record(name="Salem", hotels=frozenset({Record(name="C")})),
            }
        )
        nested = translate_oql(
            "select distinct h.name from h in "
            "(select distinct h from c in Cities, h in c.hotels "
            " where c.name = 'Portland')"
        )
        flat = normalize(nested)
        env = {"Cities": cities}
        assert evaluate(flat, env) == evaluate(nested, env) == frozenset({"A", "B"})

    def test_exists_fusion_produces_join(self):
        term = translate_oql(
            "select distinct c.name from c in Cities "
            "where exists h in c.hotels : h.stars = 5"
        )
        flat, trace = normalize_with_trace(term)
        assert "N11-exists" in trace.rules_fired()
        assert is_canonical_comprehension(flat)
        # the fused form has two generators (a dependent join)
        from repro.calculus.ast import Generator

        generators = [q for q in flat.qualifiers if isinstance(q, Generator)]
        assert len(generators) == 2


class TestCanonicalPredicates:
    def test_simple_path(self):
        assert is_simple_path(var("x"))
        assert is_simple_path(proj(proj(var("c"), "a"), "b"))
        assert not is_simple_path(const(3))
        assert not is_simple_path(add(var("x"), const(1)))

    def test_is_canonical_comprehension(self):
        good = comp("set", var("x"), [gen("x", var("db"))])
        assert is_canonical_comprehension(good)
        nested = comp("set", var("x"), [gen("x", comp("set", var("y"), [gen("y", var("db"))]))])
        assert not is_canonical_comprehension(nested)
        assert not is_canonical_comprehension(const(3))

    def test_is_canonical_term(self):
        assert is_canonical(var("x"))
        assert not is_canonical(apply(lam("x", var("x")), const(1)))
