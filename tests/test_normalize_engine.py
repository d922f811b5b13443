"""The normalization engine: fixpoints, traces, canonical forms."""

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings

from repro.analysis.verifier import RewriteVerifier
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
    subterms,
    traversal,
    var,
)
from repro.calculus.shape import SHAPES
from repro.errors import ReproError
from repro.eval import evaluate
from repro.normalize import (
    DEFAULT_RULES,
    RULES_BY_NAME,
    Rule,
    is_canonical,
    is_canonical_comprehension,
    is_simple_path,
    normalize,
    normalize_with_trace,
)
from repro.normalize.rules import PLANNING_RULES
from repro.oql import translate_oql
from repro.values import Record

from tests.data.make_frontend_golden import corpus
from tests.test_normalize_property import comprehensions


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
        # Decided (ROADMAP item 5; the name is kept for the test floor):
        # a term inside a MonoidRef is a child like any other, so the
        # engine reduces a redex in a ``sorted[f]`` key and
        # ``is_canonical`` means "no rule applies at any node
        # ``children`` lists". The key function is the same function, so
        # the value is unchanged.
        key = lam("x", apply(lam("y", var("y")), proj(var("x"), "name")))
        term = comp(mref("sorted", key), var("c"), [gen("c", var("Cities"))])
        assert key in children(term)
        assert not is_canonical(term)
        result, trace = normalize_with_trace(term)
        assert result == comp(
            mref("sorted", lam("x", proj(var("x"), "name"))), var("c"), [gen("c", var("Cities"))]
        )
        assert trace.rules_fired() == ["N1-beta"]
        assert is_canonical(result)
        cities = tuple(Record({"name": name}) for name in ("Salem", "Bend", "Astoria"))
        value = evaluate(result, {"Cities": cities})
        assert value == evaluate(term, {"Cities": cities})
        assert [c["name"] for c in value] == ["Astoria", "Bend", "Salem"]


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


# -- the engine against trying every rule at every node ---------------------------


def reference_normalize(term, rules, verify):
    """The strategy the engine must not change, with no head index: try
    every rule, in priority order, at every node, outermost-leftmost."""
    verifier = RewriteVerifier() if verify else None
    steps = []

    def rewrite(node):
        for rule in rules:
            result = rule.apply(node)
            if result is not None:
                if verifier is not None:
                    verifier.check_rewrite(rule, node, result)
                steps.append((rule.name, node, result))
                return result
        shape = SHAPES[type(node)]
        kids = shape.kids(node)
        for i, kid in enumerate(kids):
            new = rewrite(kid)
            if new is not None:
                return shape.build(node, kids[:i] + (new,) + kids[i + 1:], shape.binders(node))
        return None

    while (rewritten := rewrite(term)) is not None:
        term = rewritten
    return term, steps


def _from_one(run):
    """Run with the fresh-name counter restarted, so two derivations of
    one term invent the same names."""
    with mock.patch.object(traversal, "_fresh_counter", itertools.count(1)):
        return run()


def _assert_same_derivation(term, rules, verify):
    want, want_steps = _from_one(lambda: reference_normalize(term, rules, verify))
    got, trace = _from_one(lambda: normalize_with_trace(term, rules, verify=verify))
    assert [(s.rule, s.before, s.after) for s in trace.steps] == want_steps
    assert got == want
    assert is_canonical(got, rules)


def _corpus_terms():
    terms = []
    for source in corpus():
        try:
            terms.append(translate_oql(source))
        except ReproError:  # the corpus keeps its syntax errors
            pass
    return terms


_RULE_SETS = pytest.mark.parametrize(
    "rules", [DEFAULT_RULES, PLANNING_RULES], ids=["default", "planning"]
)
_VERIFY = pytest.mark.parametrize("verify", [False, True], ids=["plain", "verified"])


class TestHeadDispatch:
    @_RULE_SETS
    @_VERIFY
    def test_corpus_traces_are_step_for_step_the_reference(self, rules, verify):
        terms = _corpus_terms()
        assert len(terms) > 80
        for term in terms:
            _assert_same_derivation(term, rules, verify)

    @_RULE_SETS
    @_VERIFY
    @settings(max_examples=40, deadline=None)
    @given(term=comprehensions())
    def test_generated_traces_are_step_for_step_the_reference(self, rules, verify, term):
        _assert_same_derivation(term, rules, verify)

    def test_every_builtin_rule_declares_its_heads(self):
        for rule in RULES_BY_NAME.values():
            assert rule.heads, rule.name
            assert all(cls in SHAPES for cls in rule.heads), rule.name

    def test_a_user_rule_without_heads_is_tried_on_every_node_class(self):
        seen = set()

        class Bump(Rule):
            """Fires on leaves, which no built-in rule has as a head."""

            name = "user-bump"

            def apply(self, term):
                seen.add(type(term))
                if term == const(7):
                    return const(8)
                if term == var("old"):
                    return var("new")
                return None

        assert Bump.heads is None
        key = lam("k", add(var("k"), const(7)))
        term = comp(mref("sorted", key), proj(var("old"), "a"), [gen("c", var("Cities"))])
        # verify pinned off: renaming a free variable is not a sound rewrite
        result, trace = normalize_with_trace(
            term, rules=DEFAULT_RULES + (Bump(),), verify=False
        )
        assert result == comp(
            mref("sorted", lam("k", add(var("k"), const(8)))),
            proj(var("new"), "a"),
            [gen("c", var("Cities"))],
        )
        assert trace.rules_fired() == ["user-bump", "user-bump"]
        assert {type(node) for node in subterms(term)} <= seen
