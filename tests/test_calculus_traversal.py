"""Free variables, substitution (capture avoidance), alpha equality,
and the shape table all of them are folds over."""

import dataclasses
import glob

import pytest
from hypothesis import given, settings

from repro.analysis.dataflow import alpha_rename, def_use
from repro.cache.keys import canonical_term
from repro.calculus import (
    alpha_equal,
    apply,
    assign,
    bind,
    call,
    children,
    comp,
    const,
    deref,
    eq,
    free_vars,
    fresh_var,
    gen,
    has_effects,
    hom,
    if_,
    index,
    lam,
    let,
    merge,
    method,
    mref,
    neg,
    new,
    proj,
    rec,
    substitute,
    substitute_many,
    subterms,
    term_size,
    tup,
    unit,
    update,
    var,
    vec_ref,
    zero,
)
from repro.calculus import ast
from repro.calculus.ast import Comprehension, Generator, Lambda, Term, Var
from repro.calculus.shape import SHAPES
from repro.errors import CalculusError
from repro.lint.cli import split_queries
from repro.oql import translate_oql
from tests.test_normalize_property import comprehensions


class TestFreeVars:
    def test_const_has_none(self):
        assert free_vars(const(1)) == frozenset()

    def test_var_is_free(self):
        assert free_vars(var("x")) == {"x"}

    def test_lambda_binds(self):
        assert free_vars(lam("x", var("x"))) == frozenset()
        assert free_vars(lam("x", var("y"))) == {"y"}

    def test_let_binds_body_not_value(self):
        term = let("x", var("x"), var("x"))
        assert free_vars(term) == {"x"}  # the value's x is free

    def test_comprehension_generator_scoping(self):
        term = comp("set", var("x"), [gen("x", var("db"))])
        assert free_vars(term) == {"db"}

    def test_generator_source_sees_earlier_binders_only(self):
        term = comp(
            "set",
            var("y"),
            [gen("x", var("db")), gen("y", proj(var("x"), "items"))],
        )
        assert free_vars(term) == {"db"}

    def test_bind_qualifier_scoping(self):
        term = comp("set", var("v"), [bind("v", var("u"))])
        assert free_vars(term) == {"u"}

    def test_index_var_is_bound(self):
        term = comp("set", tup(var("a"), var("i")), [gen("a", var("x"), at="i")])
        assert free_vars(term) == {"x"}

    def test_sorted_key_counts(self):
        from repro.calculus.ast import MonoidRef

        ref = MonoidRef("sorted", key=lam("p", proj(var("p"), var_name := "k")))
        term = Comprehension(ref, var("x"), (Generator("x", var("db")),))
        assert free_vars(term) == {"db"}


class TestSubstitution:
    def test_simple(self):
        assert substitute(var("x"), "x", const(1)) == const(1)

    def test_shadowed_by_lambda(self):
        term = lam("x", var("x"))
        assert substitute(term, "x", const(1)) == term

    def test_capture_avoidance_in_lambda(self):
        # (\y. x)[y/x] must NOT become \y. y
        term = lam("y", var("x"))
        result = substitute(term, "x", var("y"))
        assert isinstance(result, Lambda)
        assert result.body == var("y")
        assert result.param != "y"

    def test_capture_avoidance_in_comprehension(self):
        # set{ x | y <- db }[y/x]: the generator's y must be renamed
        term = comp("set", var("x"), [gen("y", var("db"))])
        result = substitute(term, "x", var("y"))
        assert isinstance(result, Comprehension)
        generator = result.qualifiers[0]
        assert generator.var != "y"
        assert result.head == var("y")

    def test_substitution_into_generator_source(self):
        term = comp("set", var("x"), [gen("x", var("src"))])
        result = substitute(term, "src", var("db"))
        assert result.qualifiers[0].source == var("db")

    def test_generator_var_shadows_in_suffix(self):
        term = comp("set", var("x"), [gen("x", var("x"))])
        result = substitute(term, "x", const(1))
        # the source x was free, the head x was bound
        assert result.qualifiers[0].source == const(1)
        assert result.head == Var(result.qualifiers[0].var)

    def test_substitute_many_is_simultaneous(self):
        term = tup(var("a"), var("b"))
        result = substitute_many(term, {"a": var("b"), "b": var("a")})
        assert result == tup(var("b"), var("a"))

    def test_no_op_mapping(self):
        term = var("x")
        assert substitute_many(term, {}) is term


class TestAlphaEquality:
    def test_alpha_equal_lambdas(self):
        assert alpha_equal(lam("x", var("x")), lam("y", var("y")))

    def test_alpha_unequal_free_vars(self):
        assert not alpha_equal(lam("x", var("a")), lam("x", var("b")))

    def test_alpha_equal_comprehensions(self):
        a = comp("set", var("x"), [gen("x", var("db")), eq(var("x"), const(1))])
        b = comp("set", var("y"), [gen("y", var("db")), eq(var("y"), const(1))])
        assert alpha_equal(a, b)

    def test_alpha_distinguishes_monoids(self):
        a = comp("set", var("x"), [gen("x", var("db"))])
        b = comp("bag", var("x"), [gen("x", var("db"))])
        assert not alpha_equal(a, b)

    def test_alpha_distinguishes_vector_element_monoids(self):
        assert not alpha_equal(zero(vec_ref("sum", var("n"))), zero(vec_ref("max", var("n"))))
        assert alpha_equal(zero(vec_ref("sum", var("n"))), zero(vec_ref("sum", var("n"))))

    def test_alpha_distinguishes_structure(self):
        assert not alpha_equal(const(1), var("x"))
        assert not alpha_equal(eq(var("x"), const(1)), eq(const(1), var("x")))


class TestStructuralHelpers:
    def test_subterms_preorder(self):
        term = eq(var("x"), const(1))
        nodes = list(subterms(term))
        assert nodes[0] is term
        assert var("x") in nodes and const(1) in nodes

    def test_term_size(self):
        assert term_size(const(1)) == 1
        assert term_size(eq(var("x"), const(1))) == 3

    def test_has_effects_detects_new(self):
        assert has_effects(new(const(1)))
        assert has_effects(comp("set", var("x"), [bind("x", new(const(1)))]))
        assert not has_effects(comp("set", var("x"), [gen("x", var("db"))]))

    def test_fresh_var_unique_and_marked(self):
        a, b = fresh_var("x"), fresh_var("x")
        assert a != b
        assert "~" in a


# ---------------------------------------------------------------------------
# The shape table
# ---------------------------------------------------------------------------

_SORTED = mref("sorted", lam("k", proj(var("k"), "name")))
_VEC = vec_ref(_SORTED, var("n"))

_COMPREHENSION = comp(
    _SORTED,
    tup(var("a"), var("i"), var("b")),
    [gen("a", var("x"), at="i"), eq(var("a"), var("i")), bind("b", var("a"))],
)

#: One node of every class, with monoid terms and binders where it can have them.
SAMPLES = [
    const(1),
    var("x"),
    lam("x", var("x")),
    apply(var("f"), var("x")),
    let("x", var("a"), var("x")),
    rec(a=var("x"), b=const(2)),
    tup(var("x"), var("y")),
    proj(var("x"), "a"),
    index(var("x"), var("i")),
    eq(var("x"), var("y")),
    neg(var("x")),
    if_(var("c"), var("x"), var("y")),
    zero(_VEC),
    unit(_VEC, var("x"), at=var("i")),
    unit("set", var("x")),
    merge(_SORTED, var("x"), var("y")),
    _COMPREHENSION,
    hom(_SORTED, _VEC, "v", var("v"), var("x")),
    call("length", var("x"), var("y")),
    method(var("x"), "m", var("y")),
    new(var("x")),
    deref(var("x")),
    assign(var("x"), var("y")),
    update(var("x"), "f", "+=", var("y")),
]


def _term_classes():
    return [
        cls
        for cls in vars(ast).values()
        if isinstance(cls, type) and issubclass(cls, Term) and cls is not Term
    ]


class TestShapeTable:
    def test_every_term_class_has_an_entry(self):
        # A new node class without one fails here, not at run time.
        assert set(_term_classes()) == set(SHAPES)
        assert {type(node) for node in SAMPLES} == set(SHAPES)

    def test_unknown_class_is_a_calculus_error(self):
        with pytest.raises(CalculusError, match="unknown term"):
            children(object())

    @pytest.mark.parametrize("node", SAMPLES, ids=lambda n: type(n).__name__)
    def test_columns_line_up(self, node):
        shape = SHAPES[type(node)]
        kids = shape.kids(node)
        assert all(isinstance(kid, Term) for kid in kids)
        binders = shape.binders(node)
        if shape.scopes is None:
            assert binders == () and shape.sites is None
        else:
            scopes = shape.scopes(node)
            assert len(scopes) == len(kids)
            assert all(0 <= n <= len(binders) for n in scopes)
            assert len(shape.sites(node)) == len(binders) > 0

    @pytest.mark.parametrize("node", SAMPLES, ids=lambda n: type(n).__name__)
    def test_rebuilding_from_own_parts_is_the_identity(self, node):
        shape = SHAPES[type(node)]
        kids, binders = shape.kids(node), shape.binders(node)
        assert shape.build(node, kids, binders) == node
        assert shape.rebuild(node, kids, tuple(kids), binders, tuple(binders)) is node
        assert substitute(node, "nowhere", var("z")) is node

    @pytest.mark.parametrize("node", SAMPLES, ids=lambda n: type(n).__name__)
    def test_build_puts_each_part_back_in_its_place(self, node):
        shape = SHAPES[type(node)]
        kids = tuple(var(f"k{i}") for i in range(len(shape.kids(node))))
        binders = tuple(f"b{i}" for i in range(len(shape.binders(node))))
        rebuilt = shape.build(node, kids, binders)
        assert type(rebuilt) is type(node)
        assert shape.kids(rebuilt) == kids
        assert shape.binders(rebuilt) == binders
        # what is neither a child nor a binder (operators, field and
        # monoid names) is kept
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            if isinstance(value, str) and value not in shape.binders(node):
                assert getattr(rebuilt, field.name) == value
            if isinstance(value, ast.MonoidRef):
                assert getattr(rebuilt, field.name).name == value.name

    def test_monoid_terms_come_first_and_see_no_binder(self):
        node = _COMPREHENSION
        shape = SHAPES[Comprehension]
        assert shape.kids(node)[0] is _SORTED.key
        assert shape.binders(node) == ("a", "i", "b")
        assert shape.scopes(node) == (0, 0, 2, 2, 3)
        assert [kind for kind, _ in shape.sites(node)] == [
            "generator", "generator-index", "bind",
        ]


def _capture_cases():
    """kind -> (term with ``free`` free under a binder named ``y``, path to the binder)."""
    body = tup(var("y"), var("free"))
    return {
        "lambda": (lam("y", body), lambda t: t.param),
        "let": (let("y", var("a"), body), lambda t: t.var),
        "hom": (hom("list", "sum", "y", body, var("a")), lambda t: t.var),
        "generator": (comp("set", body, [gen("y", var("a"))]), lambda t: t.qualifiers[0].var),
        "generator-index": (
            comp("set", body, [gen("e", var("a"), at="y")]),
            lambda t: t.qualifiers[0].index_var,
        ),
        "bind": (comp("set", body, [bind("y", var("a"))]), lambda t: t.qualifiers[0].var),
    }


class TestCaptureAvoidance:
    @pytest.mark.parametrize("kind", list(_capture_cases()))
    def test_binder_is_renamed_when_the_replacement_mentions_it(self, kind):
        term, binder_of = _capture_cases()[kind]
        assert [b.kind for b in def_use(term).bindings if b.name == "y"] == [kind]
        result = substitute(term, "free", var("y"))
        assert binder_of(result) != "y"
        assert free_vars(result) == free_vars(term) - {"free"} | {"y"}
        assert alpha_equal(result, substitute(alpha_rename(term), "free", var("y")))

    @pytest.mark.parametrize("kind", list(_capture_cases()))
    def test_binder_shadows_the_substituted_name(self, kind):
        term, binder_of = _capture_cases()[kind]
        result = substitute(term, "y", const(7))
        assert binder_of(result) == "y"
        assert alpha_equal(result, term)


class TestStructuralProperties:
    @settings(max_examples=150, deadline=None)
    @given(term=comprehensions())
    def test_alpha_rename_is_an_alpha_variant(self, term):
        renamed = alpha_rename(term)
        assert free_vars(renamed) == free_vars(term)
        assert alpha_equal(term, renamed)
        assert canonical_term(term) == canonical_term(renamed)
        assert term_size(renamed) == term_size(term)

    @settings(max_examples=150, deadline=None)
    @given(term=comprehensions())
    def test_substitution_never_captures(self, term):
        # Replace an extent by a variable spelled like one of the term's
        # own binders: the result must not depend on binder spelling.
        binders = [b.name for b in def_use(term).bindings]
        for name in binders[:3]:
            result = substitute(term, "Xs", var(name))
            assert name in free_vars(result) or "Xs" not in free_vars(term)
            assert alpha_equal(result, substitute(alpha_rename(term), "Xs", var(name)))

    @settings(max_examples=100, deadline=None)
    @given(term=comprehensions())
    def test_def_use_accounts_for_every_variable(self, term):
        du = def_use(term)
        occurrences = sum(1 for sub in subterms(term) if isinstance(sub, Var))
        assert sum(b.uses for b in du.bindings) + sum(du.free.values()) == occurrences
        assert set(du.free) == free_vars(term)


#: ``[(name, kind, uses)]`` and free counts per statement, as the parent commit computed them.
EXAMPLE_DEF_USE = {
    "examples/lint_showcase.oql": [
        ([("c", "generator", 1), ("d", "generator", 1)], {"Cities": 2}),
        ([("c", "generator", 2), ("d", "generator", 2)], {"Cities": 2}),
        ([("c", "generator", 2)], {"Cities": 1}),
        ([("p", "lambda", 1), ("c", "generator", 2), ("r", "generator", 1)], {"Cities": 1}),
        ([("c", "generator", 3)], {"Cities": 1}),
        ([("c", "generator", 3), ("h", "generator", 0)], {"Cities": 1}),
    ],
    "examples/travel_queries.oql": [
        ([("c", "generator", 2)], {"Cities": 1}),
        ([("c", "generator", 2), ("h", "generator", 2)], {"Cities": 1}),
        ([("c", "generator", 1), ("h", "generator", 1), ("a", "generator", 1)], {"Cities": 1}),
        ([], {"Cities": 1}),
        ([("c", "generator", 2), ("w", "generator", 0)], {"Cities": 1}),
    ],
}


def test_def_use_of_the_shipped_examples_is_unchanged():
    assert sorted(glob.glob("examples/*.oql")) == sorted(EXAMPLE_DEF_USE)
    for path, expected in EXAMPLE_DEF_USE.items():
        with open(path) as handle:
            statements = [text for _, _, text in split_queries(handle.read())]
        got = []
        for text in statements:
            du = def_use(translate_oql(text))
            got.append(
                ([(b.name.split("~")[0], b.kind, b.uses) for b in du.bindings], du.free)
            )
        assert got == expected, path
