"""One witness per Table 3 rule: the rule fires and preserves semantics."""

import pytest

from repro.calculus import (
    add,
    and_,
    apply,
    bind,
    comp,
    const,
    deref,
    eq,
    filt,
    gen,
    gt,
    if_,
    index,
    lam,
    let,
    lt,
    merge,
    new,
    not_,
    proj,
    rec,
    tup,
    unit,
    var,
    zero,
)
from repro.calculus.ast import Empty, Merge
from repro.eval import evaluate
from repro.analysis.dataflow import use_count
from repro.normalize import RULES_BY_NAME, normalize
from repro.values import Bag


def _fires(rule_name, term):
    return RULES_BY_NAME[rule_name].apply(term)


class TestBeta:
    def test_fires(self):
        term = apply(lam("x", add(var("x"), const(1))), const(2))
        out = _fires("N1-beta", term)
        assert out == add(const(2), const(1))

    def test_semantics(self):
        term = apply(lam("x", add(var("x"), var("x"))), const(21))
        assert evaluate(normalize(term)) == evaluate(term) == 42

    def test_effectful_arg_duplicated_blocked(self):
        term = apply(lam("x", tup(var("x"), var("x"))), new(const(1)))
        assert _fires("N1-beta", term) is None

    def test_effectful_arg_used_once_allowed(self):
        term = apply(lam("x", deref(var("x"))), new(const(1)))
        assert _fires("N1-beta", term) is not None


class TestLetInline:
    def test_fires(self):
        term = let("x", const(2), add(var("x"), const(1)))
        assert _fires("N1-let", term) == add(const(2), const(1))

    def test_effect_guard(self):
        term = let("x", new(const(1)), const(0))  # x unused: would drop the effect
        assert _fires("N1-let", term) is None


class TestProjections:
    def test_record_projection(self):
        term = proj(rec(a=const(1), b=const(2)), "a")
        assert _fires("N2-proj", term) == const(1)

    def test_record_projection_effect_guard(self):
        term = proj(rec(a=const(1), b=new(const(0))), "a")
        assert _fires("N2-proj", term) is None

    def test_tuple_projection(self):
        term = index(tup(const("a"), const("b")), const(1))
        assert _fires("N2-tuple", term) == const("b")

    def test_tuple_projection_out_of_range_not_rewritten(self):
        term = index(tup(const("a"),), const(5))
        assert _fires("N2-tuple", term) is None


class TestBindingElimination:
    def test_fires(self):
        term = comp("sum", var("y"), [gen("x", const((1, 2))), bind("y", add(var("x"), const(1)))])
        out = _fires("N3-bind", term)
        assert out == comp("sum", add(var("x"), const(1)), [gen("x", const((1, 2)))])

    def test_semantics(self):
        term = comp("set", var("y"), [gen("x", const((1, 2))), bind("y", add(var("x"), var("x")))])
        assert evaluate(normalize(term)) == evaluate(term) == frozenset({2, 4})

    def test_effectful_binding_used_twice_blocked(self):
        term = comp(
            "some",
            eq(var("y"), var("y")),
            [bind("y", new(const(1)))],
        )
        assert _fires("N3-bind", term) is None


class TestPredicateRules:
    def test_true_removed(self):
        term = comp("set", var("x"), [gen("x", const((1,))), filt(const(True))])
        out = _fires("N4-true", term)
        assert out == comp("set", var("x"), [gen("x", const((1,)))])

    def test_false_collapses_to_zero(self):
        term = comp("set", var("x"), [gen("x", const((1,))), filt(const(False))])
        out = _fires("N5-false", term)
        assert isinstance(out, Empty)
        assert evaluate(out) == frozenset()

    def test_false_with_effects_blocked(self):
        term = comp(
            "set",
            var("x"),
            [bind("x", new(const(1))), filt(const(False))],
        )
        assert _fires("N5-false", term) is None

    def test_conjunction_split(self):
        term = comp(
            "set",
            var("x"),
            [gen("x", const((1,))), filt(and_(gt(var("x"), const(0)), lt(var("x"), const(9))))],
        )
        out = _fires("N12-and", term)
        assert len(out.qualifiers) == 3


class TestGeneratorRules:
    def test_empty_generator(self):
        term = comp("set", var("x"), [gen("x", zero("set"))])
        out = _fires("N6-empty", term)
        assert isinstance(out, Empty)

    def test_singleton_generator(self):
        term = comp("sum", add(var("x"), const(1)), [gen("x", unit("list", const(5)))])
        out = _fires("N7-unit", term)
        assert out == comp("sum", add(const(5), const(1)), [])

    def test_merge_split(self):
        term = comp("set", var("x"), [gen("x", merge("set", var("A"), var("B")))])
        out = _fires("N8-merge", term)
        assert isinstance(out, Merge)
        bindings = {"A": frozenset({1}), "B": frozenset({2})}
        assert evaluate(out, bindings) == evaluate(term, bindings) == frozenset({1, 2})

    def test_merge_split_noncommutative_with_other_generators_blocked(self):
        term = comp(
            "list",
            var("x"),
            [gen("y", var("Ys")), gen("x", merge("list", var("A"), var("B")))],
        )
        assert _fires("N8-merge", term) is None

    def test_merge_split_list_single_generator_allowed(self):
        term = comp("list", var("x"), [gen("x", merge("list", var("A"), var("B")))])
        out = _fires("N8-merge", term)
        bindings = {"A": (1, 2), "B": (3,)}
        assert evaluate(out, bindings) == evaluate(term, bindings) == (1, 2, 3)

    def test_constant_literal_beside_a_generator_is_one_constant(self):
        literal = merge("set", unit("set", const("b")),
                        merge("set", unit("set", const("a")), zero("set")))
        term = comp("set", tup(var("y"), var("x")), [gen("y", var("Ys")), gen("x", literal)])
        out = _fires("N8c-literal", term)
        assert out == comp("set", tup(var("y"), var("x")),
                           [gen("y", var("Ys")), gen("x", const(frozenset({"a", "b"})))])
        assert str(out.qualifiers[1].source) == "frozenset({'a', 'b'})"
        bindings = {"Ys": frozenset({1, 2})}
        assert evaluate(out, bindings) == evaluate(term, bindings)

    @pytest.mark.parametrize("term", [
        # alone, the literal still splits (N8): `x in set(...)` becomes `=` / `or`
        comp("some", eq(var("x"), var("k")),
             [gen("x", merge("set", unit("set", const(1)), unit("set", const(2))))]),
        # one element: N7 substitutes it
        comp("set", var("x"), [gen("y", var("Ys")),
                               gen("x", merge("set", unit("set", const(1)), zero("set")))]),
        # an element that is no constant
        comp("set", var("x"), [gen("y", var("Ys")),
                               gen("x", merge("set", unit("set", var("y")), unit("set", const(1))))]),
    ], ids=["alone", "one-element", "not-constant"])
    def test_other_merges_are_not_folded(self, term):
        assert _fires("N8c-literal", term) is None

    def test_conditional_generator(self):
        term = comp(
            "set",
            var("x"),
            [gen("x", if_(var("p"), var("A"), var("B")))],
        )
        out = _fires("N10-if-gen", term)
        assert isinstance(out, Merge)
        for p in (True, False):
            bindings = {"p": p, "A": frozenset({1}), "B": frozenset({2})}
            assert evaluate(out, bindings) == evaluate(term, bindings)


class TestFlattening:
    def test_n9_fires_and_preserves_semantics(self):
        inner = comp("set", add(var("y"), const(10)), [gen("y", var("Ys"))])
        outer = comp("set", var("x"), [gen("x", inner)])
        out = _fires("N9-flatten", outer)
        assert out is not None
        bindings = {"Ys": frozenset({1, 2})}
        assert evaluate(normalize(outer), bindings) == evaluate(outer, bindings)

    def test_n9_respects_ci_condition(self):
        """bag over set must NOT flatten (duplicates would appear)."""
        inner = comp("set", var("y"), [gen("y", var("Ys"))])
        outer = comp("bag", var("x"), [gen("x", inner)])
        assert _fires("N9-flatten", outer) is None
        # and the full normalizer must preserve semantics
        bindings = {"Ys": (1, 1, 2)}
        assert evaluate(normalize(outer), bindings) == evaluate(outer, bindings) == Bag([1, 2])

    def test_n9_bag_over_bag_allowed(self):
        inner = comp("bag", var("y"), [gen("y", var("Ys"))])
        outer = comp("bag", var("x"), [gen("x", inner)])
        assert _fires("N9-flatten", outer) is not None
        bindings = {"Ys": (1, 1)}
        assert evaluate(normalize(outer), bindings) == evaluate(outer, bindings)

    def test_n9_avoids_capture(self):
        # Inner binder named like an outer variable: must be renamed.
        inner = comp("set", tup(var("x"), var("y")), [gen("x", var("Ys"))])
        outer = comp(
            "set", tup(var("x"), var("v")), [gen("x", var("Xs")), gen("v", inner)]
        )
        bindings = {"Xs": frozenset({1}), "Ys": frozenset({7}), "y": 99}
        assert evaluate(normalize(outer), bindings) == evaluate(outer, bindings)


class TestExistentialFusion:
    def test_fires_for_idempotent_outer(self):
        pred = comp("some", eq(var("y"), const(1)), [gen("y", var("Ys"))])
        outer = comp("set", var("x"), [gen("x", var("Xs")), filt(pred)])
        out = _fires("N11-exists", outer)
        assert out is not None
        bindings = {"Xs": frozenset({5}), "Ys": (1, 1, 2)}
        assert evaluate(out, bindings) == evaluate(outer, bindings) == frozenset({5})

    def test_blocked_for_bag_output(self):
        pred = comp("some", eq(var("y"), const(1)), [gen("y", var("Ys"))])
        outer = comp("bag", var("x"), [gen("x", var("Xs")), filt(pred)])
        assert _fires("N11-exists", outer) is None
        # semantics stay correct through full normalization anyway
        bindings = {"Xs": (5,), "Ys": (1, 1)}
        assert evaluate(normalize(outer), bindings) == evaluate(outer, bindings)


class TestConstantFoldingAndZero:
    def test_fold_comparison(self):
        assert _fires("N15-const", lt(const(1), const(2))) == const(True)

    def test_fold_boolean_identities(self):
        assert _fires("N15-const", and_(const(True), var("p"))) == var("p")
        assert _fires("N15-const", and_(var("p"), const(False))) == const(False)

    def test_fold_if(self):
        assert _fires("N15-const", if_(const(True), var("a"), var("b"))) == var("a")

    def test_fold_not(self):
        assert _fires("N15-const", not_(const(True))) == const(False)

    def test_zero_merge_identity(self):
        term = merge("set", zero("set"), var("A"))
        assert _fires("N14-zero", term) == var("A")
        term = merge("set", var("A"), zero("set"))
        assert _fires("N14-zero", term) == var("A")


class TestCountOccurrences:
    """The duplication guards' count: ``analysis.dataflow.use_count``."""

    def test_counts_free_occurrences(self):
        term = add(var("x"), var("x"))
        assert use_count(term, "x") == 2

    def test_ignores_shadowed(self):
        term = apply(lam("x", var("x")), var("x"))
        assert use_count(term, "x") == 1


# -- Table 3 as one table: a witness per rule, evaluated before and after ----------

WITNESSES = {
    "N1-beta": apply(lam("x", add(var("x"), const(1))), const(2)),
    "N2-proj": proj(rec(a=const(1), b=const(2)), "a"),
    "N3-bind": comp("sum", var("y"), [gen("x", var("Xs")), bind("y", var("x"))]),
    "N4-true": comp("set", var("x"), [gen("x", var("Xs")), filt(const(True))]),
    "N5-false": comp("set", var("x"), [gen("x", var("Xs")), filt(const(False))]),
    "N6-empty": comp("set", var("x"), [gen("x", zero("set"))]),
    "N7-unit": comp("sum", var("x"), [gen("x", unit("list", const(5)))]),
    "N8-merge": comp("set", var("x"), [gen("x", merge("set", var("A"), var("B")))]),
    "N8c-literal": comp("bag", add(var("x"), var("y")), [
        gen("x", var("Xs")), gen("y", merge("list", unit("list", const(1)), unit("list", const(2)))),
    ]),
    "N9-flatten": comp(
        "set", var("x"), [gen("x", comp("set", var("y"), [gen("y", var("Ys"))]))]
    ),
    "N10-if-gen": comp("set", var("x"), [gen("x", if_(var("p"), var("A"), var("B")))]),
    "N11-exists": comp("set", var("x"), [
        gen("x", var("Xs")), filt(comp("some", eq(var("y"), const(1)), [gen("y", var("Ys"))]))
    ]),
    "N12-and": comp("set", var("x"), [
        gen("x", var("Xs")), filt(and_(gt(var("x"), const(0)), lt(var("x"), const(9))))
    ]),
    "N14-zero": merge("set", zero("set"), var("A")),
    "N15-const": lt(const(1), const(2)),
}

#: values for the witnesses' free variables
WORLD = {
    "Xs": frozenset({-1, 1, 5, 12}), "Ys": frozenset({1, 2}),
    "A": frozenset({1, 2}), "B": frozenset({2, 3}), "p": False,
}


@pytest.mark.parametrize("rule_name", sorted(WITNESSES))
def test_rule_fires_on_witness(rule_name):
    witness = WITNESSES[rule_name]
    result = _fires(rule_name, witness)
    assert result is not None and result != witness
    assert evaluate(result, WORLD) == evaluate(witness, WORLD)
