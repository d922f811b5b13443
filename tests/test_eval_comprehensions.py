"""Comprehension semantics — including the paper's section 2 examples."""

import pytest

from repro.calculus import (
    add,
    assign,
    bind,
    comp,
    const,
    deref,
    eq,
    filt,
    gen,
    hom,
    le,
    merge,
    mul,
    new,
    tup,
    unit,
    var,
    zero,
)
from repro.calculus.ast import Comprehension, Lambda, MonoidRef
from repro.errors import EvaluationError, WellFormednessError
from repro.eval import evaluate
from repro.normalize import normalize
from repro.values import Bag, OrderedSet


class TestPaperSection2Examples:
    def test_list_bag_join_into_set(self):
        """set{ (a,b) | a <- [1,2,3], b <- {{4,5}} } from the paper."""
        term = comp(
            "set",
            tup(var("a"), var("b")),
            [gen("a", const((1, 2, 3))), gen("b", const(Bag([4, 5])))],
        )
        assert evaluate(term) == frozenset(
            {(1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)}
        )

    def test_sum_with_predicate(self):
        """sum{ a | a <- [1,2,3], a <= 2 } = 3."""
        term = comp("sum", var("a"), [gen("a", const((1, 2, 3))), le(var("a"), const(2))])
        assert evaluate(term) == 3

    def test_list_bag_join_smaller(self):
        """set{ (x,y) | x <- [1,2], y <- {{3,4,3}} } dedups."""
        term = comp(
            "set",
            tup(var("x"), var("y")),
            [gen("x", const((1, 2))), gen("y", const(Bag([3, 4, 3])))],
        )
        assert evaluate(term) == frozenset({(1, 3), (1, 4), (2, 3), (2, 4)})

    @pytest.mark.parametrize("size", [10, 100, 1000])
    def test_equi_join_of_a_list_and_a_bag(self, size):
        term = comp(
            "set",
            tup(var("a"), var("b")),
            [gen("a", var("Xs")), gen("b", var("Ys")), eq(var("a"), var("b"))],
        )
        data = {"Xs": tuple(range(size)), "Ys": Bag(range(size))}
        assert evaluate(term, data) == frozenset((i, i) for i in range(size))

    #: the section 2 examples, with the value the paper prints for each
    EXAMPLES = {
        "list-bag-join": (
            comp("set", tup(var("a"), var("b")),
                 [gen("a", const((1, 2, 3))), gen("b", const(Bag([4, 5])))]),
            frozenset({(1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)}),
        ),
        "sum-with-predicate": (
            comp("sum", var("a"), [gen("a", const((1, 2, 3))), le(var("a"), const(2))]),
            3,
        ),
        "oset-merge": (
            merge("oset", const(OrderedSet([2, 5, 3, 1])), const(OrderedSet([3, 2, 6]))),
            OrderedSet([2, 5, 3, 1, 6]),
        ),
        "list-from-units": (
            merge("list", unit("list", const(1)),
                  merge("list", unit("list", const(2)), unit("list", const(3)))),
            (1, 2, 3),
        ),
        "running-sums": (
            comp("list", deref(var("x")),
                 [bind("x", new(const(0))), gen("e", const((1, 2, 3, 4))),
                  assign(var("x"), add(deref(var("x")), var("e")))]),
            (1, 3, 6, 10),
        ),
    }

    @pytest.mark.parametrize("name", list(EXAMPLES))
    def test_in_normal_form(self, name):
        term, value = self.EXAMPLES[name]
        assert evaluate(term) == value == evaluate(normalize(term))


class TestOutputMonoids:
    def test_bag_output_keeps_duplicates(self):
        term = comp("bag", const(1), [gen("x", const((1, 2, 3)))])
        assert evaluate(term) == Bag([1, 1, 1])

    def test_list_output_order(self):
        term = comp("list", mul(var("x"), const(2)), [gen("x", const((3, 1, 2)))])
        assert evaluate(term) == (6, 2, 4)

    def test_oset_output(self):
        term = comp("oset", var("x"), [gen("x", const((2, 1, 2, 3)))])
        assert evaluate(term) == OrderedSet([2, 1, 3])

    def test_string_output(self):
        term = comp("string", var("c"), [gen("c", const("abc"))])
        assert evaluate(term) == "abc"

    def test_prod_output(self):
        term = comp("prod", var("x"), [gen("x", const((2, 3, 4)))])
        assert evaluate(term) == 24

    def test_max_min(self):
        xs = const((5, 1, 9))
        assert evaluate(comp("max", var("x"), [gen("x", xs)])) == 9
        assert evaluate(comp("min", var("x"), [gen("x", xs)])) == 1

    def test_empty_aggregates(self):
        assert evaluate(comp("sum", var("x"), [gen("x", const(()))])) == 0
        assert evaluate(comp("max", var("x"), [gen("x", const(()))])) is None
        assert evaluate(comp("some", var("x"), [gen("x", const(()))])) is False
        assert evaluate(comp("all", var("x"), [gen("x", const(()))])) is True

    def test_sorted_comprehension(self):
        ref = MonoidRef("sorted", key=Lambda("x", var("x")))
        term = Comprehension(ref, var("x"), (gen("x", const((3, 1, 2, 1))),))
        assert evaluate(term) == (1, 2, 3)

    def test_sortedbag_comprehension(self):
        ref = MonoidRef("sortedbag", key=Lambda("x", var("x")))
        term = Comprehension(ref, var("x"), (gen("x", const((3, 1, 2, 1))),))
        assert evaluate(term) == (1, 1, 2, 3)


class TestQualifiers:
    def test_binding_qualifier(self):
        term = comp("sum", var("y"), [gen("x", const((1, 2))), bind("y", mul(var("x"), var("x")))])
        assert evaluate(term) == 5

    def test_predicate_qualifier_must_be_boolean(self):
        term = comp("set", var("x"), [gen("x", const((1,))), filt(const(1))])
        with pytest.raises(EvaluationError):
            evaluate(term)

    def test_dependent_generators(self):
        data = ((1, (10, 11)), (2, (20,)))
        from repro.calculus import index

        term = comp(
            "list",
            var("y"),
            [gen("p", const(data)), gen("y", index(var("p"), const(1)))],
        )
        assert evaluate(term) == (10, 11, 20)

    def test_generator_over_string(self):
        term = comp("list", var("c"), [gen("c", const("ab"))])
        assert evaluate(term) == ("a", "b")

    def test_generator_over_non_collection_fails(self):
        term = comp("set", var("x"), [gen("x", const(3))])
        with pytest.raises(EvaluationError):
            evaluate(term)

    def test_indexed_generator_over_list(self):
        term = comp(
            "list", tup(var("i"), var("a")), [gen("a", const(("x", "y")), at="i")]
        )
        assert evaluate(term) == ((0, "x"), (1, "y"))

    def test_indexed_generator_over_set_rejected(self):
        term = comp(
            "list", var("a"), [gen("a", const(frozenset({1})), at="i")]
        )
        with pytest.raises(EvaluationError):
            evaluate(term)

    def test_set_iteration_is_deterministic(self):
        term = comp("list", var("x"), [gen("x", const(frozenset({3, 1, 2})))])
        assert evaluate(term) == (1, 2, 3)


class TestZeroUnitMerge:
    def test_zero(self):
        assert evaluate(zero("set")) == frozenset()
        assert evaluate(zero("sum")) == 0

    def test_unit(self):
        assert evaluate(unit("bag", const(3))) == Bag([3])

    def test_merge(self):
        term = merge("list", const((1,)), const((2,)))
        assert evaluate(term) == (1, 2)

    def test_nested_comprehension_in_head(self):
        inner = comp("sum", var("y"), [gen("y", var("x"))])
        term = comp("list", inner, [gen("x", const(((1, 2), (3,))))])
        assert evaluate(term) == (3, 3)


class TestHomTerm:
    def test_hom_evaluation(self):
        term = hom("list", "sum", "x", var("x"), const((1, 2, 3)))
        assert evaluate(term) == 6

    def test_hom_to_collection(self):
        term = hom("list", "set", "x", unit("set", var("x")), const((1, 1, 2)))
        assert evaluate(term) == frozenset({1, 2})

    def test_hom_checks_well_formedness_at_runtime(self):
        term = hom("set", "sum", "x", const(1), const(frozenset({1, 2})))
        with pytest.raises(WellFormednessError):
            evaluate(term)


class TestComprehensionHomEquivalence:
    def test_comprehension_equals_hom_desugaring(self):
        """M{ e | v <- u } == hom[N -> M](\\v. unit(e))(u)."""
        data = const((1, 2, 2, 3))
        comprehension = comp("set", mul(var("v"), const(10)), [gen("v", data)])
        desugared = hom("list", "set", "v", unit("set", mul(var("v"), const(10))), data)
        assert evaluate(comprehension) == evaluate(desugared)
