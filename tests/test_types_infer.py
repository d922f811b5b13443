"""Type inference and the static C/I well-formedness check."""

import pytest

from repro.calculus import (
    add,
    and_,
    apply,
    bind,
    call,
    comp,
    const,
    deref,
    div,
    filt,
    gen,
    hom,
    if_,
    in_,
    lam,
    let,
    lt,
    merge,
    method,
    new,
    not_,
    proj,
    rec,
    tup,
    unit,
    var,
)
from repro.db.catalog import Catalog
from repro.errors import TypingError, WellFormednessError
from repro.types import (
    ANY,
    Schema,
    TBOOL,
    TColl,
    TFLOAT,
    TINT,
    TRecord,
    TSTRING,
    TTuple,
    TypeChecker,
    type_of_value,
)
from repro.values import Bag, Record


@pytest.fixture
def checker() -> TypeChecker:
    return TypeChecker()


class TestBasicInference:
    def test_literals(self, checker):
        assert checker.infer(const(1)) == TINT
        assert checker.infer(const(1.5)) == TFLOAT
        assert checker.infer(const("s")) == TSTRING
        assert checker.infer(const(True)) == TBOOL

    def test_collection_constants(self, checker):
        assert checker.infer(const((1, 2))) == TColl("list", TINT)
        assert checker.infer(const(frozenset({1}))) == TColl("set", TINT)
        assert checker.infer(const(Bag(["a"]))) == TColl("bag", TSTRING)

    def test_heterogeneous_list_is_any_element(self, checker):
        assert checker.infer(const((1, "x"))) == TColl("list", ANY)

    def test_numeric_widening_in_collections(self, checker):
        assert checker.infer(const((1, 2.0))) == TColl("list", TFLOAT)

    def test_unbound_variable(self, checker):
        with pytest.raises(TypingError):
            checker.infer(var("x"))

    def test_bound_variable(self, checker):
        assert checker.infer(var("x"), {"x": TINT}) == TINT

    def test_arithmetic(self, checker):
        assert checker.infer(add(const(1), const(2))) == TINT
        assert checker.infer(add(const(1), const(2.0))) == TFLOAT
        assert checker.infer(div(const(1), const(2))) == TFLOAT
        with pytest.raises(TypingError):
            checker.infer(add(const(1), const("x")))

    def test_booleans(self, checker):
        assert checker.infer(and_(const(True), const(False))) == TBOOL
        with pytest.raises(TypingError):
            checker.infer(and_(const(1), const(True)))
        assert checker.infer(not_(const(True))) == TBOOL

    def test_comparison(self, checker):
        assert checker.infer(lt(const(1), const(2))) == TBOOL
        with pytest.raises(TypingError):
            checker.infer(lt(const(1), const("a")))

    def test_record_and_projection(self, checker):
        record = rec(a=const(1), b=const("x"))
        assert checker.infer(proj(record, "b")) == TSTRING
        with pytest.raises(TypingError):
            checker.infer(proj(record, "zzz"))

    def test_tuple_and_if(self, checker):
        assert checker.infer(tup(const(1), const("a"))) == TTuple((TINT, TSTRING))
        assert checker.infer(if_(const(True), const(1), const(2))) == TINT
        assert checker.infer(if_(const(True), const(1), const(2.0))) == TFLOAT
        with pytest.raises(TypingError):
            checker.infer(if_(const(1), const(1), const(2)))

    def test_membership(self, checker):
        assert checker.infer(in_(const(1), const((1, 2)))) == TBOOL
        with pytest.raises(TypingError):
            checker.infer(in_(const("a"), const((1, 2))))

    def test_lambda_and_apply(self, checker):
        fn = lam("x", const(1))
        assert checker.infer(apply(fn, const(0))) == TINT
        with pytest.raises(TypingError):
            checker.infer(apply(const(1), const(0)))

    def test_let(self, checker):
        assert checker.infer(let("x", const(2), add(var("x"), const(1)))) == TINT

    def test_builtins(self, checker):
        assert checker.infer(call("count", const((1,)))) == TINT
        assert checker.infer(call("element", const((1,)))) == TINT
        assert checker.infer(call("avg", const((1,)))) == TFLOAT
        assert checker.infer(call("range", const(3))) == TColl("list", TINT)
        assert checker.infer(call("to_set", const((1,)))) == TColl("set", TINT)

    def test_object_ops(self, checker):
        obj = new(const(1))
        assert str(checker.infer(obj)) == "obj(int)"
        assert checker.infer(deref(obj)) == TINT
        from repro.calculus import assign

        assert checker.infer(assign(obj, const(2))) == TBOOL
        with pytest.raises(TypingError):
            checker.infer(deref(const(1)))


class TestComprehensionTyping:
    def test_collection_output(self, checker):
        term = comp("set", var("x"), [gen("x", const((1, 2)))])
        assert checker.infer(term) == TColl("set", TINT)

    def test_primitive_outputs(self, checker):
        xs = const((1, 2))
        assert checker.infer(comp("sum", var("x"), [gen("x", xs)])) == TINT
        assert checker.infer(comp("max", var("x"), [gen("x", xs)])) == TINT
        assert (
            checker.infer(comp("some", lt(var("x"), const(2)), [gen("x", xs)])) == TBOOL
        )

    def test_sum_of_strings_rejected(self, checker):
        term = comp("sum", var("x"), [gen("x", const(("a",)))])
        with pytest.raises(TypingError):
            checker.infer(term)

    def test_some_of_non_bool_rejected(self, checker):
        term = comp("some", var("x"), [gen("x", const((1,)))])
        with pytest.raises(TypingError):
            checker.infer(term)

    def test_predicate_must_be_bool(self, checker):
        term = comp("set", var("x"), [gen("x", const((1,))), filt(const(1))])
        with pytest.raises(TypingError):
            checker.infer(term)

    def test_binding_qualifier_types_flow(self, checker):
        term = comp(
            "sum", var("y"), [gen("x", const((1,))), bind("y", add(var("x"), const(1)))]
        )
        assert checker.infer(term) == TINT

    def test_generator_over_non_collection_rejected(self, checker):
        term = comp("set", var("x"), [gen("x", const(3))])
        with pytest.raises(TypingError):
            checker.infer(term)

    def test_sorted_result_is_list_typed(self, checker):
        """Table 1: sorted's carrier *type* is list(a)."""
        from repro.calculus.ast import Comprehension, MonoidRef

        ref = MonoidRef("sorted", key=lam("x", var("x")))
        term = Comprehension(ref, var("x"), (gen("x", const(frozenset({1}))),))
        assert checker.infer(term) == TColl("list", TINT)


class TestWellFormednessRestriction:
    def test_set_into_bag_rejected(self, checker):
        term = comp("bag", var("x"), [gen("x", const(frozenset({1})))])
        with pytest.raises(WellFormednessError):
            checker.infer(term)

    def test_set_into_sum_rejected(self, checker):
        term = comp("sum", var("x"), [gen("x", const(frozenset({1})))])
        with pytest.raises(WellFormednessError):
            checker.infer(term)

    def test_set_into_list_rejected(self, checker):
        term = comp("list", var("x"), [gen("x", const(frozenset({1})))])
        with pytest.raises(WellFormednessError):
            checker.infer(term)

    def test_bag_into_set_allowed(self, checker):
        term = comp("set", var("x"), [gen("x", const(Bag([1])))])
        assert checker.infer(term) == TColl("set", TINT)

    def test_bag_into_sum_allowed(self, checker):
        term = comp("sum", var("x"), [gen("x", const(Bag([1])))])
        assert checker.infer(term) == TINT

    def test_set_into_some_allowed(self, checker):
        term = comp("some", lt(var("x"), const(9)), [gen("x", const(frozenset({1})))])
        assert checker.infer(term) == TBOOL

    def test_mixed_generators_each_checked(self, checker):
        term = comp(
            "set",
            tup(var("a"), var("b")),
            [gen("a", const((1,))), gen("b", const(frozenset({2})))],
        )
        assert checker.infer(term) == TColl("set", TTuple((TINT, TINT)))

    def test_hom_term_checked(self, checker):
        term = hom("set", "sum", "x", const(1), const(frozenset({1})))
        with pytest.raises(WellFormednessError):
            checker.infer(term)

    def test_hom_target_body_shape(self, checker):
        good = hom("list", "set", "x", unit("set", var("x")), const((1,)))
        assert checker.infer(good) == TColl("set", TINT)
        bad = hom("list", "set", "x", const(1), const((1,)))
        with pytest.raises(TypingError):
            checker.infer(bad)


class TestSchemaIntegration:
    @pytest.fixture
    def schema(self) -> Schema:
        s = Schema()
        s.define_class("City", {"name": TSTRING, "pop": TINT}, extent="Cities")
        s.define_method("City", "double_pop", lambda c: c["pop"] * 2, result=TINT)
        return s

    @pytest.fixture
    def env(self, schema: Schema):
        """The checker reads names only from its environment: here the
        one a database over ``schema`` hands it."""
        return Catalog(schema).types()

    def test_extents_typed_from_schema(self, schema, env):
        checker = TypeChecker(schema)
        term = comp("set", proj(var("c"), "name"), [gen("c", var("Cities"))])
        assert checker.infer(term, env) == TColl("set", TSTRING)

    def test_unknown_attribute_rejected(self, schema, env):
        checker = TypeChecker(schema)
        term = comp("set", proj(var("c"), "nope"), [gen("c", var("Cities"))])
        with pytest.raises(TypingError):
            checker.infer(term, env)

    def test_method_result_type(self, schema, env):
        checker = TypeChecker(schema)
        term = comp("set", method(var("c"), "double_pop"), [gen("c", var("Cities"))])
        assert checker.infer(term, env) == TColl("set", TINT)

    def test_unknown_method_rejected(self, schema, env):
        checker = TypeChecker(schema)
        term = comp("set", method(var("c"), "nope"), [gen("c", var("Cities"))])
        with pytest.raises(TypingError):
            checker.infer(term, env)


class TestTypeOfValue:
    def test_scalars(self):
        assert type_of_value(None).name == "none"
        assert type_of_value(True) == TBOOL
        assert type_of_value(3) == TINT
        assert type_of_value("x") == TSTRING

    def test_records(self):
        assert type_of_value(Record(a=1)) == TRecord((("a", TINT),))

    def test_merge_and_empty(self):
        checker = TypeChecker()
        out = checker.infer(merge("set", const(frozenset({1})), const(frozenset({2}))))
        assert out == TColl("set", TINT)
