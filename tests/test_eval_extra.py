"""Evaluator corners: methods, hom over vectors, merge_into, children."""

import pytest

from repro.calculus import (
    apply,
    call,
    comp,
    const,
    gen,
    hom,
    index,
    lam,
    merge,
    method,
    proj,
    rec,
    subterms,
    term_size,
    unit,
    var,
    zero,
)
from repro.calculus.traversal import children
from repro.errors import EvaluationError
from repro.eval import Evaluator, evaluate
from repro.eval.evaluator import merge_into
from repro.values import Bag, OrderedSet, Record, Vector


class TestMethods:
    def test_registered_method(self):
        ev = Evaluator(
            {"r": Record(price=10)},
            methods={"discounted": lambda r, pct: r["price"] * (1 - pct)},
        )
        out = ev.evaluate(method(var("r"), "discounted", const(0.5)))
        assert out == 5.0

    def test_record_field_closure_acts_as_method(self):
        ev = Evaluator()
        ev.bind_global("r", None)  # placeholder; rebuild below
        double = ev.evaluate(lam("x", var("x")))  # a Closure value
        record = Record(double=double)
        ev.bind_global("obj", record)
        assert ev.evaluate(method(var("obj"), "double", const(7))) == 7

    def test_unknown_method(self):
        ev = Evaluator({"r": Record(a=1)})
        with pytest.raises(EvaluationError, match="unknown method"):
            ev.evaluate(method(var("r"), "nope"))

    def test_over_application(self):
        term = apply(apply(lam("x", var("x")), const(1)), const(2))
        with pytest.raises(EvaluationError):
            evaluate(term)


class TestHomOverVectors:
    def test_hom_from_vector_sums_elements(self):
        from repro.calculus import vec_ref

        term = hom(vec_ref("sum", 3), "sum", "x", var("x"), var("v"))
        assert evaluate(term, {"v": Vector.from_dense([1, 2, 3])}) == 6


class TestMergeInto:
    def test_numeric(self):
        assert merge_into(5, 2) == 7

    def test_numeric_type_error(self):
        with pytest.raises(EvaluationError):
            merge_into(5, "x")

    def test_same_carrier_merges(self):
        assert merge_into((1,), (2,)) == (1, 2)
        assert merge_into(frozenset({1}), frozenset({2})) == frozenset({1, 2})
        assert merge_into(Bag([1]), Bag([1])) == Bag([1, 1])

    def test_element_inserts(self):
        assert merge_into((1, 2), 3) == (1, 2, 3)
        assert merge_into(frozenset({1}), 2) == frozenset({1, 2})
        assert merge_into(OrderedSet([1]), 2) == OrderedSet([1, 2])

    def test_non_target_rejected(self):
        with pytest.raises(EvaluationError):
            merge_into(None, 1)


class TestIndexingAndStrings:
    def test_string_indexing(self):
        assert evaluate(index(const("abc"), const(1))) == "b"

    def test_index_into_object_state(self):
        ev = Evaluator()
        obj = ev.store.new((10, 20))
        ev.bind_global("o", obj)
        assert ev.evaluate(index(var("o"), const(1))) == 20

    def test_index_non_indexable(self):
        with pytest.raises(EvaluationError):
            evaluate(index(const(5), const(0)))


class TestStructuralHelpers:
    ALL_NODES = [
        const(1),
        var("x"),
        lam("x", var("x")),
        apply(lam("x", var("x")), const(1)),
        rec(a=const(1)),
        proj(rec(a=const(1)), "a"),
        index(const((1,)), const(0)),
        comp("set", var("x"), [gen("x", var("Xs"))]),
        hom("list", "sum", "x", var("x"), const((1,))),
        merge("set", zero("set"), unit("set", const(1))),
        call("count", const((1,))),
        method(rec(a=const(1)), "m"),
    ]

    @pytest.mark.parametrize("term", ALL_NODES, ids=[str(t)[:30] for t in ALL_NODES])
    def test_children_and_size_consistent(self, term):
        # every child is itself a subterm and sizes add up
        subs = list(subterms(term))
        assert subs[0] is term
        assert term_size(term) == len(subs)
        for child in children(term):
            assert any(child == s for s in subs[1:])

    def test_sorted_monoid_key_in_children(self):
        from repro.calculus.ast import Comprehension, MonoidRef

        ref = MonoidRef("sorted", key=lam("x", var("x")))
        term = Comprehension(ref, var("x"), (gen("x", var("Xs")),))
        assert any(
            isinstance(child, type(lam("x", var("x")))) for child in children(term)
        )


class TestResolveMonoidErrors:
    def test_sorted_without_key(self):
        from repro.calculus.ast import Comprehension, MonoidRef

        term = Comprehension(MonoidRef("sorted"), var("x"), (gen("x", const((1,))),))
        with pytest.raises(EvaluationError, match="key"):
            evaluate(term)

    def test_vector_without_size(self):
        from repro.calculus.ast import Comprehension, MonoidRef

        ref = MonoidRef("vec", element=MonoidRef("sum"))
        term = Comprehension(ref, var("x"), (gen("x", const((1,))),))
        with pytest.raises(EvaluationError):
            evaluate(term)


# -- builtins raise typed errors, on every engine ---------------------------------------

#: query -> (typer's message, evaluator's message); a typer message of None:
#: the query typechecks and fails at run time
NUMERIC_MISUSE = {
    "avg(select e.name from e in Employees)": (
        "avg aggregates numbers, got string", "avg aggregates numbers, got str:"),
    "select avg(e.skills) from e in Employees": (
        "avg aggregates numbers, got string", "avg aggregates numbers, got str:"),
    "select abs(e.name) from e in Employees": (
        "abs requires numbers, got string", "abs requires numbers, got str:"),
    "select sqrt(e.name) from e in Employees": (
        "sqrt requires numbers, got string", "sqrt requires numbers, got str:"),
    "range('a')": ("range requires integers, got string", "range requires integers, got str:"),
    "range(1, 2.5)": ("range requires integers, got float", "range requires integers, got float:"),
    # a boolean is not a number, though Python's bool is an int
    "select abs(e.salary > 0) from e in Employees": (
        "abs requires numbers, got bool", "abs requires numbers, got bool:"),
    "avg(list(true, false))": (
        "avg aggregates numbers, got bool", "avg aggregates numbers, got bool:"),
    "sqrt(-1)": (None, "sqrt of a negative number: -1"),
    "select sqrt(e.salary - 1000000) from e in Employees": (
        None, "sqrt of a negative number: -"),
    # a builtin's argument count, the builtin named as it was called
    "abs(1, 2)": ("abs takes 1 argument, got 2", "abs takes 1 argument, got 2"),
    "range()": ("range takes 1 to 3 arguments, got 0", "range takes 1 to 3 arguments, got 0"),
    "sqrt(1, 2)": ("sqrt takes 1 argument, got 2", "sqrt takes 1 argument, got 2"),
    "select abs(e.salary, 1) from e in Employees": (
        "abs takes 1 argument, got 2", "abs takes 1 argument, got 2"),
    "length(1, 2)": ("length takes 1 argument, got 2", "length takes 1 argument, got 2"),
    "select length(e.name, 1) from e in Employees": (
        "length takes 1 argument, got 2", "length takes 1 argument, got 2"),
}


@pytest.mark.parametrize("typecheck", [False, True], ids=["untyped", "typed"])
@pytest.mark.parametrize("oql", list(NUMERIC_MISUSE))
def test_numeric_builtins_raise_typed_errors(company_db, oql, typecheck):
    from repro.errors import TypingError

    typed, evaluated = NUMERIC_MISUSE[oql]
    company_db.disable_cache()
    for engine in ("interpret", "auto"):
        error, message = (TypingError, typed) if typecheck and typed else (
            EvaluationError, evaluated)
        with pytest.raises(error) as info:
            company_db.run(oql, engine=engine, typecheck=typecheck)
        assert str(info.value).startswith(message), (engine, str(info.value))
    if oql.startswith("select"):  # the generated path raised it
        assert company_db.compile(oql).plan is not None


# -- a registered function's exception ---------------------------------------------------


@pytest.mark.parametrize("typecheck", [False, True], ids=["untyped", "typed"])
@pytest.mark.parametrize("engine", ["auto", "interpret"])
@pytest.mark.parametrize("oql", ["nope(1)", "select nope(e.salary) from e in Employees"])
def test_registered_function_exception_is_an_evaluation_error(
    company_db, oql, engine, typecheck
):
    def nope(value):
        raise ValueError("nope")

    company_db.register_function("nope", nope)
    with pytest.raises(EvaluationError) as info:
        company_db.run(oql, engine=engine, typecheck=typecheck)
    assert str(info.value) == "function 'nope' raised ValueError: nope"
    assert type(info.value.__cause__) is ValueError
