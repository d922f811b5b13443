"""Differential tests for the expression emitter (`repro.jit.compiler`).

Every construct in the compilable fragment is checked value-for-value
and error-for-error against the reference interpreter: same results,
same `EvaluationError` wording, same short-circuit behavior. The
fallback machinery is checked to (a) preserve semantics and (b) record
which construct forced the interpreter re-entry. The compiled side is
`Emitter` source as a generated function spells it: plan variables are
Python locals, the runtime's helpers are bound in a prologue.
"""

from __future__ import annotations

import pytest

from repro.calculus.ast import (
    BinOp,
    Call,
    Comprehension,
    Const,
    If,
    Index,
    Proj,
    RecordCons,
    TupleCons,
    UnOp,
    Var,
)
from repro.calculus import comp, gen, var
from repro.errors import EvaluationError, ReproError
from repro.eval import Evaluator
from repro.eval.env import Env
from repro.jit import Runtime
from repro.jit.compiler import RUNTIME, Emitter
from repro.values import Bag, Record


def compile_term(term, bound, fallbacks=None):
    """``term`` over the variables ``bound`` as ``fn(binding, rt)``, its
    fallbacks' construct names appended to ``fallbacks``."""
    emitter = Emitter()
    names = sorted(bound)
    local = {name: f"v{i}" for i, name in enumerate(names)}
    prologue = "; ".join(f"{name} = {path}" for name, path in RUNTIME.items())
    source = (
        f"def fn(rt, {', '.join(local.values())}):\n"
        f"    {prologue}\n"
        f"    return {emitter.expr(term, local)}\n"
    )
    exec(source, emitter.names)
    if fallbacks is not None:
        fallbacks.extend(emitter.fallbacks)
    fn = emitter.names["fn"]
    return lambda binding, rt: fn(rt, *(binding[name] for name in names))


def run_both(term, binding, globals_=None):
    """Evaluate ``term`` compiled and interpreted; both must agree.

    Returns the common value, or the common EvaluationError message.
    """
    ev = Evaluator(globals_ or {})
    rt = Runtime(ev)
    fn = compile_term(term, frozenset(binding))
    env = ev.global_env.bind_many(dict(binding))

    def attempt(thunk):
        try:
            return ("ok", thunk())
        except ReproError as exc:
            return ("err", str(exc))

    compiled = attempt(lambda: fn(binding, rt))
    interpreted = attempt(lambda: ev.evaluate(term, env))
    assert compiled == interpreted, (term, compiled, interpreted)
    return compiled


class TestLeaves:
    def test_const(self):
        assert run_both(Const(42), {}) == ("ok", 42)

    def test_const_freezing_happens_at_compile_time(self):
        # Lists freeze to the same canonical value the interpreter uses.
        assert run_both(Const([1, 2]), {}) == run_both(Const([1, 2]), {})

    def test_bound_var_reads_binding_dict(self):
        assert run_both(Var("x"), {"x": 7}) == ("ok", 7)

    def test_free_var_reads_globals(self):
        assert run_both(Var("g"), {}, globals_={"g": "global"}) == ("ok", "global")

    def test_binding_shadows_global(self):
        # A var in `bound` must read its local even if a global with
        # the same name exists — interpreter shadowing order.
        assert run_both(Var("x"), {"x": 1}, globals_={"x": 99}) == ("ok", 1)

    def test_unbound_var_errors_match(self):
        kind, _ = run_both(Var("nope"), {})
        assert kind == "err"


class TestProjIndex:
    def test_record_projection(self):
        binding = {"r": Record({"a": 1, "b": 2})}
        assert run_both(Proj(Var("r"), "a"), binding) == ("ok", 1)

    def test_missing_field_error_matches(self):
        binding = {"r": Record({"a": 1})}
        kind, msg = run_both(Proj(Var("r"), "zzz"), binding)
        assert kind == "err" and "zzz" in msg

    def test_projection_on_non_record_matches(self):
        kind, _ = run_both(Proj(Var("x"), "a"), {"x": 3})
        assert kind == "err"

    def test_index_tuple(self):
        assert run_both(Index(Var("t"), Const(1)), {"t": (10, 20, 30)}) == ("ok", 20)

    def test_index_string(self):
        assert run_both(Index(Var("s"), Const(0)), {"s": "hi"}) == ("ok", "h")

    def test_index_out_of_range_matches(self):
        kind, msg = run_both(Index(Var("t"), Const(9)), {"t": (1,)})
        assert kind == "err" and "bad index" in msg

    def test_index_into_scalar_matches(self):
        kind, msg = run_both(Index(Var("x"), Const(0)), {"x": 5})
        assert kind == "err" and "cannot index into" in msg


class TestConstructors:
    def test_record_cons(self):
        term = RecordCons((("a", Var("x")), ("b", Const(2))))
        assert run_both(term, {"x": 1}) == ("ok", Record({"a": 1, "b": 2}))

    def test_tuple_cons(self):
        term = TupleCons((Var("x"), Const("s")))
        assert run_both(term, {"x": 1}) == ("ok", (1, "s"))


class TestBoolAndIf:
    def test_and_or(self):
        for op in ("and", "or"):
            for lv in (True, False):
                for rv in (True, False):
                    term = BinOp(op, Var("l"), Var("r"))
                    assert run_both(term, {"l": lv, "r": rv})[0] == "ok"

    def test_short_circuit_skips_right(self):
        # or with a true left must not evaluate the erroring right side.
        term = BinOp("or", Const(True), Proj(Const(1), "x"))
        assert run_both(term, {}) == ("ok", True)
        term = BinOp("and", Const(False), Proj(Const(1), "x"))
        assert run_both(term, {}) == ("ok", False)

    def test_non_bool_operand_errors_match(self):
        for op in ("and", "or"):
            kind, msg = run_both(BinOp(op, Const(1), Const(True)), {})
            assert kind == "err" and "requires a boolean" in msg
            # strict in the right operand too (when reached)
            left = Const(False) if op == "or" else Const(True)
            kind, msg = run_both(BinOp(op, left, Const("x")), {})
            assert kind == "err" and "requires a boolean" in msg

    def test_not(self):
        assert run_both(UnOp("not", Const(True)), {}) == ("ok", False)
        kind, msg = run_both(UnOp("not", Const(3)), {})
        assert kind == "err" and "requires a boolean" in msg

    def test_if_branches_and_strictness(self):
        term = If(Var("c"), Const("t"), Const("e"))
        assert run_both(term, {"c": True}) == ("ok", "t")
        assert run_both(term, {"c": False}) == ("ok", "e")
        kind, msg = run_both(term, {"c": 0})
        assert kind == "err" and "if requires a boolean" in msg

    def test_if_only_evaluates_taken_branch(self):
        term = If(Const(True), Const(1), Proj(Const(1), "x"))
        assert run_both(term, {}) == ("ok", 1)


class TestArithmetic:
    def test_int_fast_paths(self):
        for op, expected in (("+", 9), ("-", 5), ("*", 14)):
            assert run_both(BinOp(op, Var("a"), Var("b")), {"a": 7, "b": 2}) == (
                "ok",
                expected,
            )

    def test_bool_is_not_a_number(self):
        # type-is-int fast path must exclude bool, like the interpreter.
        kind, _ = run_both(BinOp("+", Const(True), Const(1)), {})
        assert kind == "err"

    def test_floats_and_strings(self):
        assert run_both(BinOp("+", Const(1.5), Const(2.0)), {}) == ("ok", 3.5)
        assert run_both(BinOp("+", Const("a"), Const("b")), {}) == ("ok", "ab")

    def test_division_family(self):
        assert run_both(BinOp("/", Const(7), Const(2)), {}) == ("ok", 3.5)
        assert run_both(BinOp("div", Const(7), Const(2)), {}) == ("ok", 3)
        assert run_both(BinOp("mod", Const(7), Const(2)), {}) == ("ok", 1)

    def test_divide_by_zero_errors_match(self):
        for op in ("/", "div", "mod"):
            kind, _ = run_both(BinOp(op, Const(1), Const(0)), {})
            assert kind == "err"

    def test_mixed_type_arith_errors_match(self):
        kind, _ = run_both(BinOp("+", Const(1), Const("x")), {})
        assert kind == "err"

    def test_negation(self):
        assert run_both(UnOp("-", Var("x")), {"x": 3}) == ("ok", -3)
        assert run_both(UnOp("-", Const(1.5)), {}) == ("ok", -1.5)
        kind, msg = run_both(UnOp("-", Const("s")), {})
        assert kind == "err" and "negation of non-number" in msg


class TestComparisons:
    def test_orderings(self):
        for op in ("<", "<=", ">", ">="):
            for a, b in ((1, 2), (2, 2), (3, 2)):
                term = BinOp(op, Var("a"), Var("b"))
                assert run_both(term, {"a": a, "b": b})[0] == "ok"

    def test_equality(self):
        assert run_both(BinOp("=", Const(1), Const(1)), {}) == ("ok", True)
        assert run_both(BinOp("!=", Const(1), Const(2)), {}) == ("ok", True)

    def test_incomparable_types_match(self):
        kind, msg = run_both(BinOp("<", Const(1), Const("x")), {})
        assert kind == "err" and "cannot compare" in msg


class TestCollectionOps:
    def test_in_union_intersect_except(self):
        binding = {"s": frozenset({1, 2}), "t": frozenset({2, 3})}
        assert run_both(BinOp("in", Const(1), Var("s")), binding) == ("ok", True)
        for op in ("union", "intersect", "except"):
            assert run_both(BinOp(op, Var("s"), Var("t")), binding)[0] == "ok"


class TestCalls:
    def test_builtin_call_compiles(self):
        fallbacks: list[str] = []
        term = Call("abs", (Var("x"),))
        fn = compile_term(term, frozenset({"x"}), fallbacks)
        assert fallbacks == []
        ev = Evaluator()
        assert fn({"x": -3}, Runtime(ev)) == 3

    def test_user_function_falls_back_but_works(self):
        fallbacks: list[str] = []
        term = Call("double", (Var("x"),))
        fn = compile_term(term, frozenset({"x"}), fallbacks)
        assert fallbacks == ["Call"]
        ev = Evaluator(functions={"double": lambda v: v * 2})
        assert fn({"x": 21}, Runtime(ev)) == 42

    def test_bound_name_falls_back(self):
        # `x(y)` where x is a row variable: never compiled.
        fallbacks: list[str] = []
        compile_term(Call("x", (Var("y"),)), frozenset({"x", "y"}), fallbacks)
        assert fallbacks == ["Call"]

    def test_global_shadows_builtin(self):
        # The runtime resolves through globals first, as the interpreter does.
        term = Call("abs", (Const(-1),))
        assert run_both(term, {}, globals_={"abs": lambda v: "shadowed"}) == (
            "ok",
            "shadowed",
        )


class TestFallbacks:
    def test_comprehension_falls_back_with_right_name(self):
        fallbacks: list[str] = []
        term = comp("sum", var("x"), [gen("x", var("xs"))])
        fn = compile_term(term, frozenset({"xs"}), fallbacks)
        assert fallbacks == ["Comprehension"]
        assert fn({"xs": Bag((1, 2, 3))}, Runtime(Evaluator())) == 6

    def test_partial_compilation_keeps_shell_native(self):
        # (comprehension) + 1: the BinOp shell compiles, the inner
        # comprehension is the only fallback.
        fallbacks: list[str] = []
        inner = comp("sum", var("x"), [gen("x", var("xs"))])
        term = BinOp("+", inner, Const(1))
        fn = compile_term(term, frozenset({"xs"}), fallbacks)
        assert fallbacks == ["Comprehension"]
        assert fn({"xs": Bag((1, 2))}, Runtime(Evaluator())) == 4

    def test_fallback_sees_row_bindings(self):
        # The interpreter re-entry must layer the row's locals over
        # globals so row variables resolve inside the fallback term.
        term = comp("sum", BinOp("*", var("x"), var("y")), [gen("x", var("xs"))])
        fn = compile_term(term, frozenset({"xs", "y"}), [])
        assert fn({"xs": Bag((1, 2)), "y": 10}, Runtime(Evaluator())) == 30


class TestRuntime:
    def test_env_wrapping_aliases_without_copy(self):
        inner = {"x": 1}
        env = Env.wrapping(inner, Env({"g": 2}))
        assert env.lookup("x") == 1 and env.lookup("g") == 2
        inner["x"] = 99  # aliasing contract: mutations show through
        assert env.lookup("x") == 99

    def test_unknown_function_error(self):
        rt = Runtime(Evaluator())
        with pytest.raises(EvaluationError, match="unknown function"):
            rt.callable_for("no_such_fn")

    def test_callable_memo_is_stable(self):
        ev = Evaluator(functions={"f": lambda: 1})
        rt = Runtime(ev)
        assert rt.callable_for("f") is rt.callable_for("f")
