"""Closure compilation of calculus terms.

:func:`compile_term` translates the *operator-position fragment* of
the calculus — the small, first-order residue §3 normalization leaves
in selection predicates, join keys, unnest paths, nest keys and reduce
heads — into ordinary Python closures ``fn(binding, rt) -> value``,
eliminating the per-row AST dispatch of
:meth:`repro.eval.evaluator.Evaluator._eval`.

The fragment: ``Const`` / ``Var`` / ``Proj`` / ``Deref`` / ``Index`` /
``BinOp`` / ``UnOp`` / ``If`` / ``RecordCons`` / ``TupleCons`` /
``Call`` into builtins. Everything else — ``Lambda``/``Apply``/``Let``,
comprehensions, homomorphisms, monoid constructors, method calls, user
functions and the §4.2 object effects (``New``/``Assign``/``Update``)
— compiles to a *fallback thunk* that re-enters the reference
interpreter for exactly that subterm, so a partially compilable
expression still runs its compilable shell natively.

Semantics are mirrored from the evaluator check for check: boolean
strictness and its error wording, the arithmetic type discipline
(bools are not numbers, ``str + str`` only), comparison
``TypeError`` → ``EvaluationError``, division/modulo-by-zero messages,
implicit object dereference on projection and indexing, and the
``Call`` resolution order (environment, then registered functions).
The differential tests in ``tests/test_jit_compiler.py`` and the
verify-mode executor wrapper hold the two implementations together.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Optional

from repro.calculus.ast import (
    BinOp,
    Call,
    Const,
    Deref,
    If,
    Index,
    Proj,
    RecordCons,
    Term,
    TupleCons,
    UnOp,
    Var,
)
from repro.errors import EvaluationError
from repro.eval.builtins import DEFAULT_BUILTINS
from repro.eval.evaluator import _freeze_const
from repro.objects.store import Obj
from repro.values import OrderedSet, Record, Vector

#: The uniform signature of every compiled expression.
CompiledFn = Callable[[dict, Any], Any]


def compile_term(
    term: Term,
    bound: frozenset[str],
    fallbacks: Optional[list[str]] = None,
) -> CompiledFn:
    """Compile ``term`` to a closure over ``(binding, runtime)``.

    ``bound`` is the set of variables the consuming operator's binding
    dicts are statically known to carry (``PlanNode.columns()`` of the
    relevant child); variables outside it resolve in the runtime's
    global snapshot, preserving the interpreter's shadowing order.
    ``fallbacks``, when given, collects the construct names of every
    subterm that had to drop back to the interpreter — the raw material
    for the ``QL501`` lint and the ``repro_jit_*`` telemetry counters.
    """
    return _compile(term, bound, fallbacks)


# ---------------------------------------------------------------------------
# Per-construct compilers
# ---------------------------------------------------------------------------


def _fallback(term: Term, fallbacks: Optional[list[str]]) -> CompiledFn:
    if fallbacks is not None:
        fallbacks.append(type(term).__name__)

    def interpret(b: dict, rt: Any, _t: Term = term) -> Any:
        return rt.eval_fallback(_t, b)

    return interpret


def _compile(term: Term, bound: frozenset[str], fallbacks) -> CompiledFn:
    handler = _COMPILERS.get(type(term))
    if handler is None:
        return _fallback(term, fallbacks)
    return handler(term, bound, fallbacks)


def _compile_const(term: Const, bound, fallbacks) -> CompiledFn:
    # Constant freezing happens once at compile time instead of per row.
    value = _freeze_const(term.value)
    return lambda b, rt, _v=value: _v


def _compile_var(term: Var, bound, fallbacks) -> CompiledFn:
    name = term.name
    if name in bound:
        return lambda b, rt, _n=name: b[_n]
    return lambda b, rt, _n=name: rt.globals.lookup(_n)


def _compile_proj(term: Proj, bound, fallbacks) -> CompiledFn:
    base = _compile(term.base, bound, fallbacks)
    name = term.name

    def proj(b: dict, rt: Any) -> Any:
        value = base(b, rt)
        if type(value) is Record:
            return value[name]
        return rt.ev.project(value, name)

    return proj


def _compile_deref(term: Deref, bound, fallbacks) -> CompiledFn:
    target = _compile(term.target, bound, fallbacks)
    return lambda b, rt: rt.store.deref(target(b, rt))


def _index_into(rt: Any, base: Any, position: Any) -> Any:
    # Mirrors Evaluator._eval_index exactly.
    if isinstance(base, Obj):
        base = rt.store.deref(base)
    if isinstance(base, Vector):
        return base[position]
    if isinstance(base, (tuple, list, str, OrderedSet)):
        try:
            return base[position]
        except (IndexError, TypeError) as exc:
            raise EvaluationError(f"bad index {position!r}: {exc}") from None
    raise EvaluationError(f"cannot index into {type(base).__name__}")


def _compile_index(term: Index, bound, fallbacks) -> CompiledFn:
    base = _compile(term.base, bound, fallbacks)
    position = _compile(term.index, bound, fallbacks)
    return lambda b, rt: _index_into(rt, base(b, rt), position(b, rt))


def _compile_record(term: RecordCons, bound, fallbacks) -> CompiledFn:
    pairs = tuple(
        (name, _compile(value, bound, fallbacks)) for name, value in term.fields
    )

    def record(b: dict, rt: Any) -> Record:
        return Record({name: fn(b, rt) for name, fn in pairs})

    return record


def _compile_tuple(term: TupleCons, bound, fallbacks) -> CompiledFn:
    fns = tuple(_compile(item, bound, fallbacks) for item in term.items)

    def tup(b: dict, rt: Any) -> tuple:
        return tuple(fn(b, rt) for fn in fns)

    return tup


def _bool_error(value: Any, where: str) -> EvaluationError:
    # Same wording as Evaluator._require_bool.
    return EvaluationError(
        f"{where} requires a boolean, got {type(value).__name__}: {value!r}"
    )


def _compile_if(term: If, bound, fallbacks) -> CompiledFn:
    cond = _compile(term.cond, bound, fallbacks)
    then = _compile(term.then_branch, bound, fallbacks)
    other = _compile(term.else_branch, bound, fallbacks)

    def branch(b: dict, rt: Any) -> Any:
        test = cond(b, rt)
        if test is True:
            return then(b, rt)
        if test is False:
            return other(b, rt)
        raise _bool_error(test, "if")

    return branch


def _compile_unop(term: UnOp, bound, fallbacks) -> CompiledFn:
    operand = _compile(term.operand, bound, fallbacks)
    if term.op == "not":

        def negate(b: dict, rt: Any) -> bool:
            value = operand(b, rt)
            if value is True:
                return False
            if value is False:
                return True
            raise _bool_error(value, "not")

        return negate
    if term.op == "-":

        def neg(b: dict, rt: Any) -> Any:
            value = operand(b, rt)
            if type(value) is int or type(value) is float:
                return -value
            raise EvaluationError(f"negation of non-number {value!r}")

        return neg
    # Unknown unary operator: the interpreter raises the exact error.
    return _fallback(term, fallbacks)


_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _compile_binop(term: BinOp, bound, fallbacks) -> CompiledFn:
    op = term.op
    left = _compile(term.left, bound, fallbacks)
    right = _compile(term.right, bound, fallbacks)

    if op in ("and", "or"):
        short = op == "or"  # the value that short-circuits

        def logic(b: dict, rt: Any) -> bool:
            lv = left(b, rt)
            if lv is not True and lv is not False:
                raise _bool_error(lv, op)
            if lv is short:
                return short
            rv = right(b, rt)
            if rv is True or rv is False:
                return rv
            raise _bool_error(rv, op)

        return logic
    if op == "=":
        return lambda b, rt: left(b, rt) == right(b, rt)
    if op == "!=":
        return lambda b, rt: left(b, rt) != right(b, rt)
    if op in _COMPARE:
        py = _COMPARE[op]

        def compare(b: dict, rt: Any) -> bool:
            lv = left(b, rt)
            rv = right(b, rt)
            try:
                return py(lv, rv)
            except TypeError:
                raise EvaluationError(
                    f"cannot compare {type(lv).__name__} {op} {type(rv).__name__}"
                ) from None

        return compare
    if op in ("+", "-", "*", "/", "div", "mod"):
        return _compile_arith(op, left, right)
    if op in ("in", "union", "intersect", "except"):
        return lambda b, rt: rt.ev.apply_binop(op, left(b, rt), right(b, rt))
    # Unknown operator: the interpreter raises the exact error.
    return _fallback(term, fallbacks)


def _compile_arith(op: str, left: CompiledFn, right: CompiledFn) -> CompiledFn:
    # Exact-int fast paths (``type is int`` excludes bool, matching the
    # interpreter's number discipline); everything else — floats, string
    # concatenation, type errors, division by zero — routes through
    # Evaluator._arith so the semantics and error wording stay shared.
    if op == "+":

        def add(b: dict, rt: Any) -> Any:
            lv = left(b, rt)
            rv = right(b, rt)
            if type(lv) is int and type(rv) is int:
                return lv + rv
            return rt.ev._arith("+", lv, rv)

        return add
    if op == "-":

        def sub(b: dict, rt: Any) -> Any:
            lv = left(b, rt)
            rv = right(b, rt)
            if type(lv) is int and type(rv) is int:
                return lv - rv
            return rt.ev._arith("-", lv, rv)

        return sub
    if op == "*":

        def mul(b: dict, rt: Any) -> Any:
            lv = left(b, rt)
            rv = right(b, rt)
            if type(lv) is int and type(rv) is int:
                return lv * rv
            return rt.ev._arith("*", lv, rv)

        return mul

    def divide(b: dict, rt: Any) -> Any:
        return rt.ev._arith(op, left(b, rt), right(b, rt))

    return divide


def _compile_call(term: Call, bound, fallbacks) -> CompiledFn:
    name = term.name
    # Only straight calls into known builtins compile; a name bound by
    # the plan (a closure-valued variable) or a user-registered function
    # stays interpreted. Resolution still happens through the runtime so
    # a global that shadows a builtin name wins, as in the interpreter.
    if name in bound or name not in DEFAULT_BUILTINS:
        return _fallback(term, fallbacks)
    arg_fns = tuple(_compile(arg, bound, fallbacks) for arg in term.args)

    def call(b: dict, rt: Any) -> Any:
        fn = rt.callable_for(name)
        return rt.ev.apply_callable(fn, *[f(b, rt) for f in arg_fns])

    return call


_COMPILERS: dict[type, Callable[..., CompiledFn]] = {
    Const: _compile_const,
    Var: _compile_var,
    Proj: _compile_proj,
    Deref: _compile_deref,
    Index: _compile_index,
    RecordCons: _compile_record,
    TupleCons: _compile_tuple,
    BinOp: _compile_binop,
    UnOp: _compile_unop,
    If: _compile_if,
    Call: _compile_call,
}
