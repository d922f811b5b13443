"""Emission of calculus terms as Python source.

:class:`Emitter` translates the *operator-position fragment* of the
calculus — the small, first-order residue §3 normalization leaves in
selection predicates, join keys, unnest paths, nest keys and reduce
heads — into one Python *expression* per term, inlined into the function
:mod:`repro.jit.plan` generates for a whole plan: a plan variable is a
Python local there, and what the source asks of the runtime
(:data:`RUNTIME`) a name the function's prologue binds.

The fragment: ``Const`` / ``Var`` / ``Proj`` / ``Deref`` / ``Index`` /
``BinOp`` / ``UnOp`` / ``If`` / ``RecordCons`` / ``TupleCons`` /
``Call`` into builtins, and the §4.2 effects ``Update`` / ``Assign`` that
an update program's plan holds as effect filters — each one call into the
interpreter's own helper (``Evaluator.apply_update``, ``ObjectStore.assign``).
Everything else — ``Lambda``/``Apply``/``Let``, comprehensions,
homomorphisms, monoid constructors, method calls, user functions and
``New`` — is emitted as a call that re-enters the reference interpreter
for exactly that subterm, so a partially compilable expression still
runs its compilable shell natively. A ``$``-parameter is read from the
environment once per execution, where it is first needed.

Semantics are mirrored from the evaluator check for check: boolean
strictness and its error wording, the arithmetic type discipline
(bools are not numbers, ``str + str`` only), comparison
``TypeError`` → ``EvaluationError``, implicit object dereference on
projection and indexing, and the ``Call`` resolution order (environment,
then registered functions). A fast path is written inline and guarded by
exact types (``type(v) is Record``; an ``Obj`` whose heap state is a
``Record``, read through the store's lookup; two ``int`` operands, two
operands of one plain ordered type); whatever it does not cover calls the
evaluator's own method, so error text has one source. A subterm read twice is bound
once with ``:=``. ``tests/test_jit_compiler.py`` and verify mode's
per-row check hold the two implementations together.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.calculus.ast import Assign, BinOp, Call, Const, Deref, If, Index, Proj, RecordCons
from repro.calculus.ast import Term, TupleCons, UnOp, Update, Var
from repro.errors import EvaluationError
from repro.eval.builtins import DEFAULT_BUILTINS
from repro.eval.evaluator import Evaluator, _freeze_const
from repro.objects.store import Obj
from repro.values import Record

#: What emitted source asks of the runtime: the name it goes by, and what
#: the generated function's prologue binds that name to.
RUNTIME = {
    "_project": "rt.ev.project",
    "_index": "rt.ev.index",
    "_binop": "rt.ev.apply_binop",
    "_arith": "rt.ev._arith",
    "_apply": "rt.ev.apply_callable",
    "_callable": "rt.callable_for",
    "_fallback": "rt.eval_fallback",
    "_lookup": "rt.globals.lookup",
    "_deref": "rt.store.deref",
    "_state_of": "rt.store.lookup",
    "_update": "rt.ev.apply_update",
    "_assign": "rt.store.assign",
    "_check": "rt.check",
    "_iterate": "rt.iterate",
}


#: what a ``$``-parameter's local holds until it is first read
_UNSET = object()


def _not_number(value: Any) -> None:
    raise EvaluationError(f"negation of non-number {value!r}")


class Emitter:
    """Emits terms as Python expressions and collects what they name.

    ``names`` is the namespace the source must be compiled in (constants,
    fallback terms, the helpers above). ``scope`` arguments map each plan
    variable in reach to the source that reads it; any other variable
    resolves in the runtime's global snapshot, preserving the
    interpreter's shadowing order. ``fallbacks`` collects the construct
    name of every subterm left to the interpreter; ``params`` maps each
    ``$``-parameter read to the local that holds it, which the function's
    prologue sets to ``_UNSET`` and its first read fills.
    """

    def __init__(self) -> None:
        self.names: dict[str, Any] = {
            "_Record": Record,
            "_Obj": Obj,
            "_UNSET": _UNSET,
            "_require_bool": Evaluator._require_bool,  # reached only by a non-boolean
            "_not_number": _not_number,
        }
        self.fallbacks: list[str] = []
        self.params: dict[str, str] = {}
        self._fresh = 0

    def fresh(self, prefix: str) -> str:
        self._fresh += 1
        return f"{prefix}{self._fresh}"

    def const(self, value: Any) -> str:
        """The name ``value`` goes under in the namespace."""
        name = self.fresh("_k")
        self.names[name] = value
        return name

    def once(self, source: str, literal: bool = True) -> tuple[str, str]:
        """``source`` as ``(first read, later reads)``: itself twice when
        re-reading costs nothing (a local; a literal, where one may
        stand — Python warns about a literal that is subscripted or an
        operand of ``is``), else bound to a temporary where it is first read."""
        if source.isidentifier():
            plain = literal or source not in ("True", "False", "None")
        else:
            plain = literal and source[0] in "'\"-0123456789"
        if plain:
            return source, source
        temp = self.fresh("_t")
        return f"({temp} := {source})", temp

    def env(self, scope: dict[str, str]) -> str:
        """The binding dict the interpreter is handed for a subterm,
        built from the locals."""
        return "{" + ", ".join(f"{name!r}: {src}" for name, src in scope.items()) + "}"

    def checked(self, term: Term, scope: dict[str, str]) -> str:
        """``term``'s source inside verify mode's differential check; an
        effect is applied once, its operands checked."""
        if type(term) in _EFFECTS:
            return _EMITTERS[type(term)](self, term, scope, self.checked)
        source = self.expr(term, scope)
        return f"_check({source}, {self.const(term)}, {self.env(scope)})"

    def expr(self, term: Term, scope: dict[str, str]) -> str:
        handler = _EMITTERS.get(type(term))
        if handler is None:
            return self.fallback(term, scope)
        return handler(self, term, scope)

    def fallback(self, term: Term, scope: dict[str, str]) -> str:
        self.fallbacks.append(type(term).__name__)
        return f"_fallback({self.const(term)}, {self.env(scope)})"

    # -- per-construct emitters ---------------------------------------------------

    def _const(self, term: Const, scope) -> str:
        # Constant freezing happens once at compile time instead of per row.
        value = _freeze_const(term.value)
        if type(value) in (int, str, bool, type(None)):
            return repr(value)
        return self.const(value)

    def _var(self, term: Var, scope) -> str:
        name = term.name
        source = scope.get(name)
        if source is not None:
            return source
        if name[0] != "$":
            return f"_lookup({name!r})"
        # Looked up where first read, as the interpreter would: an unbound
        # parameter over an empty source raises nothing.
        local = self.params.get(name) or self.params.setdefault(name, self.fresh("_q"))
        return f"({local} if {local} is not _UNSET else ({local} := _lookup({name!r})))"

    def _proj(self, term: Proj, scope) -> str:
        first, base = self.once(self.expr(term.base, scope), literal=False)
        state, name = self.fresh("_t"), repr(term.name)
        # A record, or an object whose state is one, is read inline; any
        # other base (a dangling OID too) gets the evaluator's answer.
        return (
            f"({base}[{name}] if type({first}) is _Record"
            f" else {state}[{name}] if type({base}) is _Obj"
            f" and type({state} := _state_of({base}.oid)) is _Record"
            f" else _project({base}, {name}))"
        )

    def _deref(self, term: Deref, scope) -> str:
        return f"_deref({self.expr(term.target, scope)})"

    def _index(self, term: Index, scope) -> str:
        return f"_index({self.expr(term.base, scope)}, {self.expr(term.index, scope)})"

    def _update(self, term: Update, scope, operand=None) -> str:
        operand = operand or self.expr
        target, value = operand(term.base, scope), operand(term.value, scope)
        return f"_update({target}, {term.field_name!r}, {term.op!r}, {value})"

    def _assign(self, term: Assign, scope, operand=None) -> str:
        operand = operand or self.expr
        return f"_assign({operand(term.target, scope)}, {operand(term.value, scope)})"

    def _record(self, term: RecordCons, scope) -> str:
        fields = ", ".join(f"{name!r}: {self.expr(value, scope)}" for name, value in term.fields)
        return f"_Record({{{fields}}})"

    def _tuple(self, term: TupleCons, scope) -> str:
        return "(" + "".join(f"{self.expr(item, scope)}, " for item in term.items) + ")"

    def _strict(self, source: str, where: str) -> str:
        """``source`` when it is a boolean; the evaluator's error when not."""
        first, value = self.once(source, literal=False)
        strict = f"{value} if {first} is True or {value} is False"
        return f"({strict} else _require_bool({value}, {where!r}))"

    def _if(self, term: If, scope) -> str:
        first, test = self.once(self.expr(term.cond, scope), literal=False)
        return (
            f"({self.expr(term.then_branch, scope)} if {first} is True"
            f" else ({self.expr(term.else_branch, scope)} if {test} is False"
            f" else _require_bool({test}, 'if')))"
        )

    def _unop(self, term: UnOp, scope) -> str:
        if term.op not in ("not", "-"):
            # Unknown unary operator: the interpreter raises the exact error.
            return self.fallback(term, scope)
        first, value = self.once(self.expr(term.operand, scope), literal=term.op == "-")
        if term.op == "not":
            return (
                f"(False if {first} is True else"
                f" (True if {value} is False else _require_bool({value}, 'not')))"
            )
        return (
            f"(-{value} if type({first}) is int or type({value}) is float"
            f" else _not_number({value}))"
        )

    def _binop(self, term: BinOp, scope) -> str:
        op = term.op
        if op not in _BINARY:
            # Unknown operator: the interpreter raises the exact error.
            return self.fallback(term, scope)
        left, right = self.expr(term.left, scope), self.expr(term.right, scope)
        if op in ("and", "or"):
            short = op == "or"  # the value that short-circuits
            first, lv = self.once(left, literal=False)
            return (
                f"({short} if {first} is {short} else ({self._strict(right, op)}"
                f" if {lv} is {not short} else _require_bool({lv}, {op!r})))"
            )
        if op in ("=", "!="):
            return f"({left} {'==' if op == '=' else '!='} {right})"
        if op in ("/", "div", "mod"):
            return f"_arith({op!r}, {left}, {right})"
        if op in ("in", "union", "intersect", "except"):
            return f"_binop({op!r}, {left}, {right})"
        (left, lv), (right, rv) = self.once(left), self.once(right)
        if op in ("+", "-", "*"):
            # Exact-int fast path (``type is int`` excludes bool, matching
            # the interpreter's number discipline); floats, string
            # concatenation and type errors are Evaluator._arith's.
            return (
                f"({lv} {op} {rv} if (type({left}) is int) & (type({right}) is int)"
                f" else _arith({op!r}, {lv}, {rv}))"
            )
        # A comparison of two ints, floats or strs cannot raise; any other
        # pair goes through the evaluator's TypeError -> EvaluationError.
        for literal, other in ((rv, left), (lv, right)):
            if not literal.isidentifier():  # the literal's type is the one to test for
                plain = f"type({other}) is {'int' if literal[0] in '-0123456789' else 'str'}"
                break
        else:
            kind = self.fresh("_t")
            plain = (
                f"({kind} := type({left})) is type({right})"
                f" and ({kind} is int or {kind} is float or {kind} is str)"
            )
        return f"({lv} {op} {rv} if {plain} else _binop({op!r}, {lv}, {rv}))"

    def _call(self, term: Call, scope) -> str:
        name = term.name
        # Only straight calls into known builtins compile; a name bound by
        # the plan (a closure-valued variable) or a user-registered function
        # stays interpreted. Resolution still happens through the runtime so
        # a global that shadows a builtin name wins, as in the interpreter.
        if name in scope or name not in DEFAULT_BUILTINS:
            return self.fallback(term, scope)
        args = "".join(f", {self.expr(arg, scope)}" for arg in term.args)
        return f"_apply(_callable({name!r}){args}, name={name!r})"


_BINARY = frozenset("and or = != < <= > >= + - * / div mod in union intersect except".split())

_EMITTERS: dict[type, Callable[..., str]] = {
    Const: Emitter._const,
    Var: Emitter._var,
    Proj: Emitter._proj,
    Deref: Emitter._deref,
    Index: Emitter._index,
    RecordCons: Emitter._record,
    TupleCons: Emitter._tuple,
    BinOp: Emitter._binop,
    UnOp: Emitter._unop,
    If: Emitter._if,
    Call: Emitter._call,
    Update: Emitter._update,
    Assign: Emitter._assign,
}

#: the §4.2 effects, which verify mode checks operand by operand
_EFFECTS = (Update, Assign)

#: What the Python compiler raises for source nested deeper than it takes.
TOO_DEEP = (SyntaxError, RecursionError, MemoryError)
