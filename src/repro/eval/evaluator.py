"""The reference evaluator: direct denotational semantics of the calculus.

This module gives every calculus term a meaning by straightforward
recursive interpretation. It is deliberately simple — no plans, no
optimization — because it serves as the *ground truth* against which
the normalizer and the algebra engine are verified: every rewrite rule
and every physical plan must produce results equal to this evaluator's.

Comprehension semantics follows the paper's reduction to monoid
homomorphisms:

    M{ e | v <- u, r }  =  hom[N -> M](\\v. M{ e | r })(u)
    M{ e | pred, r }    =  if pred then M{ e | r } else zero(M)
    M{ e | v == u, r }  =  M{ e | r }[u/v]
    M{ e | }            =  unit(M)(e)

with an O(n) accumulator in place of repeated merges, and qualifiers
evaluated left-to-right in deterministic collection order — which also
fixes the heap-threading order for the section 4.2 object operations.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.calculus.ast import (
    Apply,
    Assign,
    Bind,
    BinOp,
    Call,
    Comprehension,
    Const,
    Deref,
    Empty,
    Filter,
    Generator,
    Hom,
    If,
    Index,
    Lambda,
    Let,
    Merge,
    MethodCall,
    MonoidRef,
    New,
    Proj,
    Qualifier,
    RecordCons,
    Singleton,
    Term,
    TupleCons,
    UnOp,
    Update,
    Var,
)
from repro.errors import EvaluationError, ReproError
from repro.eval.builtins import DEFAULT_BUILTINS, arity_error, runtime_monoid_of
from repro.eval.env import Env
from repro.monoids import (
    CollectionMonoid,
    Monoid,
    VectorMonoid,
    get_monoid,
    sorted_bag_monoid,
    sorted_monoid,
)
from repro.objects.store import Obj, ObjectStore
from repro.values import Bag, OrderedSet, Record, Vector
from repro.values.compare import stored

#: Raised (as an EvaluationError) here and by the algebra's Reduce fold.
VECTOR_HEAD_ERROR = "a vector comprehension head must be a (value, index) pair"
#: Raised (as an EvaluationError) here and by generated code's indexed
#: scans, ``.format``-ted with the unordered source's type name.
INDEXED_SOURCE_ERROR = (
    "indexed generators require an ordered collection (vector, list, oset), got {}"
)


class Closure:
    """A lambda value: parameter, body and captured environment."""

    __slots__ = ("param", "body", "env")

    def __init__(self, param: str, body: Term, env: Env) -> None:
        self.param = param
        self.body = body
        self.env = env

    def __repr__(self) -> str:
        return f"<closure \\{self.param}. {self.body}>"


class Evaluator:
    """Evaluates calculus terms against bindings, builtins and a heap.

    >>> from repro.calculus import comp, gen, var, const, tup
    >>> ev = Evaluator()
    >>> term = comp("set", tup(var("a"), var("b")),
    ...             [gen("a", const((1, 2, 3))), gen("b", const(Bag((4, 5))))])
    >>> sorted(ev.evaluate(term))
    [(1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)]
    """

    def __init__(
        self,
        bindings: dict[str, Any] | None = None,
        functions: dict[str, Callable[..., Any]] | None = None,
        methods: dict[str, Callable[..., Any]] | None = None,
        store: ObjectStore | None = None,
    ) -> None:
        self.global_env = Env(dict(bindings or {}))
        self.functions = dict(DEFAULT_BUILTINS)
        if functions:
            self.functions.update(functions)
        self.methods = dict(methods or {})
        self.store = store if store is not None else ObjectStore()

    # -- public API ---------------------------------------------------------

    def evaluate(self, term: Term, env: Env | None = None) -> Any:
        """Evaluate ``term``; free variables resolve in ``env`` or globals."""
        return self._eval(term, env if env is not None else self.global_env)

    def bind_global(self, name: str, value: Any) -> None:
        """Add a persistent global binding (e.g. a database extent)."""
        self.global_env = self.global_env.bind(name, value)

    # -- dispatcher -----------------------------------------------------------

    def _eval(self, term: Term, env: Env) -> Any:
        method = _DISPATCH.get(type(term))
        if method is None:
            raise EvaluationError(f"cannot evaluate {type(term).__name__}")
        return method(self, term, env)

    # -- leaves ----------------------------------------------------------------

    def _eval_const(self, term: Const, env: Env) -> Any:
        value = term.value
        if type(value) in _SCALARS:  # nothing to freeze
            return value
        return _freeze_const(value)

    def _eval_var(self, term: Var, env: Env) -> Any:
        return env.lookup(term.name)

    # -- functions ---------------------------------------------------------------

    def _eval_lambda(self, term: Lambda, env: Env) -> Closure:
        return Closure(term.param, term.body, env)

    def _eval_apply(self, term: Apply, env: Env) -> Any:
        fn = self._eval(term.fn, env)
        arg = self._eval(term.arg, env)
        return self.apply_callable(fn, arg)

    def apply_callable(self, fn: Any, *args: Any, name: str | None = None) -> Any:
        """Apply a closure or a Python callable to arguments. A Python
        callable's failure is an :class:`EvaluationError`: a builtin's
        wrong argument count, or any other function's exception, named
        by ``name``, the name it was called by, when there is one."""
        if isinstance(fn, Closure):
            result: Any = fn
            for arg in args:
                if not isinstance(result, Closure):
                    raise EvaluationError("over-application of a closure")
                result = self._eval(result.body, result.env.bind(result.param, arg))
            return result
        if callable(fn):
            try:
                return fn(*args)
            except (ReproError, RecursionError):
                raise
            except Exception as err:
                raise _call_error(fn, name, len(args), err) from err
        raise EvaluationError(f"value is not applicable: {fn!r}")

    def _eval_let(self, term: Let, env: Env) -> Any:
        value = self._eval(term.value, env)
        return self._eval(term.body, env.bind(term.var, value))

    # -- data constructors ----------------------------------------------------------

    def _eval_record(self, term: RecordCons, env: Env) -> Record:
        return Record({name: self._eval(value, env) for name, value in term.fields})

    def _eval_tuple(self, term: TupleCons, env: Env) -> tuple:
        return tuple(self._eval(item, env) for item in term.items)

    def _eval_proj(self, term: Proj, env: Env) -> Any:
        base = self._eval(term.base, env)
        return self.project(base, term.name)

    def project(self, base: Any, name: str) -> Any:
        """Field access with implicit dereference of objects (OQL paths)."""
        if isinstance(base, Obj):
            base = self.store.deref(base)
        if isinstance(base, Record):
            return base[name]
        raise EvaluationError(f"cannot project field {name!r} from {type(base).__name__}")

    def _eval_index(self, term: Index, env: Env) -> Any:
        return self.index(self._eval(term.base, env), self._eval(term.index, env))

    def index(self, base: Any, position: Any) -> Any:
        """Positional access with implicit dereference of objects."""
        if isinstance(base, Obj):
            base = self.store.deref(base)
        if isinstance(base, Vector):
            return base[position]
        if isinstance(base, (tuple, list, str, OrderedSet)):
            try:
                return base[position]
            except (IndexError, TypeError) as exc:
                raise EvaluationError(f"bad index {position!r}: {exc}") from None
        raise EvaluationError(f"cannot index into {type(base).__name__}")

    # -- operators -----------------------------------------------------------------

    def _eval_binop(self, term: BinOp, env: Env) -> Any:
        op = term.op
        if op == "and":
            left = self._eval(term.left, env)
            self._require_bool(left, op)
            if not left:
                return False
            right = self._eval(term.right, env)
            self._require_bool(right, op)
            return right
        if op == "or":
            left = self._eval(term.left, env)
            self._require_bool(left, op)
            if left:
                return True
            right = self._eval(term.right, env)
            self._require_bool(right, op)
            return right

        left = self._eval(term.left, env)
        right = self._eval(term.right, env)
        return self.apply_binop(op, left, right)

    def apply_binop(self, op: str, left: Any, right: Any) -> Any:
        """Strict binary operators on already-evaluated operands."""
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        if op in ("<", "<=", ">", ">="):
            try:
                if op == "<":
                    return left < right
                if op == "<=":
                    return left <= right
                if op == ">":
                    return left > right
                return left >= right
            except TypeError:
                raise EvaluationError(
                    f"cannot compare {type(left).__name__} {op} {type(right).__name__}"
                ) from None
        if op in ("+", "-", "*", "/", "div", "mod"):
            return self._arith(op, left, right)
        if op == "in":
            monoid = runtime_monoid_of(right)
            if isinstance(monoid, VectorMonoid):
                return any(value == left for _, value in monoid.iterate(right))
            return monoid.contains(right, left)
        if op in ("union", "intersect", "except"):
            return self._set_op(op, left, right)
        raise EvaluationError(f"unknown operator {op!r}")

    def _arith(self, op: str, left: Any, right: Any) -> Any:
        if op == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        if not isinstance(left, (int, float)) or isinstance(left, bool):
            raise EvaluationError(f"arithmetic {op!r} on non-number {left!r}")
        if not isinstance(right, (int, float)) or isinstance(right, bool):
            raise EvaluationError(f"arithmetic {op!r} on non-number {right!r}")
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise EvaluationError("division by zero")
            return left / right
        if op == "div":
            if right == 0:
                raise EvaluationError("division by zero")
            return left // right
        if right == 0:
            raise EvaluationError("modulo by zero")
        return left % right

    def _set_op(self, op: str, left: Any, right: Any) -> Any:
        if isinstance(left, frozenset) and isinstance(right, frozenset):
            if op == "union":
                return left | right
            if op == "intersect":
                return left & right
            return left - right
        if isinstance(left, Bag) and isinstance(right, Bag):
            if op == "union":
                return left.union(right)
            if op == "intersect":
                return left.intersection(right)
            return left.difference(right)
        kinds = f"{type(left).__name__} and {type(right).__name__}"
        if op != "union":
            raise EvaluationError(f"{op} requires two sets or two bags, got {kinds}")
        try:
            monoid = runtime_monoid_of(left)
            same = monoid == runtime_monoid_of(right)
        except EvaluationError:  # one side is no collection
            same = False
        if not same:
            raise EvaluationError(f"union requires two collections of one kind, got {kinds}")
        return monoid.merge(left, right)

    def _eval_unop(self, term: UnOp, env: Env) -> Any:
        value = self._eval(term.operand, env)
        if term.op == "not":
            self._require_bool(value, "not")
            return not value
        if term.op == "-":
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise EvaluationError(f"negation of non-number {value!r}")
            return -value
        raise EvaluationError(f"unknown unary operator {term.op!r}")

    def _eval_if(self, term: If, env: Env) -> Any:
        cond = self._eval(term.cond, env)
        self._require_bool(cond, "if")
        branch = term.then_branch if cond else term.else_branch
        return self._eval(branch, env)

    # -- monoid primitives ---------------------------------------------------------

    def resolve_monoid(self, ref: MonoidRef, env: Env) -> Monoid:
        """Resolve a syntactic monoid reference to a live monoid."""
        if ref.name in ("sorted", "sortedbag"):
            if ref.key is None:
                raise EvaluationError(f"{ref.name} monoid requires a key function")
            key_value = self._eval(ref.key, env)

            def key_fn(value: Any, _key=key_value) -> Any:
                return self.apply_callable(_key, value)

            factory = sorted_monoid if ref.name == "sorted" else sorted_bag_monoid
            return factory(key_fn, key_name=str(ref.key))
        if ref.name == "vec":
            if ref.element is None or ref.size is None:
                raise EvaluationError("vector monoid requires element monoid and size")
            element = self.resolve_monoid(ref.element, env)
            size = self._eval(ref.size, env)
            if not isinstance(size, int) or isinstance(size, bool) or size < 0:
                raise EvaluationError(f"vector size must be a non-negative int, got {size!r}")
            return VectorMonoid(element, size)
        return get_monoid(ref.name)

    def _eval_empty(self, term: Empty, env: Env) -> Any:
        return self.resolve_monoid(term.monoid, env).zero()

    def _eval_singleton(self, term: Singleton, env: Env) -> Any:
        monoid = self.resolve_monoid(term.monoid, env)
        element = self._eval(term.element, env)
        if isinstance(monoid, VectorMonoid):
            if term.index is None:
                raise EvaluationError("vector unit requires an index")
            return monoid.unit(element, self._eval(term.index, env))
        return monoid.unit(element)

    def _eval_merge(self, term: Merge, env: Env) -> Any:
        monoid = self.resolve_monoid(term.monoid, env)
        left = self._eval(term.left, env)
        right = self._eval(term.right, env)
        return monoid.merge(left, right)

    # -- comprehensions ---------------------------------------------------------------

    def _eval_comprehension(self, term: Comprehension, env: Env) -> Any:
        monoid = self.resolve_monoid(term.monoid, env)
        head = term.head
        if isinstance(monoid, CollectionMonoid):
            acc = monoid.accumulator()
            if isinstance(monoid, VectorMonoid):
                def emit(scope: Env) -> None:
                    pair = self._eval(head, scope)
                    if not isinstance(pair, tuple) or len(pair) != 2:
                        raise EvaluationError(VECTOR_HEAD_ERROR)
                    acc.add(pair)
            else:
                def emit(scope: Env) -> None:
                    acc.add(self._eval(head, scope))

            self._run_qualifiers(term.qualifiers, env, emit)
            return acc.finish()

        # Primitive monoid: fold merges over head values.
        cell = [monoid.zero()]

        def emit_primitive(scope: Env) -> None:
            cell[0] = monoid.merge(cell[0], self._eval(head, scope))

        self._run_qualifiers(term.qualifiers, env, emit_primitive)
        return cell[0]

    def _run_qualifiers(
        self,
        qualifiers: Sequence[Qualifier],
        env: Env,
        emit: Callable[[Env], None],
    ) -> None:
        """Depth-first qualifier interpretation, left to right."""
        if not qualifiers:
            emit(env)
            return
        qual, rest = qualifiers[0], qualifiers[1:]
        if isinstance(qual, Generator):
            source = self._eval(qual.source, env)
            if isinstance(source, Obj):
                source = self.store.deref(source)
            monoid = runtime_monoid_of(source)
            if qual.index_var is None:
                if isinstance(monoid, VectorMonoid):
                    for _, value in monoid.iterate(source):
                        self._run_qualifiers(rest, env.bind(qual.var, value), emit)
                else:
                    for value in monoid.iterate(source):
                        self._run_qualifiers(rest, env.bind(qual.var, value), emit)
            else:
                for position, value in self._indexed_iterate(monoid, source):
                    scope = env.bind_many({qual.var: value, qual.index_var: position})
                    self._run_qualifiers(rest, scope, emit)
        elif isinstance(qual, Bind):
            value = self._eval(qual.value, env)
            self._run_qualifiers(rest, env.bind(qual.var, value), emit)
        else:  # Filter
            value = self._eval(qual.pred, env)
            self._require_bool(value, "qualifier predicate")
            if value:
                self._run_qualifiers(rest, env, emit)

    def _indexed_iterate(self, monoid: CollectionMonoid, source: Any):
        """(index, element) pairs for the ``v[i] <- x`` generator form."""
        if isinstance(monoid, VectorMonoid):
            yield from monoid.iterate(source)
            return
        if isinstance(source, (tuple, list, str, OrderedSet)):
            for position, value in enumerate(monoid.iterate(source)):
                yield position, value
            return
        raise EvaluationError(INDEXED_SOURCE_ERROR.format(type(source).__name__))

    # -- homomorphism -------------------------------------------------------------------

    def _eval_hom(self, term: Hom, env: Env) -> Any:
        source = self.resolve_monoid(term.source, env)
        target = self.resolve_monoid(term.target, env)
        if not isinstance(source, CollectionMonoid):
            raise EvaluationError(f"hom source {source.name} must be a collection monoid")
        from repro.monoids import check_hom_well_formed

        check_hom_well_formed(source, target)
        collection = self._eval(term.arg, env)
        result = target.zero()
        iterator = source.iterate(collection)
        if isinstance(source, VectorMonoid):
            iterator = (value for _, value in iterator)
        for element in iterator:
            part = self._eval(term.body, env.bind(term.var, element))
            result = target.merge(result, part)
        return result

    # -- calls ----------------------------------------------------------------------------

    def _eval_call(self, term: Call, env: Env) -> Any:
        if env.has(term.name):
            fn = env.lookup(term.name)
        elif term.name in self.functions:
            fn = self.functions[term.name]
        else:
            raise EvaluationError(f"unknown function {term.name!r}")
        args = [self._eval(arg, env) for arg in term.args]
        return self.apply_callable(fn, *args, name=term.name)

    def _eval_method(self, term: MethodCall, env: Env) -> Any:
        base = self._eval(term.base, env)
        args = [self._eval(arg, env) for arg in term.args]
        if term.name in self.methods:
            return self.methods[term.name](base, *args)
        # Fall back: a record field holding a closure acts as a method.
        target = base
        if isinstance(target, Obj):
            target = self.store.deref(target)
        if isinstance(target, Record) and term.name in target:
            fn = target[term.name]
            return self.apply_callable(fn, *args)
        raise EvaluationError(f"unknown method {term.name!r}")

    # -- objects (section 4.2) ---------------------------------------------------------------

    def _eval_new(self, term: New, env: Env) -> Obj:
        return self.store.new(self._eval(term.state, env))

    def _eval_deref(self, term: Deref, env: Env) -> Any:
        return self.store.deref(self._eval(term.target, env))

    def _eval_assign(self, term: Assign, env: Env) -> bool:
        target = self._eval(term.target, env)
        value = self._eval(term.value, env)
        return self.store.assign(target, value)

    def _eval_update(self, term: Update, env: Env) -> bool:
        target = self._eval(term.base, env)
        value = self._eval(term.value, env)
        return self.apply_update(target, term.field_name, term.op, value)

    def apply_update(self, target: Any, field: str, op: str, value: Any) -> bool:
        """``target.field op value`` on already-evaluated operands (``:=``
        replaces the field, ``+=`` merges into it, :func:`merge_into`):
        the one statement of an update, for the interpreter and for
        generated code. Returns True, so the update stands as a qualifier.
        The store records a write of ``field`` alone (:meth:`ObjectStore.guard`)."""
        if not isinstance(target, Obj):
            raise EvaluationError(
                f"update target must be an object, got {type(target).__name__}"
            )
        state = self.store.deref(target)
        if not isinstance(state, Record):
            raise EvaluationError("update requires an object with record state")
        if op == "+=":
            value = merge_into(state[field], value)
        elif op != ":=":
            raise EvaluationError(f"unknown update operator {op!r}")
        return self.store.assign(target, state.with_field(field, stored(value)), field)

    # -- misc -------------------------------------------------------------------------------------

    @staticmethod
    def _require_bool(value: Any, where: str) -> None:
        if not isinstance(value, bool):
            raise EvaluationError(
                f"{where} requires a boolean, got {type(value).__name__}: {value!r}"
            )


def _call_error(fn: Any, name: str | None, given: int, err: Exception) -> EvaluationError:
    """What a Python callable's exception ``err`` becomes: a builtin called
    by its own name with a wrong count is refused for its count."""
    if name is not None and DEFAULT_BUILTINS.get(name) is fn:
        message = arity_error(name, given)
        if message is not None:
            return EvaluationError(message)
    label = name or getattr(fn, "__name__", type(fn).__name__)
    return EvaluationError(f"function {label!r} raised {type(err).__name__}: {err}")


def merge_into(current: Any, value: Any) -> Any:
    """``+=`` semantics: numeric add, or merge into a collection.

    A non-collection right-hand side is inserted as one element (the
    paper's ``c.hotels += <name=..., ...>`` adds one hotel to a set).
    """
    if isinstance(current, (int, float)) and not isinstance(current, bool):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise EvaluationError(f"+= of non-number {value!r} onto number")
        return current + value
    try:
        monoid = runtime_monoid_of(current)
    except EvaluationError:
        raise EvaluationError(
            f"+= target must be a number or collection, got {type(current).__name__}"
        ) from None
    if type(value) is type(current) or (
        isinstance(value, frozenset) and isinstance(current, frozenset)  # stored or plain
    ):
        return monoid.merge(current, value)
    acc = monoid.accumulator()
    for element in monoid.iterate(current):
        acc.add(element)
    acc.add(value)
    return acc.finish()


_SCALARS = frozenset({int, float, str, bool, type(None)})


def _freeze_const(value: Any) -> Any:
    """Deep-convert Python literals into library carrier values."""
    if isinstance(value, Record):  # a dict too, and already frozen
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_const(v) for v in value)
    if isinstance(value, set):
        return frozenset(_freeze_const(v) for v in value)
    if isinstance(value, dict):
        return Record({k: _freeze_const(v) for k, v in value.items()})
    return value


_DISPATCH = {
    Const: Evaluator._eval_const,
    Var: Evaluator._eval_var,
    Lambda: Evaluator._eval_lambda,
    Apply: Evaluator._eval_apply,
    Let: Evaluator._eval_let,
    RecordCons: Evaluator._eval_record,
    TupleCons: Evaluator._eval_tuple,
    Proj: Evaluator._eval_proj,
    Index: Evaluator._eval_index,
    BinOp: Evaluator._eval_binop,
    UnOp: Evaluator._eval_unop,
    If: Evaluator._eval_if,
    Empty: Evaluator._eval_empty,
    Singleton: Evaluator._eval_singleton,
    Merge: Evaluator._eval_merge,
    Comprehension: Evaluator._eval_comprehension,
    Hom: Evaluator._eval_hom,
    Call: Evaluator._eval_call,
    MethodCall: Evaluator._eval_method,
    New: Evaluator._eval_new,
    Deref: Evaluator._eval_deref,
    Assign: Evaluator._eval_assign,
    Update: Evaluator._eval_update,
}


def evaluate(term: Term, bindings: dict[str, Any] | None = None, **kwargs: Any) -> Any:
    """One-shot evaluation convenience.

    >>> from repro.calculus import comp, gen, var, const
    >>> evaluate(comp("sum", var("a"), [gen("a", const((1, 2, 3)))]))
    6
    """
    return Evaluator(bindings, **kwargs).evaluate(term)
