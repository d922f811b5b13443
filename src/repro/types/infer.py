"""Type inference and checking for calculus terms.

Two jobs:

1. **Inference** — compute the type of a term from the types of its free
   variables, read only from the environment the caller hands in.
   Inference is *gradual*: anything unknowable becomes ``any`` and
   checking continues, so partially-annotated programs still get the
   important guarantees.

2. **Well-formedness** — the paper's static C/I restriction. For every
   comprehension ``M{ e | ..., v <- u, ... }`` the collection monoid
   ``N`` of ``u`` must satisfy ``props(N) ⊆ props(M)`` (comprehensions
   are sugar for ``hom[N -> M]``), and every explicit ``hom`` is checked
   the same way. Violations raise :class:`WellFormednessError` at check
   time, never at run time — this is the property the paper holds up
   against SRU.
"""

from __future__ import annotations

from typing import Mapping, Optional

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
    RecordCons,
    Singleton,
    Term,
    TupleCons,
    UnOp,
    Update,
    Var,
)
from repro.errors import TypingError, WellFormednessError
from repro.eval.builtins import ARITY, arity_error
from repro.monoids.base import Monoid, check_hom_well_formed
from repro.monoids.registry import static_monoid
from repro.types.schema import Schema
from repro.types.types import (
    ANY,
    TAny,
    TBase,
    TBOOL,
    TClass,
    TColl,
    TFLOAT,
    TFunc,
    TINT,
    TNONE,
    TObj,
    TRecord,
    TSTRING,
    TTuple,
    TVector,
    Type,
    is_bool,
    is_numeric,
    join_numeric,
)
from repro.values import Bag, OrderedSet, Record, Vector


def _known(ref: MonoidRef | str) -> Monoid:
    """The monoid ``ref`` names (:func:`~repro.monoids.static_monoid`);
    an unregistered name is a :class:`TypingError`."""
    monoid = static_monoid(ref)
    if monoid is None:
        raise TypingError(f"unknown monoid {str(ref)!r} in type check")
    return monoid


def check_generator_well_formed(source_monoid: str, output: MonoidRef) -> None:
    """The comprehension form of the paper's restriction.

    A generator over an ``N`` collection inside an ``M``-comprehension
    desugars to ``hom[N -> M]``, so ``props(N) ⊆ props(M)`` must hold.
    """
    target = _known(output)
    missing = _known(source_monoid).properties - target.properties
    if missing:
        raise WellFormednessError(
            f"comprehension over {output} has a generator ranging over a "
            f"{source_monoid} collection, but {output} lacks "
            f"{{{', '.join(sorted(missing))}}}: the implied "
            f"hom[{source_monoid} -> {output}] is not well formed"
        )


class TypeChecker:
    """Infers types and enforces well-formedness for calculus terms.

    By default the checker is fail-fast: the first violation raises
    (the behavior the evaluation path relies on). When ``on_error`` is
    supplied — a callable ``(error, node) -> None`` — the checker
    instead *collects*: every violation is reported to the callback at
    the node that caused it, inference of that node degrades to
    ``any``, and checking continues. This is what lets
    :mod:`repro.lint` surface all static errors in one pass instead of
    stopping at the first.

    Either way :attr:`source_types` holds the type inferred for each
    ``Generator``'s source (by ``id``): what QL101 reads, not re-infers.
    """

    def __init__(self, schema: Optional[Schema] = None, on_error=None) -> None:
        self.schema = schema
        self._on_error = on_error
        self.source_types: dict[int, Type] = {}

    # -- public API ----------------------------------------------------------

    def infer(self, term: Term, tenv: Mapping[str, Type] | None = None) -> Type:
        """Infer the type of ``term`` under ``tenv``, the only types of
        free names (never written); raise on static errors.

        >>> from repro.calculus import comp, gen, var, const
        >>> TypeChecker().infer(comp("sum", var("a"), [gen("a", const((1, 2)))]))
        TBase(name='int')
        """
        return self._infer(term, tenv if tenv is not None else {})

    def check(self, term: Term, tenv: Mapping[str, Type] | None = None) -> Type:
        """Alias of :meth:`infer`, emphasising the checking role."""
        return self.infer(term, tenv)

    # -- dispatcher --------------------------------------------------------------

    def _infer(self, term: Term, env: dict[str, Type]) -> Type:
        if self._on_error is None:
            return self._dispatch(term, env)
        try:
            return self._dispatch(term, env)
        except (TypingError, WellFormednessError) as err:
            self._on_error(err, term)
            return ANY

    def _dispatch(self, term: Term, env: dict[str, Type]) -> Type:
        if isinstance(term, Const):
            return type_of_value(term.value)
        if isinstance(term, Var):
            if term.name in env:
                return env[term.name]
            raise TypingError(f"unbound variable {term.name!r} in type check")
        if isinstance(term, Lambda):
            body = self._infer(term.body, {**env, term.param: ANY})
            return TFunc(ANY, body)
        if isinstance(term, Apply):
            fn = self._infer(term.fn, env)
            self._infer(term.arg, env)
            if isinstance(fn, TFunc):
                return fn.result
            if isinstance(fn, TAny):
                return ANY
            raise TypingError(f"application of non-function type {fn}")
        if isinstance(term, Let):
            value = self._infer(term.value, env)
            return self._infer(term.body, {**env, term.var: value})
        if isinstance(term, RecordCons):
            return TRecord(
                tuple((name, self._infer(value, env)) for name, value in term.fields)
            )
        if isinstance(term, TupleCons):
            return TTuple(tuple(self._infer(item, env) for item in term.items))
        if isinstance(term, Proj):
            return self._infer_proj(term, env)
        if isinstance(term, Index):
            return self._infer_index(term, env)
        if isinstance(term, BinOp):
            return self._infer_binop(term, env)
        if isinstance(term, UnOp):
            return self._infer_unop(term, env)
        if isinstance(term, If):
            return self._infer_if(term, env)
        if isinstance(term, Empty):
            return self._monoid_result_type(term.monoid, ANY, env)
        if isinstance(term, Singleton):
            element = self._infer(term.element, env)
            if term.index is not None:
                index_ty = self._infer(term.index, env)
                if not is_numeric(index_ty):
                    raise TypingError(f"vector unit index must be numeric, got {index_ty}")
            return self._monoid_result_type(term.monoid, element, env)
        if isinstance(term, Merge):
            left = self._infer(term.left, env)
            right = self._infer(term.right, env)
            self._require_compatible(left, right, "merge operands")
            return left if not isinstance(left, TAny) else right
        if isinstance(term, Comprehension):
            return self._infer_comprehension(term, env)
        if isinstance(term, Hom):
            return self._infer_hom(term, env)
        if isinstance(term, Call):
            return self._infer_call(term, env)
        if isinstance(term, MethodCall):
            return self._infer_method(term, env)
        if isinstance(term, New):
            state = self._infer(term.state, env)
            return TObj(state)
        if isinstance(term, Deref):
            target = self._infer(term.target, env)
            if isinstance(target, TObj):
                return target.state
            if isinstance(target, (TAny, TClass)):
                return ANY
            raise TypingError(f"dereference of non-object type {target}")
        if isinstance(term, Assign):
            target = self._infer(term.target, env)
            value = self._infer(term.value, env)
            if isinstance(target, TObj):
                self._require_compatible(target.state, value, "assignment")
            elif not isinstance(target, (TAny, TClass)):
                raise TypingError(f"assignment to non-object type {target}")
            return TBOOL
        if isinstance(term, Update):
            self._infer(term.base, env)
            self._infer(term.value, env)
            return TBOOL
        raise TypingError(f"cannot type {type(term).__name__}")

    # -- structured cases ----------------------------------------------------------

    def _infer_proj(self, term: Proj, env: dict[str, Type]) -> Type:
        base = self._infer(term.base, env)
        if isinstance(base, TObj):
            base = base.state  # implicit dereference, as in OQL paths
        if isinstance(base, TRecord):
            ty = base.field_type(term.name)
            if ty is None:
                raise TypingError(
                    f"record type {base} has no field {term.name!r}"
                )
            return ty
        if isinstance(base, TClass):
            if self.schema is not None:
                ty = self.schema.attribute_type(base.name, term.name)
                if ty is not None:
                    return ty
                if self.schema.has_class(base.name):
                    raise TypingError(
                        f"class {base.name} has no attribute {term.name!r}"
                    )
            return ANY
        if isinstance(base, TAny):
            return ANY
        raise TypingError(f"cannot project {term.name!r} from type {base}")

    def _infer_index(self, term: Index, env: dict[str, Type]) -> Type:
        base = self._infer(term.base, env)
        position = self._infer(term.index, env)
        if not is_numeric(position):
            raise TypingError(f"index must be numeric, got {position}")
        if isinstance(base, TVector):
            return base.element
        if isinstance(base, TColl) and base.monoid in ("list", "oset", "sorted", "sortedbag"):
            return base.element
        if isinstance(base, TColl) and base.monoid == "string":
            return TSTRING
        if isinstance(base, (TAny, TTuple)):
            return ANY
        raise TypingError(f"cannot index type {base}")

    def _infer_binop(self, term: BinOp, env: dict[str, Type]) -> Type:
        op = term.op
        left = self._infer(term.left, env)
        right = self._infer(term.right, env)
        if op in ("and", "or"):
            if not is_bool(left) or not is_bool(right):
                raise TypingError(f"{op} requires booleans, got {left}, {right}")
            return TBOOL
        if op in ("=", "!="):
            return TBOOL
        if op in ("<", "<=", ">", ">="):
            self._require_compatible(left, right, f"comparison {op}")
            return TBOOL
        if op in ("+", "-", "*", "/", "div", "mod"):
            if op == "+" and left == TSTRING and right == TSTRING:
                return TSTRING
            if not is_numeric(left) or not is_numeric(right):
                raise TypingError(f"arithmetic {op} on {left}, {right}")
            if op == "/":
                return TFLOAT
            if op == "div":
                return TINT
            return join_numeric(left, right)
        if op == "in":
            element = self._element_type(right, "right operand of `in`")
            self._require_compatible(left, element, "`in` membership")
            return TBOOL
        if op in ("union", "intersect", "except"):
            self._require_compatible(left, right, op)
            return left if not isinstance(left, TAny) else right
        raise TypingError(f"unknown operator {op!r}")

    def _infer_unop(self, term: UnOp, env: dict[str, Type]) -> Type:
        operand = self._infer(term.operand, env)
        if term.op == "not":
            if not is_bool(operand):
                raise TypingError(f"not of non-boolean {operand}")
            return TBOOL
        if not is_numeric(operand):
            raise TypingError(f"negation of non-number {operand}")
        return operand

    def _infer_if(self, term: If, env: dict[str, Type]) -> Type:
        cond = self._infer(term.cond, env)
        if not is_bool(cond):
            raise TypingError(f"if condition must be boolean, got {cond}")
        then_ty = self._infer(term.then_branch, env)
        else_ty = self._infer(term.else_branch, env)
        if then_ty == else_ty:
            return then_ty
        if is_numeric(then_ty) and is_numeric(else_ty):
            return join_numeric(then_ty, else_ty)
        if isinstance(then_ty, TAny):
            return else_ty
        if isinstance(else_ty, TAny):
            return then_ty
        # Subclass join through the schema.
        if (
            isinstance(then_ty, TClass)
            and isinstance(else_ty, TClass)
            and self.schema is not None
        ):
            if self.schema.is_subclass(then_ty.name, else_ty.name):
                return else_ty
            if self.schema.is_subclass(else_ty.name, then_ty.name):
                return then_ty
        return ANY

    def _infer_comprehension(self, term: Comprehension, env: dict[str, Type]) -> Type:
        scope = dict(env)
        for qual in term.qualifiers:
            if isinstance(qual, Generator):
                source = self._infer(qual.source, scope)
                self.source_types[id(qual)] = source
                element, source_monoid = self._generator_element(source)
                if source_monoid is not None:
                    try:
                        check_generator_well_formed(source_monoid, term.monoid)
                    except WellFormednessError as err:
                        if self._on_error is None:
                            raise
                        # Report at the generator (it carries the span of
                        # its from-clause) and keep checking the rest; a
                        # translator-made collection's (a group-by partition
                        # is a bag by ODMG fiat, whatever the sources) at the
                        # comprehension, which the linter skips.
                        implicit = getattr(term, "implicit_collection", False)
                        self._on_error(err, term if implicit else qual)
                scope[qual.var] = element
                if qual.index_var is not None:
                    scope[qual.index_var] = TINT
            elif isinstance(qual, Bind):
                scope[qual.var] = self._infer(qual.value, scope)
            else:
                pred = self._infer(qual.pred, scope)
                if not is_bool(pred):
                    raise TypingError(
                        f"comprehension predicate must be boolean, got {pred}"
                    )
        head = self._infer(term.head, scope)
        return self._monoid_result_type(term.monoid, head, env)

    def _infer_hom(self, term: Hom, env: dict[str, Type]) -> Type:
        source_name = term.source.name
        target_name = term.target.name
        source = static_monoid(term.source)
        if source is None or not source.is_collection:
            raise TypingError(f"hom source {source_name} must be a collection monoid")
        target = _known(term.target)
        check_hom_well_formed(source, target)
        arg = self._infer(term.arg, env)
        element, arg_monoid = self._generator_element(arg)
        if arg_monoid is not None and arg_monoid != source_name:
            raise TypingError(
                f"hom[{source_name} -> ...] applied to a {arg_monoid} collection"
            )
        body = self._infer(term.body, {**env, term.var: element})
        if target.is_collection:
            # body must itself be a target-monoid collection
            if isinstance(body, TColl) and body.monoid == target_name:
                return body
            if isinstance(body, TAny):
                return TColl(target_name, ANY)
            raise TypingError(
                f"hom body must produce a {target_name} collection, got {body}"
            )
        return body

    def _infer_call(self, term: Call, env: dict[str, Type]) -> Type:
        arg_types = [self._infer(arg, env) for arg in term.args]
        name = term.name
        if name in ARITY:
            message = arity_error(name, len(arg_types))
            if message is not None:
                raise TypingError(message)
        if name in ("count", "length"):
            self._element_type(arg_types[0], name)
            return TINT
        if name == "element":
            return self._element_type(arg_types[0], name)
        if name in ("avg", "sqrt", "abs"):
            ty = self._element_type(arg_types[0], name) if name == "avg" else arg_types[0]
            if not is_numeric(ty):
                verb = "aggregates" if name == "avg" else "requires"
                raise TypingError(f"{name} {verb} numbers, got {ty}")
            return ty if name == "abs" else TFLOAT
        if name == "range":
            for ty in arg_types:
                if not isinstance(ty, TAny) and ty != TINT:
                    raise TypingError(f"range requires integers, got {ty}")
            return TColl("list", TINT)
        if name == "flatten":
            outer = self._element_type(arg_types[0], name)
            return self._element_flatten(arg_types[0], outer)
        if name in ("to_set", "distinct"):
            return TColl("set", self._element_type(arg_types[0], name))
        if name == "to_bag":
            return TColl("bag", self._element_type(arg_types[0], name))
        if name == "to_list":
            return TColl("list", self._element_type(arg_types[0], name))
        if name in ("first", "last"):
            return self._element_type(arg_types[0], name)
        if name == "like":
            for ty in arg_types:
                if not isinstance(ty, TAny) and ty != TSTRING:
                    raise TypingError(f"like requires strings, got {ty}")
            return TBOOL
        return ANY

    def _element_flatten(self, outer: Type, inner: Type) -> Type:
        if isinstance(outer, TColl) and isinstance(inner, TColl):
            return TColl(outer.monoid, inner.element)
        return ANY

    def _infer_method(self, term: MethodCall, env: dict[str, Type]) -> Type:
        base = self._infer(term.base, env)
        for arg in term.args:
            self._infer(arg, env)
        if isinstance(base, TClass) and self.schema is not None:
            mdef = self.schema.method_def(base.name, term.name)
            if mdef is not None:
                return mdef.result
            if self.schema.has_class(base.name):
                raise TypingError(f"class {base.name} has no method {term.name!r}")
        return ANY

    # -- helpers ---------------------------------------------------------------------

    def _generator_element(self, source: Type) -> tuple[Type, Optional[str]]:
        """Element type and monoid name of a generator's source type."""
        if isinstance(source, TColl):
            return source.element, source.monoid
        if isinstance(source, TVector):
            return source.element, None  # vectors impose no C/I constraint
        if isinstance(source, TAny):
            return ANY, None
        if isinstance(source, TObj):
            return self._generator_element(source.state)
        raise TypingError(f"generator ranges over non-collection type {source}")

    def _element_type(self, source: Type, where: str) -> Type:
        if isinstance(source, TColl):
            return source.element
        if isinstance(source, TVector):
            return source.element
        if isinstance(source, TAny):
            return ANY
        raise TypingError(f"{where} requires a collection, got {source}")

    def _monoid_result_type(
        self, ref: MonoidRef, element: Type, env: dict[str, Type]
    ) -> Type:
        name = ref.name
        if ref.is_vector:
            size = None
            if ref.size is not None and isinstance(ref.size, Const):
                size = ref.size.value
            return TVector(element, size)
        if name in ("sum", "prod"):
            if not is_numeric(element):
                raise TypingError(f"{name} aggregates numbers, got {element}")
            return element if not isinstance(element, TAny) else ANY
        if name in ("max", "min"):
            if isinstance(element, (TRecord, TClass, TObj, TColl, TVector)):
                raise TypingError(f"{name} aggregates totally ordered values, got {element}")
            return element
        if name in ("some", "all"):
            if not is_bool(element):
                raise TypingError(f"{name} aggregates booleans, got {element}")
            return TBOOL
        if name == "string":
            return TSTRING
        if name in ("sorted", "sortedbag", "oset"):
            # Table 1: these monoids have *type* list(a) — consumers see
            # an ordered list, so no C/I restriction survives construction.
            return TColl("list", element)
        monoid = static_monoid(name)
        if monoid is None:
            raise TypingError(f"unknown monoid {name!r}")
        # A registered primitive's carrier is its own business.
        return TColl(name, element) if monoid.is_collection else ANY

    def _require_compatible(self, left: Type, right: Type, where: str) -> None:
        if not compatible(left, right):
            raise TypingError(f"incompatible types in {where}: {left} vs {right}")


def compatible(left: Type, right: Type) -> bool:
    """Structural compatibility, treating ``any`` as a wildcard."""
    if isinstance(left, TAny) or isinstance(right, TAny):
        return True
    if left == right:
        return True
    if is_numeric(left) and is_numeric(right):
        return True
    if isinstance(left, TColl) and isinstance(right, TColl):
        return left.monoid == right.monoid and compatible(left.element, right.element)
    if isinstance(left, TRecord) and isinstance(right, TRecord):
        lnames = {n for n, _ in left.fields}
        rnames = {n for n, _ in right.fields}
        if lnames != rnames:
            return False
        rmap = dict(right.fields)
        return all(compatible(ty, rmap[name]) for name, ty in left.fields)
    if isinstance(left, TTuple) and isinstance(right, TTuple):
        return len(left.items) == len(right.items) and all(
            compatible(l, r) for l, r in zip(left.items, right.items)
        )
    if isinstance(left, TObj) and isinstance(right, TObj):
        return compatible(left.state, right.state)
    if isinstance(left, TClass) and isinstance(right, TClass):
        return True  # subclass relation is checked where a schema exists
    return False


def type_of_value(value) -> Type:
    """The type of a runtime value (used for constants and loaded data)."""
    if value is None:
        return TNONE
    if isinstance(value, bool):
        return TBOOL
    if isinstance(value, int):
        return TINT
    if isinstance(value, float):
        return TFLOAT
    if isinstance(value, str):
        return TSTRING
    if isinstance(value, Record):
        return TRecord(tuple((k, type_of_value(v)) for k, v in value.items()))
    if isinstance(value, (tuple, list)):
        return TColl("list", _common_element_type(value))
    if isinstance(value, frozenset) or isinstance(value, set):
        return TColl("set", _common_element_type(value))
    if isinstance(value, Bag):
        return TColl("bag", _common_element_type(value.distinct()))
    if isinstance(value, OrderedSet):
        return TColl("oset", _common_element_type(value))
    if isinstance(value, Vector):
        return TVector(_common_element_type(value.to_list()), len(value))
    return ANY


def _common_element_type(values) -> Type:
    element: Optional[Type] = None
    for value in values:
        ty = type_of_value(value)
        if element is None:
            element = ty
        elif element != ty:
            if is_numeric(element) and is_numeric(ty):
                element = join_numeric(element, ty)
            else:
                return ANY
    return element if element is not None else ANY
