"""The shape table: how every node class of the calculus is put together.

The calculus has one scoping rule (section 2): a binder scopes over
what follows it — a lambda's parameter over its body, a ``let``'s
variable over its body but not its value, a ``hom``'s variable over its
body but not its argument, and a comprehension's generators and
bindings left to right over the later qualifiers and the head. Monoid
references (``sorted[f]``, ``M[n]``) carry ordinary terms that are
evaluated outside all of the node's own binders.

:data:`SHAPES` states that rule once, per node class, as small
functions; every structural walk (children, free variables,
substitution, alpha renaming, cache keys, def-use, the normalizer's
descent) is a fold or a map over it. Code that gives a node *meaning*
— the evaluator, type inference, the jit compiler, the rules, the
printer, the parsers — still dispatches on the classes itself.

Adding a node class means adding one entry here;
``tests/test_calculus_traversal.py`` fails until it exists.
"""

from __future__ import annotations

from operator import is_
from typing import Any, Callable, Iterator, NamedTuple, Optional

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
    RecordCons,
    Singleton,
    Term,
    TupleCons,
    UnOp,
    Update,
    Var,
)
from repro.errors import CalculusError


def _none(_node: Any) -> tuple:
    return ()


class Shape(NamedTuple):
    """One node class, described for structural purposes.

    ``kids(node)`` are its term children in evaluation order.
    ``build(node, kids, binders)`` is the node with those parts replaced
    and everything else kept.

    A class that carries a ``MonoidRef`` lists the terms inside it (key,
    size, then the element monoid's) first.

    A class that binds says so in three columns: ``binders(node)`` are
    the names it binds, in binding order (``()`` for every other class),
    ``scopes(node)`` gives for each kid how many of them are in scope
    over it, and ``sites(node)`` each binder's ``(kind, binding site)``;
    the last two are ``None`` for a class that binds nothing, which is
    how a walk tells.
    """

    kids: Callable[[Any], tuple[Term, ...]]
    build: Callable[[Any, tuple[Term, ...], tuple[str, ...]], Term]
    binders: Callable[[Any], tuple[str, ...]] = _none
    scopes: Optional[Callable[[Any], tuple[int, ...]]] = None
    sites: Optional[Callable[[Any], tuple[tuple[str, Any], ...]]] = None

    def rebuild(
        self,
        node: Any,
        kids: tuple[Term, ...],
        new_kids: tuple[Term, ...],
        binders: tuple[str, ...] = (),
        new_binders: tuple[str, ...] = (),
    ) -> Term:
        """``build``, but ``node`` itself when no part changed."""
        if new_binders == binders and all(map(is_, new_kids, kids)):
            return node
        return self.build(node, new_kids, new_binders)


# ---------------------------------------------------------------------------
# Monoid references
# ---------------------------------------------------------------------------


def _ref_kids(ref: MonoidRef) -> tuple[Term, ...]:
    out: tuple[Term, ...] = ()
    if ref.key is not None:
        out += (ref.key,)
    if ref.size is not None:
        out += (ref.size,)
    if ref.element is not None:
        out += _ref_kids(ref.element)
    return out


def _ref_build(ref: MonoidRef, kids: Iterator[Term]) -> MonoidRef:
    """``ref`` with its terms replaced by the next ones of ``kids``."""
    key = next(kids) if ref.key is not None else None
    size = next(kids) if ref.size is not None else None
    element = _ref_build(ref.element, kids) if ref.element is not None else None
    if key is ref.key and size is ref.size and element is ref.element:
        return ref
    return MonoidRef(ref.name, key=key, element=element, size=size)


def _build_empty(node: Empty, kids: tuple, _binders: tuple) -> Empty:
    return Empty(_ref_build(node.monoid, iter(kids)))


def _singleton_kids(node: Singleton) -> tuple[Term, ...]:
    kids = _ref_kids(node.monoid) + (node.element,)
    return kids if node.index is None else kids + (node.index,)


def _build_singleton(node: Singleton, kids: tuple, _binders: tuple) -> Singleton:
    rest = iter(kids)
    return Singleton(_ref_build(node.monoid, rest), *rest)


def _build_merge(node: Merge, kids: tuple, _binders: tuple) -> Merge:
    rest = iter(kids)
    return Merge(_ref_build(node.monoid, rest), *rest)


# ---------------------------------------------------------------------------
# Homomorphisms and comprehensions
# ---------------------------------------------------------------------------


def _hom_monoid_kids(node: Hom) -> tuple[Term, ...]:
    return _ref_kids(node.source) + _ref_kids(node.target)


def _build_hom(node: Hom, kids: tuple, binders: tuple) -> Hom:
    rest = iter(kids)
    source = _ref_build(node.source, rest)
    return Hom(source, _ref_build(node.target, rest), binders[0], *rest)


def _comprehension_kids(node: Comprehension) -> tuple[Term, ...]:
    quals = [
        q.source if type(q) is Generator else q.value if type(q) is Bind else q.pred
        for q in node.qualifiers
    ]
    return (*_ref_kids(node.monoid), *quals, node.head)


def _comprehension_sites(node: Comprehension) -> tuple[tuple[str, Any], ...]:
    sites: list[tuple[str, Any]] = []
    for qual in node.qualifiers:
        if type(qual) is Generator:
            sites.append(("generator", qual))
            if qual.index_var is not None:
                sites.append(("generator-index", qual))
        elif type(qual) is Bind:
            sites.append(("bind", qual))
    return tuple(sites)


def _comprehension_binders(node: Comprehension) -> tuple[str, ...]:
    return tuple(
        site.index_var if kind == "generator-index" else site.var
        for kind, site in _comprehension_sites(node)
    )


def _comprehension_scopes(node: Comprehension) -> tuple[int, ...]:
    """Left to right: a qualifier sees the binders of the ones before it,
    the head sees them all, the monoid's terms see none."""
    scopes = [0] * len(_ref_kids(node.monoid))
    bound = 0
    for qual in node.qualifiers:
        scopes.append(bound)
        if type(qual) is Generator:
            bound += 1 if qual.index_var is None else 2
        elif type(qual) is Bind:
            bound += 1
    scopes.append(bound)
    return tuple(scopes)


def _build_comprehension(
    node: Comprehension, kids: tuple, binders: tuple
) -> Comprehension:
    rest, names = iter(kids), iter(binders)
    monoid = _ref_build(node.monoid, rest)
    quals: list[Any] = []
    for qual in node.qualifiers:  # an unchanged qualifier stays the same object
        term = next(rest)
        if type(qual) is Generator:
            var = next(names)
            index_var = None if qual.index_var is None else next(names)
            if term is not qual.source or (var, index_var) != (qual.var, qual.index_var):
                qual = Generator(var, term, index_var)
        elif type(qual) is Bind:
            var = next(names)
            if term is not qual.value or var != qual.var:
                qual = Bind(var, term)
        elif term is not qual.pred:
            qual = Filter(term)
        quals.append(qual)
    return Comprehension(monoid, next(rest), tuple(quals))


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------


class _Shapes(dict):
    def __missing__(self, cls: type) -> Shape:
        raise CalculusError(
            f"unknown term {cls.__name__}: no entry in repro.calculus.shape.SHAPES"
        )


_LEAF = Shape(_none, lambda node, kids, binders: node)

#: Node class -> :class:`Shape`. Indexing with anything else raises
#: :class:`~repro.errors.CalculusError`.
SHAPES: dict[type, Shape] = _Shapes({
    Const: _LEAF,
    Var: _LEAF,
    Lambda: Shape(
        kids=lambda t: (t.body,),
        build=lambda t, k, b: Lambda(b[0], k[0]),
        binders=lambda t: (t.param,),
        scopes=lambda t: (1,),
        sites=lambda t: (("lambda", t),),
    ),
    Apply: Shape(lambda t: (t.fn, t.arg), lambda t, k, b: Apply(*k)),
    Let: Shape(
        kids=lambda t: (t.value, t.body),
        build=lambda t, k, b: Let(b[0], *k),
        binders=lambda t: (t.var,),
        scopes=lambda t: (0, 1),
        sites=lambda t: (("let", t),),
    ),
    RecordCons: Shape(
        lambda t: tuple(value for _, value in t.fields),
        lambda t, k, b: RecordCons(tuple((name, v) for (name, _), v in zip(t.fields, k))),
    ),
    TupleCons: Shape(lambda t: t.items, lambda t, k, b: TupleCons(k)),
    Proj: Shape(lambda t: (t.base,), lambda t, k, b: Proj(k[0], t.name)),
    Index: Shape(lambda t: (t.base, t.index), lambda t, k, b: Index(*k)),
    BinOp: Shape(lambda t: (t.left, t.right), lambda t, k, b: BinOp(t.op, *k)),
    UnOp: Shape(lambda t: (t.operand,), lambda t, k, b: UnOp(t.op, *k)),
    If: Shape(lambda t: (t.cond, t.then_branch, t.else_branch), lambda t, k, b: If(*k)),
    Empty: Shape(lambda t: _ref_kids(t.monoid), _build_empty),
    Singleton: Shape(_singleton_kids, _build_singleton),
    Merge: Shape(lambda t: _ref_kids(t.monoid) + (t.left, t.right), _build_merge),
    Comprehension: Shape(
        kids=_comprehension_kids,
        build=_build_comprehension,
        binders=_comprehension_binders,
        scopes=_comprehension_scopes,
        sites=_comprehension_sites,
    ),
    Hom: Shape(
        kids=lambda t: _hom_monoid_kids(t) + (t.body, t.arg),
        build=_build_hom,
        binders=lambda t: (t.var,),
        scopes=lambda t: (0,) * len(_hom_monoid_kids(t)) + (1, 0),
        sites=lambda t: (("hom", t),),
    ),
    Call: Shape(lambda t: t.args, lambda t, k, b: Call(t.name, k)),
    MethodCall: Shape(
        lambda t: (t.base, *t.args),
        lambda t, k, b: MethodCall(k[0], t.name, k[1:]),
    ),
    New: Shape(lambda t: (t.state,), lambda t, k, b: New(*k)),
    Deref: Shape(lambda t: (t.target,), lambda t, k, b: Deref(*k)),
    Assign: Shape(lambda t: (t.target, t.value), lambda t, k, b: Assign(*k)),
    Update: Shape(
        lambda t: (t.base, t.value),
        lambda t, k, b: Update(k[0], t.field_name, t.op, k[1]),
    ),
})
