"""Binding-aware traversal: free variables, substitution, alpha-renaming.

These are the mechanics beneath the paper's variable-binding convention

    M{ e | q, x == u, s }  =  M{ e[u/x] | q, s[u/x] }

and beneath the normalization rules of Table 3, all of which substitute
under binders. Substitution here is capture-avoiding: binders whose
variable occurs free in the replacement are renamed first.

Every walk here is a fold or a map over :data:`repro.calculus.shape.SHAPES`,
which says what each node's children and binders are; nothing in this
module names a node class except the two leaves it treats specially.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Optional

from repro.calculus.ast import Assign, Const, Deref, New, Term, Update, Var
from repro.calculus.shape import SHAPES

_fresh_counter = itertools.count(1)


def fresh_var(prefix: str = "v") -> str:
    """A globally fresh variable name, e.g. ``v~17``.

    The ``~`` cannot appear in source-level identifiers, so fresh names
    never collide with user variables.
    """
    return f"{prefix}~{next(_fresh_counter)}"


# ---------------------------------------------------------------------------
# Structural walks
# ---------------------------------------------------------------------------


def children(term: Term) -> tuple[Term, ...]:
    """Direct subterms of a node (including monoid key/size terms)."""
    return SHAPES[type(term)].kids(term)


def subterms(term: Term) -> Iterator[Term]:
    """Yield ``term`` and every proper subterm, pre-order."""
    stack = [term]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(SHAPES[type(node)].kids(node)))


def scoped_subterms(term: Term) -> Iterator[tuple[Term, frozenset[str]]]:
    """Yield ``(subterm, bound)`` pairs, pre-order.

    ``bound`` is the set of variable names whose binders enclose the
    subterm's position — so a ``Var`` occurrence is free exactly when
    its name is not in ``bound``.

    >>> from repro.calculus.builders import var, comp, gen
    >>> term = comp("set", var("x"), [gen("x", var("db"))])
    >>> [(str(t), sorted(b)) for t, b in scoped_subterms(term)]
    [('set{ x | x <- db }', []), ('db', []), ('x', ['x'])]
    """
    return _scoped_walk(term, frozenset())


def _scoped_walk(
    node: Term, bound: frozenset[str]
) -> Iterator[tuple[Term, frozenset[str]]]:
    yield node, bound
    shape = SHAPES[type(node)]
    if shape.scopes is None:
        for kid in shape.kids(node):
            yield from _scoped_walk(kid, bound)
    else:
        binders = shape.binders(node)
        for kid, n in zip(shape.kids(node), shape.scopes(node)):
            yield from _scoped_walk(kid, bound.union(binders[:n]) if n else bound)


def term_size(term: Term) -> int:
    """Number of AST nodes — used to show normalization terminates."""
    return sum(1 for _ in subterms(term))


def has_effects(term: Term) -> bool:
    """True if evaluating ``term`` may read or write the object heap.

    Normalization rules that duplicate, reorder or discard a subterm
    must not fire on effectful subterms (``new``, ``:=``, ``+=``, and
    dereferences, whose value depends on heap state).
    """
    return any(isinstance(sub, (New, Assign, Update, Deref)) for sub in subterms(term))


def free_vars(term: Term) -> frozenset[str]:
    """The set of variable names occurring free in ``term``.

    >>> from repro.calculus.builders import var, comp, gen
    >>> sorted(free_vars(comp("set", var("x"), [gen("x", var("db"))])))
    ['db']
    """
    free: set[str] = set()
    _collect_free(term, frozenset(), free)
    return frozenset(free)


def _collect_free(node: Term, bound: frozenset[str], free: set[str]) -> None:
    if type(node) is Var:
        if node.name not in bound:
            free.add(node.name)
        return
    shape = SHAPES[type(node)]
    if shape.scopes is None:
        for kid in shape.kids(node):
            _collect_free(kid, bound, free)
    else:
        binders = shape.binders(node)
        for kid, n in zip(shape.kids(node), shape.scopes(node)):
            _collect_free(kid, bound.union(binders[:n]) if n else bound, free)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def substitute(term: Term, var_name: str, replacement: Term) -> Term:
    """Capture-avoiding substitution ``term[replacement / var_name]``.

    >>> from repro.calculus.builders import var, lam
    >>> substitute(var("x"), "x", var("y"))
    Var(name='y')
    """
    return substitute_many(term, {var_name: replacement})


def substitute_many(term: Term, mapping: dict[str, Term]) -> Term:
    """Simultaneous capture-avoiding substitution."""
    if not mapping:
        return term
    if type(term) is Var:
        return mapping.get(term.name, term)
    shape = SHAPES[type(term)]
    kids = shape.kids(term)
    if shape.scopes is None:
        new_kids = tuple([substitute_many(kid, mapping) for kid in kids])
        return shape.rebuild(term, kids, new_kids)
    # under[n] is the substitution in force under the node's first n
    # binders: a binder shadows its own name, and is renamed when a
    # replacement that is still live mentions it free.
    binders = shape.binders(term)
    under = [mapping]
    names = []
    for name in binders:
        mapping = {k: v for k, v in mapping.items() if k != name}
        if any(name in free_vars(repl) for repl in mapping.values()):
            fresh = fresh_var(name.split("~")[0])
            mapping[name] = Var(fresh)
            name = fresh
        under.append(mapping)
        names.append(name)
    new_kids = tuple(
        [substitute_many(kid, under[n]) for kid, n in zip(kids, shape.scopes(term))]
    )
    return shape.rebuild(term, kids, new_kids, binders, tuple(names))


# ---------------------------------------------------------------------------
# Renaming binders
# ---------------------------------------------------------------------------


def relabel(
    term: Term,
    binder_name: Callable[[str], str],
    const: Optional[Callable[[Const], Term]] = None,
) -> Term:
    """Rename every binder of ``term`` and, optionally, map its constants.

    ``binder_name(old)`` is asked once per binder, node by node in
    pre-order and in binding order within a node, and must answer a name
    that is free nowhere in ``term`` — then bound occurrences follow
    their binder and the result is an alpha-variant. ``const`` replaces
    each ``Const`` node.
    """
    return _relabel(term, {}, binder_name, const)


def _relabel(
    node: Term,
    env: dict[str, str],
    binder_name: Callable[[str], str],
    const: Optional[Callable[[Const], Term]],
) -> Term:
    if type(node) is Var:
        return Var(env[node.name]) if node.name in env else node
    if type(node) is Const:
        return node if const is None else const(node)
    shape = SHAPES[type(node)]
    kids = shape.kids(node)
    if shape.scopes is None:
        new_kids = tuple([_relabel(kid, env, binder_name, const) for kid in kids])
        return shape.rebuild(node, kids, new_kids)
    binders = shape.binders(node)
    names = tuple([binder_name(old) for old in binders])
    envs = [env]  # envs[n]: the renaming under the node's first n binders
    for old, new in zip(binders, names):
        envs.append({**envs[-1], old: new})
    new_kids = tuple(
        [
            _relabel(kid, envs[n], binder_name, const)
            for kid, n in zip(kids, shape.scopes(node))
        ]
    )
    return shape.rebuild(node, kids, new_kids, binders, names)


def numbered(term: Term, const: Optional[Callable[[Const], Term]] = None) -> Term:
    """The alpha-variant of ``term`` whose binders are ``~0``, ``~1``, ….

    Neither parser can produce a name that starts with ``~``, so no free
    variable is captured, and two terms are alpha-equivalent exactly
    when their numbered forms are structurally equal.
    """
    counter = itertools.count()
    return relabel(term, lambda _old: f"~{next(counter)}", const)


def alpha_equal(left: Term, right: Term) -> bool:
    """Structural equality up to renaming of bound variables."""
    return numbered(left) == numbered(right)
