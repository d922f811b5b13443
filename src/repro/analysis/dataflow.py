"""Binding-aware dataflow analyses over calculus terms.

The calculus already knows how to compute free-variable *sets*
(:func:`repro.calculus.traversal.free_vars`); this module adds the
counting and def-use layer shared by the rest of the system:

- :func:`~repro.calculus.traversal.scoped_subterms` (re-exported) — the
  one binding-aware walk the counts are built on, yielding each subterm
  together with the names bound around it;
- :func:`use_count` / :func:`free_var_counts` — occurrence counting,
  used by the normalizer's duplication guards;
- :func:`def_use` — every binder in a term with its kind, binding site
  and use count;
- :func:`alpha_rename` — a fully freshened alpha-variant of a term,
  used by the rewrite verifier's capture check.

All of them take their scoping from :data:`repro.calculus.shape.SHAPES`
— left to right through comprehension qualifiers, monoid key/size terms
outside the node's own binders — so they agree with ``free_vars`` by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.calculus.ast import Term, Var
from repro.calculus.shape import SHAPES
from repro.calculus.traversal import fresh_var, relabel, scoped_subterms
from repro.span import Span, span_of

# ---------------------------------------------------------------------------
# Occurrence counting
# ---------------------------------------------------------------------------


def use_count(term: Term, name: str) -> int:
    """Number of *free* occurrences of ``name`` in ``term``.

    Shadowing-aware: occurrences under a binder of the same name do not
    count.

    >>> from repro.calculus.builders import add, var, lam
    >>> use_count(add(var("x"), lam("x", var("x"))), "x")
    1
    """
    return sum(
        1
        for sub, bound in scoped_subterms(term)
        if isinstance(sub, Var) and sub.name == name and name not in bound
    )


def free_var_counts(term: Term) -> dict[str, int]:
    """Occurrence counts for every free variable of ``term``."""
    counts: dict[str, int] = {}
    for sub, bound in scoped_subterms(term):
        if isinstance(sub, Var) and sub.name not in bound:
            counts[sub.name] = counts.get(sub.name, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Def-use chains
# ---------------------------------------------------------------------------


@dataclass
class BindingInfo:
    """One binder in a term: where a name is introduced and how often used."""

    name: str
    kind: str  # 'lambda' | 'let' | 'hom' | 'generator' | 'generator-index' | 'bind'
    binder: Any  # the Term or Qualifier that introduced the binding
    uses: int = 0
    span: Optional[Span] = None


@dataclass
class DefUse:
    """The def-use summary of a term: all binders plus free-name counts."""

    bindings: list[BindingInfo] = field(default_factory=list)
    free: dict[str, int] = field(default_factory=dict)

    def unused(self) -> list[BindingInfo]:
        """Binders whose variable is never referenced."""
        return [b for b in self.bindings if b.uses == 0]

    def for_name(self, name: str) -> list[BindingInfo]:
        return [b for b in self.bindings if b.name == name]


def def_use(term: Term) -> DefUse:
    """Compute def-use chains: every binder with its use count.

    Uses resolve to the *innermost* enclosing binder of that name, so
    shadowed binders do not absorb inner uses. ``bindings`` lists the
    binders in the order evaluation introduces them.
    """
    result = DefUse()
    _collect_def_use(term, {}, result)
    return result


def _collect_def_use(node: Term, env: dict[str, BindingInfo], result: DefUse) -> None:
    if type(node) is Var:
        info = env.get(node.name)
        if info is not None:
            info.uses += 1
        else:
            result.free[node.name] = result.free.get(node.name, 0) + 1
        return
    shape = SHAPES[type(node)]
    kids = shape.kids(node)
    if shape.scopes is None:
        for kid in kids:
            _collect_def_use(kid, env, result)
        return
    binders, sites = shape.binders(node), shape.sites(node)
    envs = [env]  # envs[n]: the environment under the first n binders
    for kid, n in zip(kids, shape.scopes(node)):
        while len(envs) <= n:
            name = binders[len(envs) - 1]
            kind, site = sites[len(envs) - 1]
            info = BindingInfo(name, kind, site, span=span_of(site))
            result.bindings.append(info)
            envs.append({**envs[-1], name: info})
        _collect_def_use(kid, envs[n], result)


# ---------------------------------------------------------------------------
# Alpha renaming
# ---------------------------------------------------------------------------


def alpha_rename(term: Term) -> Term:
    """A fully freshened alpha-variant: every binder gets a fresh name.

    The result is ``alpha_equal`` to the input but shares no bound
    names with it (or with anything else — fresh names are globally
    unique). The rewrite verifier uses this to detect rules whose
    output depends on the spelling of bound variables, i.e. capture
    bugs.
    """
    return relabel(term, lambda old: fresh_var(old.split("~")[0]))
