"""What a compiled query reads, and whether its results may be cached.

The result cache is only sound if every input a plan can observe is
covered by a version counter: the catalog's one version covers every
registration (every extent reload among them) and the object store's
:meth:`~repro.objects.store.ObjectStore.guard` the heap. This module
computes, for one :class:`~repro.cache.core.CompiledQuery`, whether a
finished value may be served again later (``cacheable``) and which
object fields it reads (``reads``). The names a plan reads are the
free variables of every term its operators declare
(:attr:`PlanNode.exprs`; an ``IndexScan`` declares the extent it probes
by name as one), minus the variables the plan itself binds.

The verdict is conservative: any effectful construct (``new``/``:=``/field update —
two runs would observe different OIDs or states), any call into a
user-registered Python function or schema method (arbitrary code the
version counters cannot see), or any free name that is *not* a known
extent or a ``$`` parameter disables result caching.

A query sees an object's state only through a path, ``e.f``, whose
implicit dereference reads the one field ``f``. So ``reads`` is the
name of every projection in the plan's terms and in the normal form
(the interpreter runs the latter when the plan is refused): a write of
any other field cannot change the value. An explicit dereference
``!e`` sees the whole state, and its ``reads`` is ``None``: the entry is
guarded by every mutation (the store's ``version``).

Compilation caching is unaffected by ``cacheable`` — a plan is a pure
function of the query text and catalog structure either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.algebra.ops import PlanNode, plan_variables
from repro.calculus.ast import Assign, Call, Deref, MethodCall, New, Proj, Term, Update
from repro.calculus.traversal import free_vars, subterms


@dataclass(frozen=True)
class Dependencies:
    """The result-cacheability verdict for one entry."""

    cacheable: bool
    reason: Optional[str] = None  # why result caching is off, if it is
    #: the object fields the value depends on; None for the whole heap
    reads: Optional[frozenset[str]] = None


def plan_terms(plan: PlanNode) -> Iterator[Term]:
    """Every calculus term embedded in a plan's operators."""
    for node in plan.walk():
        for entry in node.exprs:
            for _, term in entry.labelled():
                yield term


def analyze_dependencies(
    plan: Optional[PlanNode],
    normalized: Term,
    known_extents: Iterable[str],
    user_functions: Iterable[str],
) -> Dependencies:
    """The :class:`Dependencies` of one compiled query (see module doc)."""
    known = set(known_extents)
    functions = set(user_functions)

    terms = [normalized]
    if plan is None:
        free = set(free_vars(normalized))
    else:
        terms += plan_terms(plan)
        free = set().union(*map(free_vars, terms[1:])) - plan_variables(plan)
    unknown = sorted(name for name in free if name not in known and not name.startswith("$"))
    if unknown:
        return Dependencies(False, f"free names outside the catalog: {', '.join(unknown)}")
    for term in terms:
        reason = _term_cacheable(term, functions)
        if reason is not None:
            return Dependencies(False, reason)
    return Dependencies(True, reads=_fields_read(terms))


def _fields_read(terms: Iterable[Term]) -> Optional[frozenset[str]]:
    """Every projected field name in ``terms``; None if one dereferences."""
    names: set[str] = set()
    for term in terms:
        for sub in subterms(term):
            if isinstance(sub, Deref):
                return None
            if isinstance(sub, Proj):
                names.add(sub.name)
    return frozenset(names)


def _term_cacheable(term: Term, user_functions: set[str]) -> Optional[str]:
    """None when the term's value is replayable; else the blocking reason."""
    for sub in subterms(term):
        if isinstance(sub, (New, Assign, Update)):
            return f"effectful construct {type(sub).__name__}"
        if isinstance(sub, Call) and sub.name in user_functions:
            return f"call to registered function {sub.name!r}"
        if isinstance(sub, MethodCall):
            return f"method call {sub.name!r} (arbitrary Python)"
    return None
