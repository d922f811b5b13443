"""What a compiled query reads, and whether its results may be cached.

The result cache is only sound if every input a plan can observe is
covered by a version counter: the database's compile version covers the
catalog (every extent reload among it) and the object store's version
the heap. This module computes, for one
:class:`~repro.cache.core.CompiledQuery`, whether a finished value may
be served again later (``cacheable``). The names a plan reads are the
free variables of every term its operators declare
(:attr:`PlanNode.exprs`; an ``IndexScan`` declares the extent it probes
by name as one), minus the variables the plan itself binds.

The verdict is conservative: any effectful construct (``new``/``:=``/field update —
two runs would observe different OIDs or states), any call into a
user-registered Python function or schema method (arbitrary code the
version counters cannot see), or any free name that is *not* a known
extent or a ``$`` parameter disables result caching. The object heap
needs no entry of its own: navigation dereferences are implicit, so the
store's single version counter is part of every result version vector.

Compilation caching is unaffected by ``cacheable`` — a plan is a pure
function of the query text and catalog structure either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.algebra.ops import PlanNode, plan_variables
from repro.calculus.ast import Assign, Call, MethodCall, New, Term, Update
from repro.calculus.traversal import free_vars, subterms


@dataclass(frozen=True)
class Dependencies:
    """The result-cacheability verdict for one entry."""

    cacheable: bool
    reason: Optional[str] = None  # why result caching is off, if it is


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

    if plan is not None:
        free: set[str] = set()
        for term in plan_terms(plan):
            free.update(free_vars(term))
        free -= plan_variables(plan)
    else:
        free = set(free_vars(normalized))

    cacheable = True
    reason: Optional[str] = None
    unknown = {
        name for name in free if name not in known and not name.startswith("$")
    }
    if unknown:
        cacheable = False
        reason = f"free names outside the catalog: {', '.join(sorted(unknown))}"

    if cacheable:
        verdict = _term_cacheable(normalized, functions)
        if verdict is None and plan is not None:
            for term in plan_terms(plan):
                verdict = _term_cacheable(term, functions)
                if verdict is not None:
                    break
        if verdict is not None:
            cacheable = False
            reason = verdict

    return Dependencies(cacheable, reason)


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
