"""What a compiled query reads, and whether its results may be cached.

The result cache is only sound if every input a plan can observe is
covered by a version counter. This module computes, for one
:class:`~repro.cache.core.CompiledQuery`:

- ``extents`` — the named extents the plan reads, found by walking the
  physical plan via :meth:`PlanNode.children` and collecting the free
  variables of every embedded calculus term (minus the plan's own
  binding columns), plus :class:`IndexScan` extents which are named
  directly;
- ``cacheable`` — whether a finished value may be served again later.
  Conservative: any effectful construct (``new``/``:=``/field update —
  two runs would observe different OIDs or states), any call into a
  user-registered Python function or schema method (arbitrary code the
  version counters cannot see), or any free name that is *not* a known
  extent or a ``$`` parameter disables result caching. The object
  heap itself needs no per-extent entry: navigation dereferences are
  implicit, so the store's single version counter is part of every
  result version vector instead.

Compilation caching is unaffected by ``cacheable`` — a plan is a pure
function of the query text and catalog structure either way.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.algebra.ops import IndexScan, PlanNode
from repro.calculus.ast import Assign, Call, MethodCall, New, Term, Update
from repro.calculus.traversal import free_vars, subterms


@dataclass(frozen=True)
class Dependencies:
    """The read set and result-cacheability verdict for one entry."""

    extents: frozenset[str]
    cacheable: bool
    reason: Optional[str] = None  # why result caching is off, if it is


def walk_plan(plan: PlanNode) -> Iterator[PlanNode]:
    """Every operator of a plan tree, pre-order."""
    yield plan
    for child in plan.children():
        yield from walk_plan(child)


def plan_terms(plan: PlanNode) -> Iterator[Term]:
    """Every calculus term embedded in a plan's operators.

    Field-generic on purpose: any operator added later contributes its
    ``Term``-typed fields (and tuples of terms) without touching this.
    """
    for node in walk_plan(plan):
        for spec in dataclasses.fields(node):
            value = getattr(node, spec.name)
            if isinstance(value, Term):
                yield value
            elif isinstance(value, tuple):
                for item in value:
                    if isinstance(item, Term):
                        yield item
                    elif isinstance(item, tuple):  # Nest keys and folds
                        for part in item:
                            if isinstance(part, Term):
                                yield part


def plan_columns(plan: PlanNode) -> frozenset[str]:
    """Every variable any operator of the plan binds."""
    out: set[str] = set()
    for node in walk_plan(plan):
        out.update(node.columns())
    return frozenset(out)


def analyze_dependencies(
    kind: str,
    plan: Optional[PlanNode],
    normalized: Term,
    known_extents: Iterable[str],
    user_functions: Iterable[str],
) -> Dependencies:
    """The :class:`Dependencies` of one compiled query (see module doc)."""
    known = set(known_extents)
    functions = set(user_functions)

    if kind in ("groupby", "algebra") and plan is not None:
        bound = plan_columns(plan)
        free: set[str] = set()
        for term in plan_terms(plan):
            free.update(free_vars(term))
        free -= bound
        extents = {name for name in free if name in known}
        for node in walk_plan(plan):
            if isinstance(node, IndexScan):
                extents.add(node.extent)
    else:
        free = set(free_vars(normalized))
        extents = {name for name in free if name in known}

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

    return Dependencies(frozenset(extents), cacheable, reason)


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
