"""Canonical comprehension -> logical algebra plan.

The translation follows the paper's evaluation sketch: generators
become a left-deep chain — :class:`Scan` / :class:`Join` for
independent sources, :class:`Unnest` for path-dependent ones —
predicates are pushed to the earliest operator where their variables
are bound (with conjunctive equalities across a Join recognized as
hash keys), and the comprehension's monoid/head become the final
:class:`Reduce`.

Terms that are not canonical are normalized first; anything the
rewrite rules could not flatten (e.g. a ``bag`` comprehension over a
``set`` subquery, which must stay nested for correctness) simply
remains a source term of its own: a closed comprehension gets its own
plan as the Scan's sub-plan, run to completion first, and anything else
stays opaque for the physical layer to evaluate with the reference
evaluator — plans degrade gracefully instead of rejecting queries.

An update program (§4.2) is planned too, as written — never normalized,
since the rewrites may reorder or merge what the heap threads through:
it has at most one generator, its first qualifier, over a pure source;
its head is pure; and its effects (``+=`` / ``:=``, each with pure
operands) are filters after that generator. So each filter is tested
once per row, as the interpreter tests it, in the order written: the
pure ones before the first effect over the Scan, then the effects and
every filter after them as *effect filters*
(:func:`~repro.algebra.ops.is_effect`). A second generator would test a
pushed-down filter, or materialise a Join's input, ahead of effects the
interpreter applies first. The paper's program reads its victims from a
closed comprehension, which becomes a sub-plan: the victims are chosen
before any mutation.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.calculus.ast import (
    Bind,
    BinOp,
    Comprehension,
    Filter,
    Generator,
    Term,
)
from repro.calculus.traversal import children, free_vars, has_effects
from repro.errors import PlanError
from repro.normalize.engine import normalize
from repro.normalize.rules import PLANNING_RULES
from repro.algebra.ops import Join, PlanNode, Reduce, Scan, SelectOp, Unnest, is_effect


def build_plan(term: Term, pre_normalize: bool = True) -> Reduce:
    """Build a logical plan for a comprehension term.

    >>> from repro.oql import translate_oql
    >>> plan = build_plan(translate_oql(
    ...     "select distinct c.name from c in Cities where c.zip = 97201"))
    >>> print(plan.render())
    Reduce set{ c.name }
      Select (c.zip = 97201)
        Scan c <- Cities
    """
    effects = has_effects(term)
    if pre_normalize and not effects:
        term = normalize(term, rules=PLANNING_RULES)
    if not isinstance(term, Comprehension):
        degenerate = None if effects else _degenerate_plan(term)
        if degenerate is not None:
            return degenerate
        raise PlanError(
            f"only comprehensions have algebra plans, got {type(term).__name__}"
        )
    return _build(term, effects, pre_normalize and effects)


def _first_effect(comp: Comprehension) -> int:
    """The position of effectful ``comp``'s first effect filter;
    :class:`PlanError` when its effects cannot be planned."""
    quals = comp.qualifiers
    effects = [i for i, q in enumerate(quals) if isinstance(q, Filter) and is_effect(q.pred)]
    rest = tuple(q for i, q in enumerate(quals) if i not in effects)
    generators = [i for i, q in enumerate(quals) if not isinstance(q, Filter)]
    if (
        not effects
        or generators not in ([], [0])
        or has_effects(Comprehension(comp.monoid, comp.head, rest))
        or any(has_effects(kid) for i in effects for kid in children(quals[i].pred))
    ):
        raise PlanError(
            "only +=/:= filters over pure operands, after at most one generator "
            "that comes first, are plannable effects"
        )
    return effects[0]


def _build(comp: Comprehension, effects: bool, normalize_sources: bool) -> Reduce:
    plan: PlanNode | None = None
    bound: set[str] = set()
    all_vars = _generator_vars(comp)
    first_effect = _first_effect(comp) if effects else len(comp.qualifiers)
    # Up to the first effect the qualifiers are pure, so predicates can
    # be hoisted ahead of their source position and attached at the first
    # operator that binds their variables — build-time pushdown. (An
    # effectful program has at most one generator, first: nothing moves.)
    pending: list[Term] = [
        qual.pred for qual in comp.qualifiers[:first_effect] if isinstance(qual, Filter)
    ]

    for qual in comp.qualifiers[:first_effect]:
        if isinstance(qual, Generator):
            plan = _add_generator(plan, qual, bound, normalize_sources)
            bound.add(qual.var)
            if qual.index_var is not None:
                bound.add(qual.index_var)
            plan, pending = _attach_ready(plan, pending, bound, all_vars)
        elif isinstance(qual, Bind):
            # Canonical forms have no bindings; a leftover Bind (kept by a
            # purity guard) is treated as a dependent singleton generator.
            plan = _add_bind(plan, qual)
            bound.add(qual.var)
            plan, pending = _attach_ready(plan, pending, bound, all_vars)

    if plan is None:
        # Predicates with no generators guard the whole comprehension.
        plan = Scan("_unit", _unit_source())
    for pred in pending:  # only when there was no generator
        plan = SelectOp(plan, pred)
    # The effects, and the filters after them, in the order written.
    for qual in comp.qualifiers[first_effect:]:
        plan = SelectOp(plan, qual.pred)
    return Reduce(comp.monoid, comp.head, plan)


def _unit_source() -> Term:
    from repro.calculus.ast import Const

    return Const((None,))


def _degenerate_plan(term: Term) -> Reduce | None:
    """Plans for terms normalization collapsed below comprehension level.

    ``zero(M)`` becomes a Reduce over zero rows (which yields ``zero(M)``)
    and ``unit(M)(e)`` a Reduce over exactly one row with head ``e``.
    """
    from repro.calculus.ast import Const, Empty as EmptyTerm, Singleton

    if isinstance(term, EmptyTerm):
        return Reduce(term.monoid, Const(None), Scan("_unit", Const(())))
    if isinstance(term, Singleton) and term.index is None:
        return Reduce(term.monoid, term.element, Scan("_unit", _unit_source()))
    return None


def _generator_vars(comp: Comprehension) -> frozenset[str]:
    out: set[str] = set()
    for qual in comp.qualifiers:
        if isinstance(qual, Generator):
            out.add(qual.var)
            if qual.index_var is not None:
                out.add(qual.index_var)
        elif isinstance(qual, Bind):
            out.add(qual.var)
    return frozenset(out)


def _add_generator(
    plan: PlanNode | None, qual: Generator, bound: set[str], normalize_source: bool
) -> PlanNode:
    deps = free_vars(qual.source) & bound
    if deps:
        if plan is None:
            raise PlanError(
                f"generator {qual.var} depends on unbound variables {sorted(deps)}"
            )
        return Unnest(plan, qual.var, qual.source, qual.index_var)
    sub = _sub_plan(qual.source, normalize_source)
    scan = Scan(qual.var, qual.source, qual.index_var, sub)
    if plan is None:
        return scan
    return Join(plan, scan)


def _sub_plan(source: Term, normalize_source: bool) -> Reduce | None:
    """The plan of the comprehension a Scan reads — closed, as a Scan source
    is, and pure, as every generator source of a plan is — normalized
    first when the enclosing program was not; None for another source."""
    if not isinstance(source, Comprehension):
        return None
    try:
        return build_plan(source, pre_normalize=normalize_source)
    except PlanError:
        return None


def _add_bind(plan: PlanNode | None, qual: Bind) -> PlanNode:
    from repro.calculus.ast import MonoidRef, Singleton

    singleton = Singleton(MonoidRef("list"), qual.value)
    if plan is None:
        return Scan(qual.var, singleton)
    return Unnest(plan, qual.var, singleton)


def _attach_ready(
    plan: PlanNode | None,
    pending: list[Term],
    bound: set[str],
    all_vars: frozenset[str],
) -> tuple[PlanNode | None, list[Term]]:
    """Attach every pending predicate whose plan variables are bound."""
    remaining: list[Term] = []
    for pred in pending:
        needed = free_vars(pred) & all_vars
        if plan is not None and needed <= bound:
            plan = place(plan, pred)
        else:
            remaining.append(pred)
    return plan, remaining


#: ``leaf(scan, pred)``: the access path answering ``pred`` over ``scan``
#: directly (the optimizer's index selection), or None.
LeafRule = Callable[[Scan, Term], Optional[PlanNode]]


def place(plan: PlanNode, pred: Term, leaf: Optional[LeafRule] = None) -> PlanNode:
    """``plan`` filtered by ``pred``, attached as deep as its variables
    allow — the one statement of selection placement.

    A predicate local to one join input sinks into it, one that does not
    read an Unnest's variable sinks below the Unnest, an equality across
    both join inputs becomes a hash key, and at a Scan ``leaf`` may turn
    it into an access path; everything else becomes a selection where it
    stopped. It passes existing selections only on the way somewhere
    deeper: selections stacked over one input stay in the order they were
    placed, which for :func:`build_plan` is the source order the reference
    evaluator tests them in.
    """
    return sink(plan, pred, leaf) or SelectOp(plan, pred)


def sink(plan: PlanNode, pred: Term, leaf: Optional[LeafRule] = None) -> PlanNode | None:
    """``plan`` with ``pred`` placed somewhere inside it, or None when it
    belongs directly above (where the optimizer, re-placing a selection
    that already is there, keeps the node it has)."""
    if is_effect(pred):
        return None  # an effect stays where it was written
    if isinstance(plan, Scan):
        return None if leaf is None else leaf(plan, pred)
    if isinstance(plan, SelectOp):
        if is_effect(plan.pred):
            return None  # nothing is placed ahead of an effect
        sunk = sink(plan.child, pred, leaf)
        return None if sunk is None else plan.with_children(sunk)
    if isinstance(plan, (Join, Unnest)):
        needed = free_vars(pred) & plan.columns()
        children = plan.children()
        for i, child in enumerate(children):
            if needed <= child.columns():
                placed = place(child, pred, leaf)
                return plan.with_children(*children[:i], placed, *children[i + 1 :])
        if isinstance(plan, Join):
            return _try_join_keys(plan, pred)
    return None


def _try_join_keys(join: Join, pred: Term) -> Join | None:
    """Recognize ``l = r`` with each side local to one join input."""
    if not isinstance(pred, BinOp) or pred.op != "=":
        return None
    left_cols = join.left.columns()
    right_cols = join.right.columns()
    lv = free_vars(pred.left)
    rv = free_vars(pred.right)
    left_term, right_term = None, None
    if lv & left_cols and not lv & right_cols and rv & right_cols and not rv & left_cols:
        left_term, right_term = pred.left, pred.right
    elif lv & right_cols and not lv & left_cols and rv & left_cols and not rv & right_cols:
        left_term, right_term = pred.right, pred.left
    if left_term is None:
        return None
    return Join(
        join.left,
        join.right,
        join.left_keys + (left_term,),
        join.right_keys + (right_term,),
        join.residual,
    )
