"""Group-by planning through the Nest operator — the paper's Γ.

The OQL translator renders ``group by`` as nested comprehensions (one
partition subquery per distinct key), which is the faithful *semantics*
but evaluates quadratically. :func:`plan_group_by` introduces Γ by one
rule on calculus terms (DESIGN.md §4 argues the side conditions)::

    M{ H | g <- set{ <l1=k1, ...> | Q }, l1 == g.l1, ...,
           partition == bag{ r | Q, k1 = g.l1, ... }, [P] }
    ==>
    Reduce M{ H' }
      [Select P']
        Nest [l1=k1, ...] v1 <- M1{ h1 | s1 }, ...
          <plan of Q>

The left side is what ``Translator._tr_group_select`` emits, matched by
structure: the partition's qualifiers *are* the key set's followed by
the key filters, ``g`` occurs nowhere else and no label is free in the
key set, at most one filter trails, ``M`` is well formed over a set
generator, nothing has effects. A near-miss is not a match.

The Nest reduces each group with monoids as its rows arrive. Every
aggregate ``M{ h | p <- partition, s... }`` of the (normalized) head
and ``having`` is moved into it as the fold ``(v, M, h[row/p],
s[row/p])`` and replaced by ``v`` — N9-flatten + N3-bind applied across
the Nest boundary — and ``count(partition)`` as ``sum{ 1 }``. The ODMG
``partition`` itself is the fold ``(partition, bag, row, None)``, kept
only when ``head'`` or ``having'`` still reads it.

An aggregate is moved only where the reference evaluator computes it
for every emitted group and cannot tell the difference (DESIGN.md §4):

1. it is pure (``has_effects``);
2. ``M`` is a plain monoid with ``props(bag) ⊆ props(M)`` — N9's side
   condition, the well-formedness of any fold over a bag;
3. ``h`` and ``s`` mention neither ``partition`` nor a key label (nor a
   ``from`` variable, which the head cannot see and the Nest's input
   would capture);
4. the occurrence is in a strict position: not under an ``if`` branch,
   the right operand of ``and``/``or``, a lambda or another
   comprehension;
5. from the head only when there is no ``having`` (a group the
   ``having`` drops never evaluates the head) — except an aggregate the
   ``having`` already computes, which the head then shares.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.algebra.ops import Fold, Nest, PlanNode, Reduce, SelectOp
from repro.algebra.translate import build_plan
from repro.calculus.ast import (
    BinOp,
    Bind,
    Call,
    Comprehension,
    Const,
    Filter,
    Generator,
    If,
    Index,
    MethodCall,
    MonoidRef,
    Proj,
    RecordCons,
    Term,
    TupleCons,
    UnOp,
    Var,
)
from repro.calculus.builders import conjunction
from repro.calculus.traversal import free_vars, fresh_var, has_effects, substitute
from repro.errors import PlanError
from repro.eval.builtins import DEFAULT_BUILTINS
from repro.monoids import BAG, SET, Monoid, is_hom_well_formed, static_monoid
from repro.normalize.engine import normalize

PARTITION = "partition"
_COUNT_PARTITION = Call("count", (Var(PARTITION),))
_SET, _BAG = MonoidRef("set"), MonoidRef("bag")


def plan_group_by(term: Term) -> Optional[Reduce]:
    """The Nest plan of a grouped comprehension (module docstring), or
    None when ``term`` is not one — decided on its first qualifier for
    every query that has no ``group by``."""
    if not isinstance(term, Comprehension) or not term.qualifiers:
        return None
    first = term.qualifiers[0]
    if not (
        isinstance(first, Generator)
        and isinstance(first.source, Comprehension)
        and first.source.monoid == _SET
        and isinstance(first.source.head, RecordCons)
    ):
        return None
    group, key_set, keys = first.var, first.source, first.source.head.fields
    grouped, rest = term.qualifiers[: len(keys) + 2], term.qualifiers[len(keys) + 2 :]
    partition = grouped[-1]
    if not (isinstance(partition, Bind) and isinstance(partition.value, Comprehension)):
        return None
    row, monoid = partition.value.head, term.monoid
    of_group = [(label, key, Proj(Var(group), label)) for label, key in keys]
    key_filters = tuple(Filter(BinOp("=", key, at)) for _, key, at in of_group)
    labels = frozenset(label for label, _ in keys)
    if (
        grouped
        != (
            Generator(group, key_set),
            *(Bind(label, at) for label, _, at in of_group),
            Bind(PARTITION, Comprehension(_BAG, row, key_set.qualifiers + key_filters)),
        )
        or len(rest) > 1
        or not all(isinstance(qual, Filter) for qual in rest)
        or monoid != MonoidRef(monoid.name)
        or not _absorbs(monoid, SET)
        or (labels | {group}) & free_vars(key_set)
        or group in free_vars(Comprehension(monoid, term.head, rest))
        or has_effects(term)
    ):
        return None

    synthetic = Comprehension(_BAG, Const(0), key_set.qualifiers)
    base_plan = build_plan(synthetic, pre_normalize=False).child
    mover = _FoldMover(row, labels | base_plan.columns() | {PARTITION})
    having = [mover.move(normalize(qual.pred)) for qual in rest]  # at most one
    mover.sealed = bool(having)
    head = mover.move(normalize(term.head))

    folds = mover.folds
    if PARTITION in free_vars(Comprehension(monoid, head, tuple(map(Filter, having)))):
        folds.append((PARTITION, _BAG, row, None))
    plan: PlanNode = Nest(base_plan, keys, tuple(folds))
    for pred in having:
        plan = SelectOp(plan, pred)
    return Reduce(monoid, head, plan)


def _absorbs(ref: MonoidRef, source: Monoid) -> bool:
    """Is ``ref`` registered, with ``hom[source -> ref]`` well formed?"""
    target = static_monoid(ref)
    return target is not None and is_hom_well_formed(source, target)


def build_group_by_plan(select: Any, translator: Any) -> Reduce:
    """:func:`plan_group_by` for a caller holding a syntax tree and its
    translator; :class:`PlanError` when the rule does not apply."""
    plan = plan_group_by(translator.translate(select))
    if plan is None:
        raise PlanError("not a plannable group by: Γ-introduction does not apply")
    return plan


class _FoldMover:
    """Moves the aggregates over ``partition`` out of a head or
    ``having`` term (see the module docstring for which), collecting
    them in ``folds``. Once ``sealed`` it adds no fold, only shares the
    ones it has."""

    def __init__(self, row: Term, hidden: frozenset[str]) -> None:
        self.row = row
        self.hidden = hidden
        self.folds: list[Fold] = []
        self.sealed = False

    def move(self, term: Term, hint: Optional[str] = None) -> Term:
        """``term`` with every movable aggregate in a strict position
        replaced by its fold variable."""
        fold = self._as_fold(term)
        if fold is not None:
            name = self._share(fold, hint)
            return term if name is None else Var(name)
        move = self.move
        if isinstance(term, RecordCons):
            return RecordCons(tuple((n, move(v, n)) for n, v in term.fields))
        if isinstance(term, TupleCons):
            return TupleCons(tuple(map(move, term.items)))
        if isinstance(term, Proj):
            return Proj(move(term.base), term.name)
        if isinstance(term, Index):
            return Index(move(term.base), move(term.index))
        if isinstance(term, BinOp):
            lazy = term.op in ("and", "or")
            return BinOp(
                term.op, move(term.left), term.right if lazy else move(term.right)
            )
        if isinstance(term, UnOp):
            return UnOp(term.op, move(term.operand))
        if isinstance(term, If):
            return If(move(term.cond), term.then_branch, term.else_branch)
        if isinstance(term, Call) and term.name in DEFAULT_BUILTINS:
            # a builtin exists, so its arguments are always evaluated
            return Call(term.name, tuple(map(move, term.args)))
        if isinstance(term, MethodCall):
            return MethodCall(move(term.base), term.name, tuple(map(move, term.args)))
        return term

    def _as_fold(self, term: Term) -> Optional[tuple[MonoidRef, Term, Optional[Term]]]:
        """``(monoid, head, pred)`` over the Nest's input when ``term``
        is a movable aggregate of the partition, else None."""
        if term == _COUNT_PARTITION:
            return MonoidRef("sum"), Const(1), None
        if not isinstance(term, Comprehension) or not term.qualifiers:
            return None
        monoid, first, filters = term.monoid, term.qualifiers[0], term.qualifiers[1:]
        if not (
            monoid == MonoidRef(monoid.name)
            and _absorbs(monoid, BAG)
            and isinstance(first, Generator)
            and first == Generator(first.var, Var(PARTITION))
            and all(isinstance(qual, Filter) for qual in filters)
            and not has_effects(term)
        ):
            return None
        body = Comprehension(monoid, term.head, filters)  # first.var is free here
        if (free_vars(body) - {first.var}) & self.hidden:
            return None

        def over_rows(part: Term) -> Term:
            return normalize(substitute(part, first.var, self.row))

        pred = over_rows(conjunction(q.pred for q in filters)) if filters else None
        return monoid, over_rows(term.head), pred

    def _share(self, fold: tuple, hint: Optional[str]) -> Optional[str]:
        """The variable of ``fold``, adding it unless sealed."""
        for existing in self.folds:
            if existing[1:] == fold:
                return existing[0]
        if self.sealed:
            return None
        name = fresh_var(hint or fold[0].name)
        self.folds.append((name, *fold))
        return name
