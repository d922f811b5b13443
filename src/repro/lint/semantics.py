"""Pass 3 — semantics lints: legal queries that lie about their intent.

- ``QL101`` — a ``set`` comprehension ranges over a bag or list
  source. That is well formed (``props(bag) ⊂ props(set)``) but it
  *silently* deduplicates; the Albert/Grumbach-style set/bag mixing
  hazard. Queries that asked for it (``select distinct``) are exempt —
  the translator marks those comprehensions. The source's kind is the
  monoid it spells, else the type the context's inference gave it.
- ``QL102`` — an always-true predicate: the filter never rejects.
- ``QL103`` — an always-false predicate: the comprehension is the
  monoid's zero, almost certainly a typo (e.g. ``x != x``).

Truth analysis is purely syntactic (constants, constant folding over
literals, and reflexive comparisons of effect-free terms) — no
evaluation happens here.
"""

from __future__ import annotations

from typing import Optional

from repro.calculus.ast import (
    BinOp,
    Comprehension,
    Const,
    Empty,
    Filter,
    Generator,
    Merge,
    Singleton,
    Term,
    UnOp,
)
from repro.calculus.traversal import alpha_equal, has_effects, subterms
from repro.lint.base import LintContext
from repro.lint.diagnostics import Diagnostic, make
from repro.monoids import IDEMPOTENT, static_monoid
from repro.span import span_of
from repro.types.types import TColl

name = "semantics"


def run(term: Term, ctx: LintContext) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    for sub in subterms(term):
        if isinstance(sub, Comprehension):
            _check_implicit_dedup(sub, ctx, diagnostics)
            for qual in sub.qualifiers:
                if isinstance(qual, Filter):
                    _check_constant_predicate(qual, diagnostics)
    return diagnostics


def _check_implicit_dedup(
    comp: Comprehension, ctx: LintContext, diagnostics: list[Diagnostic]
) -> None:
    if (
        comp.monoid.is_vector
        or comp.monoid.name != "set"
        or getattr(comp, "explicit_dedup", False)
    ):
        return
    for qual in comp.qualifiers:
        if not isinstance(qual, Generator):
            continue
        kind = _source_monoid(qual, ctx)
        monoid = None if kind is None else static_monoid(kind)
        # a collection whose elements may carry duplicates a set drops
        if monoid is not None and monoid.is_collection and IDEMPOTENT not in monoid.properties:
            diagnostics.append(
                make(
                    "QL101",
                    f"set comprehension over a {kind} source silently "
                    f"deduplicates; write 'select distinct' if that "
                    f"is intended, or keep the result a {kind}",
                    span_of(qual) or span_of(comp),
                )
            )


def _source_monoid(qual: Generator, ctx: LintContext) -> Optional[str]:
    """The collection monoid a generator ranges over (``set``/``bag``/...).

    A source that spells its monoid answers with what was written (a
    ``sortedbag`` comprehension has *type* list); any other with the
    type the context's inference gave it. None when the kind cannot be
    established — the lint then stays silent rather than guess.
    """
    source = qual.source
    if isinstance(source, (Empty, Singleton, Merge, Comprehension)):
        return None if source.monoid.is_vector else source.monoid.name
    _, source_types = ctx.inference
    ty = source_types.get(id(qual))
    return ty.monoid if isinstance(ty, TColl) else None


def _check_constant_predicate(qual: Filter, diagnostics: list[Diagnostic]) -> None:
    truth = constant_truth(qual.pred)
    span = span_of(qual.pred) or span_of(qual)
    if truth is True:
        diagnostics.append(
            make("QL102", "predicate is always true; the filter is redundant", span)
        )
    elif truth is False:
        diagnostics.append(
            make(
                "QL103",
                "predicate is always false; the comprehension can never "
                "produce anything",
                span,
            )
        )


_FOLDABLE = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

#: Comparisons that hold / fail on syntactically identical operands.
_REFLEXIVE_TRUE = frozenset({"=", "<=", ">="})
_REFLEXIVE_FALSE = frozenset({"!=", "<", ">"})


def constant_truth(pred: Term) -> Optional[bool]:
    """True/False when the predicate's value is statically known.

    >>> from repro.calculus.builders import var, const
    >>> constant_truth(BinOp("=", var("x"), var("x")))
    True
    >>> constant_truth(BinOp("<", const(1), const(2)))
    True
    >>> constant_truth(BinOp("!=", var("x"), var("y"))) is None
    True
    """
    if isinstance(pred, Const) and isinstance(pred.value, bool):
        return pred.value
    if isinstance(pred, UnOp) and pred.op == "not":
        inner = constant_truth(pred.operand)
        return None if inner is None else not inner
    if isinstance(pred, BinOp):
        if pred.op == "and":
            left, right = constant_truth(pred.left), constant_truth(pred.right)
            if left is False or right is False:
                return False
            if left is True and right is True:
                return True
            return None
        if pred.op == "or":
            left, right = constant_truth(pred.left), constant_truth(pred.right)
            if left is True or right is True:
                return True
            if left is False and right is False:
                return False
            return None
        fold = _FOLDABLE.get(pred.op)
        if fold is None:
            return None
        if isinstance(pred.left, Const) and isinstance(pred.right, Const):
            try:
                return bool(fold(pred.left.value, pred.right.value))
            except TypeError:
                return None
        if alpha_equal(pred.left, pred.right) and not has_effects(pred.left):
            if pred.op in _REFLEXIVE_TRUE:
                return True
            if pred.op in _REFLEXIVE_FALSE:
                return False
    return None
