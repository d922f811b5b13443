"""The Table 3 rewrite rules.

Each rule is a small class with a ``name``, a ``description`` quoting
the paper's schema, the ``heads`` it can fire on (node classes) and an
``apply(term) -> Term | None`` method that returns the rewritten term
when the rule matches at this node (and ``None`` otherwise). The engine
in :mod:`repro.normalize.engine` applies rules at every position to a
fixpoint, trying a rule only at nodes of its head classes.

Soundness notes baked into the guards:

- Substitution-based rules (beta, binding elimination, singleton
  generators, flattening heads) may duplicate or drop the substituted
  expression, so they require it to be *pure* (no heap effects) unless
  the variable occurs exactly once.
- Rules that erase a whole comprehension (false predicate, empty
  generator) require the comprehension to be pure.
- The merge-split and conditional-split rules change enumeration order,
  so they require the output monoid to be commutative unless no other
  generator is involved.
- The flattening rule N9 — the paper's key rule — carries the side
  condition ``props(N) ⊆ props(M)``, which is exactly the comprehension
  well-formedness condition the type checker enforces; the rule
  re-checks it locally so normalization is sound even on unchecked
  terms.
- Existential fusion (N13) additionally needs the outer monoid to be
  idempotent, since splicing an inner ``some`` multiplies outer
  elements by the number of witnesses.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.calculus.ast import (
    Apply,
    Bind,
    BinOp,
    Comprehension,
    Const,
    Empty,
    Filter,
    Generator,
    If,
    Index,
    Lambda,
    Let,
    Merge,
    MonoidRef,
    Proj,
    Qualifier,
    RecordCons,
    Singleton,
    Term,
    TupleCons,
    UnOp,
)
from repro.analysis.dataflow import use_count
from repro.calculus.traversal import fresh_var, has_effects, substitute
from repro.calculus.ast import Var
from repro.monoids.base import COMMUTATIVE, IDEMPOTENT
from repro.monoids.registry import get_monoid, static_monoid
from repro.values.compare import stored


def _monoid_static_props(ref: MonoidRef) -> Optional[frozenset[str]]:
    """Static C/I properties of a monoid reference, or None if unknown."""
    monoid = static_monoid(ref)
    return None if monoid is None else monoid.properties


def _has(ref: MonoidRef, prop: str) -> bool:
    return prop in (_monoid_static_props(ref) or ())


def _splice_coherent(
    quals: tuple[Qualifier, ...], outer_props: Optional[frozenset[str]]
) -> bool:
    """May these qualifiers be spliced into a comprehension with
    ``outer_props``? Any generator whose source monoid is syntactically
    known must satisfy the §3 restriction ``props(N) ⊆ props(M)`` in
    its new home (unknown sources — extents, paths — are unconstrained
    statically, matching the type checker)."""
    if outer_props is None:
        return False
    for qual in quals:
        if not isinstance(qual, Generator):
            continue
        source = qual.source
        if not isinstance(source, (Empty, Singleton, Merge, Comprehension)):
            continue
        src_props = _monoid_static_props(source.monoid)
        if src_props is not None and not src_props <= outer_props:
            return False
    return True


def _rest_comprehension(comp: Comprehension, start: int) -> Comprehension:
    """The comprehension formed by the qualifiers after position ``start``."""
    return Comprehension(comp.monoid, comp.head, comp.qualifiers[start + 1 :])


def _rebuild(
    comp: Comprehension, prefix: tuple[Qualifier, ...], rest: Comprehension
) -> Comprehension:
    """Reattach a prefix to a rewritten suffix comprehension."""
    return Comprehension(comp.monoid, rest.head, prefix + rest.qualifiers)


def _substitute_suffix(
    comp: Comprehension, position: int, var_name: str, value: Term
) -> Comprehension:
    """Substitute ``value`` for ``var_name`` in everything after ``position``.

    ``var_name``'s binder at ``position`` is removed; prior qualifiers
    are untouched.
    """
    rest = _rest_comprehension(comp, position)
    rest = substitute(rest, var_name, value)
    assert isinstance(rest, Comprehension)
    return _rebuild(comp, comp.qualifiers[:position], rest)


def _freshen(comp: Comprehension) -> Comprehension:
    """Alpha-rename every variable bound by ``comp``'s qualifiers.

    Used before splicing an inner comprehension's qualifiers into an
    outer one (rules N9/N13), so inner binders can never capture outer
    variables. Fresh names are globally unique.
    """
    quals = list(comp.qualifiers)
    head = comp.head
    for i, qual in enumerate(quals):
        if isinstance(qual, Generator):
            names = [qual.var] + ([qual.index_var] if qual.index_var else [])
        elif isinstance(qual, Bind):
            names = [qual.var]
        else:
            continue
        for old in names:
            new = fresh_var(old.split("~")[0])
            replacement = Var(new)
            for j in range(i, len(quals)):
                q = quals[j]
                if j == i:
                    if isinstance(q, Generator):
                        quals[j] = Generator(
                            new if q.var == old else q.var,
                            q.source,
                            (
                                new
                                if q.index_var == old
                                else q.index_var
                            ),
                        )
                    else:
                        quals[j] = Bind(new, q.value)
                else:
                    if isinstance(q, Generator):
                        quals[j] = Generator(
                            q.var, substitute(q.source, old, replacement), q.index_var
                        )
                    elif isinstance(q, Bind):
                        quals[j] = Bind(q.var, substitute(q.value, old, replacement))
                    else:
                        quals[j] = Filter(substitute(q.pred, old, replacement))
            head = substitute(head, old, replacement)
    return Comprehension(comp.monoid, head, tuple(quals))


class Rule:
    """Base class: a named rewrite with an ``apply`` partial function."""

    name: str = "rule"
    description: str = ""
    #: The node classes ``apply`` can return a rewrite for; the engine
    #: does not call it on any other. ``None``: call it on every node.
    heads: Optional[tuple[type, ...]] = None

    def apply(self, term: Term) -> Optional[Term]:  # pragma: no cover - abstract
        raise NotImplementedError


class BetaReduction(Rule):
    """N1: ``(\\v. e1) e2  ==>  e1[e2/v]``."""

    name = "N1-beta"
    description = "(\\v. e1) e2 => e1[e2/v]"
    heads = (Apply,)

    def apply(self, term: Term) -> Optional[Term]:
        if not isinstance(term, Apply) or not isinstance(term.fn, Lambda):
            return None
        if has_effects(term.arg) and use_count(term.fn.body, term.fn.param) != 1:
            return None
        return substitute(term.fn.body, term.fn.param, term.arg)


class LetInline(Rule):
    """N1b: ``let v = e1 in e2  ==>  e2[e1/v]`` (same guard as beta)."""

    name = "N1-let"
    description = "let v = e1 in e2 => e2[e1/v]"
    heads = (Let,)

    def apply(self, term: Term) -> Optional[Term]:
        if not isinstance(term, Let):
            return None
        if has_effects(term.value) and use_count(term.body, term.var) != 1:
            return None
        return substitute(term.body, term.var, term.value)


class RecordProjection(Rule):
    """N2: ``<..., a=e, ...>.a  ==>  e``."""

    name = "N2-proj"
    description = "<..., a=e, ...>.a => e"
    heads = (Proj,)

    def apply(self, term: Term) -> Optional[Term]:
        if not isinstance(term, Proj) or not isinstance(term.base, RecordCons):
            return None
        fields = term.base.field_map()
        if term.name not in fields:
            return None
        others = [v for k, v in fields.items() if k != term.name]
        if any(has_effects(v) for v in others):
            return None
        return fields[term.name]


class TupleProjection(Rule):
    """N2b: ``(e0, ..., en)[i]  ==>  ei`` for a constant index."""

    name = "N2-tuple"
    description = "(e0, ..., en)[i] => ei"
    heads = (Index,)

    def apply(self, term: Term) -> Optional[Term]:
        if not isinstance(term, Index) or not isinstance(term.base, TupleCons):
            return None
        if not isinstance(term.index, Const) or not isinstance(term.index.value, int):
            return None
        i = term.index.value
        items = term.base.items
        if not 0 <= i < len(items):
            return None
        if any(has_effects(item) for j, item in enumerate(items) if j != i):
            return None
        return items[i]


class BindingElimination(Rule):
    """N3: ``M{ e | q, v == u, s }  ==>  M{ e[u/v] | q, s[u/v] }``."""

    name = "N3-bind"
    description = "M{ e | q, v == u, s } => M{ e[u/v] | q, s[u/v] }"
    heads = (Comprehension,)

    def apply(self, term: Term) -> Optional[Term]:
        if not isinstance(term, Comprehension):
            return None
        for i, qual in enumerate(term.qualifiers):
            if not isinstance(qual, Bind):
                continue
            rest = _rest_comprehension(term, i)
            if has_effects(qual.value) and use_count(rest, qual.var) != 1:
                continue
            return _substitute_suffix(term, i, qual.var, qual.value)
        return None


class TruePredicate(Rule):
    """N4: ``M{ e | q, true, s }  ==>  M{ e | q, s }``."""

    name = "N4-true"
    description = "M{ e | q, true, s } => M{ e | q, s }"
    heads = (Comprehension,)

    def apply(self, term: Term) -> Optional[Term]:
        if not isinstance(term, Comprehension):
            return None
        for i, qual in enumerate(term.qualifiers):
            if isinstance(qual, Filter) and qual.pred == Const(True):
                quals = term.qualifiers[:i] + term.qualifiers[i + 1 :]
                return Comprehension(term.monoid, term.head, quals)
        return None


class FalsePredicate(Rule):
    """N5: ``M{ e | q, false, s }  ==>  zero(M)``."""

    name = "N5-false"
    description = "M{ e | q, false, s } => zero(M)"
    heads = (Comprehension,)

    def apply(self, term: Term) -> Optional[Term]:
        if not isinstance(term, Comprehension):
            return None
        if not any(
            isinstance(q, Filter) and q.pred == Const(False) for q in term.qualifiers
        ):
            return None
        if has_effects(term):
            return None
        return Empty(term.monoid)


class EmptyGenerator(Rule):
    """N6: ``M{ e | q, v <- zero(N), s }  ==>  zero(M)``."""

    name = "N6-empty"
    description = "M{ e | q, v <- zero(N), s } => zero(M)"
    heads = (Comprehension,)

    def apply(self, term: Term) -> Optional[Term]:
        if not isinstance(term, Comprehension):
            return None
        if not any(
            isinstance(q, Generator) and isinstance(q.source, Empty)
            for q in term.qualifiers
        ):
            return None
        if has_effects(term):
            return None
        return Empty(term.monoid)


class SingletonGenerator(Rule):
    """N7: ``M{ e | q, v <- unit(N)(u), s }  ==>  M{ e[u/v] | q, s[u/v] }``."""

    name = "N7-unit"
    description = "M{ e | q, v <- unit(N)(u), s } => M{ e[u/v] | q, s[u/v] }"
    heads = (Comprehension,)

    def apply(self, term: Term) -> Optional[Term]:
        if not isinstance(term, Comprehension):
            return None
        for i, qual in enumerate(term.qualifiers):
            if not isinstance(qual, Generator):
                continue
            if not isinstance(qual.source, Singleton):
                continue
            if qual.source.index is not None or qual.index_var is not None:
                continue  # vector units keep their positional structure
            value = qual.source.element
            rest = _rest_comprehension(term, i)
            if has_effects(value) and use_count(rest, qual.var) != 1:
                continue
            return _substitute_suffix(term, i, qual.var, value)
        return None


class MergeSplit(Rule):
    """N8: ``M{ e | q, v <- e1 (+) e2, s } ==>
    M{ e | q, v <- e1, s } (+)M M{ e | q, v <- e2, s }``.

    Requires M commutative when other generators surround the split one
    (otherwise enumeration order changes), and purity (q and s are
    duplicated).
    """

    name = "N8-merge"
    description = "M{e | q, v <- e1 (+) e2, s} => M{e|q,v<-e1,s} (+)M M{e|q,v<-e2,s}"
    heads = (Comprehension,)

    def apply(self, term: Term) -> Optional[Term]:
        if not isinstance(term, Comprehension):
            return None
        for i, qual in enumerate(term.qualifiers):
            if not isinstance(qual, Generator) or not isinstance(qual.source, Merge):
                continue
            others_generate = any(
                isinstance(q, Generator)
                for j, q in enumerate(term.qualifiers)
                if j != i
            )
            if others_generate and not _has(term.monoid, COMMUTATIVE):
                continue
            if has_effects(term):
                continue
            left = Comprehension(
                term.monoid,
                term.head,
                term.qualifiers[:i]
                + (Generator(qual.var, qual.source.left, qual.index_var),)
                + term.qualifiers[i + 1 :],
            )
            right = Comprehension(
                term.monoid,
                term.head,
                term.qualifiers[:i]
                + (Generator(qual.var, qual.source.right, qual.index_var),)
                + term.qualifiers[i + 1 :],
            )
            return Merge(term.monoid, left, right)
        return None


class ConstantCollection(Rule):
    """N8c: ``M{ e | q, v <- c1 (+) ... (+) cn, s }  ==>  M{ e | q, v <- C, s }``
    where every ``ci`` is the unit of a constant and ``C`` is the
    collection they build, when another generator is present.

    Constant folding for a set, bag or list literal: N8 would split the
    comprehension into one copy per element, each re-reading the other
    generators, and a merge of comprehensions has no plan; one constant
    is one source a plan scans once. A literal with no generator beside
    it is still split (a membership test becomes ``=`` / ``or``), and so
    is a one-element one (N7 then substitutes its element).
    """

    name = "N8c-literal"
    description = "M{e | q, v <- c1 (+) ... (+) cn, s} => M{e | q, v <- C, s} (another generator)"
    heads = (Comprehension,)

    def apply(self, term: Term) -> Optional[Term]:
        if not isinstance(term, Comprehension):
            return None
        quals = term.qualifiers
        if sum(isinstance(q, Generator) for q in quals) < 2:
            return None
        for i, qual in enumerate(quals):
            if isinstance(qual, Generator) and isinstance(qual.source, Merge):
                value = _literal_value(qual.source)
                if value is not None:
                    folded = Generator(qual.var, Const(value), qual.index_var)
                    quals = quals[:i] + (folded,) + quals[i + 1 :]
                    return Comprehension(term.monoid, term.head, quals)
        return None


#: the monoids whose literals N8c folds
_LITERAL_MONOIDS = ("set", "bag", "list")

#: constants a literal may hold: the evaluator's unfrozen scalars
_SCALARS = frozenset({int, float, str, bool, type(None)})


def _literal_value(source: Merge) -> Any:
    """The collection a merge of constant units (and zeros) of one
    set, bag or list monoid builds, as the evaluator would build it
    (a set stored); None for any other term, or fewer than two units."""
    name = source.monoid.name
    if name not in _LITERAL_MONOIDS:
        return None
    monoid = get_monoid(name)
    units = 0

    def build(term: Term) -> Any:
        nonlocal units
        if getattr(term, "monoid", None) != source.monoid:
            return None
        if isinstance(term, Empty):
            return monoid.zero()
        if isinstance(term, Singleton):
            element = term.element
            if term.index is not None or not isinstance(element, Const):
                return None
            if type(element.value) not in _SCALARS:
                return None
            units += 1
            return monoid.unit(element.value)
        if isinstance(term, Merge):
            left = build(term.left)
            right = None if left is None else build(term.right)
            return None if right is None else monoid.merge(left, right)
        return None

    value = build(source)
    return stored(value) if value is not None and units >= 2 else None


class FlattenGenerator(Rule):
    """N9 — the key rule: unnest a comprehension in generator position.

    ``M{ e | q, v <- N{ e' | r }, s }  ==>  M{ e | q, r, v == e', s }``

    Side condition: ``props(N) ⊆ props(M)``. The inner comprehension's
    qualifiers are alpha-renamed before splicing. The binding
    ``v == e'`` is left for N3 to eliminate, keeping each step small
    and auditable (the paper composes rules the same way).
    """

    name = "N9-flatten"
    description = "M{ e | q, v <- N{e'|r}, s } => M{ e | q, r, v == e', s }"
    heads = (Comprehension,)

    def apply(self, term: Term) -> Optional[Term]:
        if not isinstance(term, Comprehension):
            return None
        outer_props = _monoid_static_props(term.monoid)
        for i, qual in enumerate(term.qualifiers):
            if not isinstance(qual, Generator):
                continue
            inner = qual.source
            if not isinstance(inner, Comprehension):
                continue
            if qual.index_var is not None:
                continue  # indexed generators need the materialized vector
            inner_props = _monoid_static_props(inner.monoid)
            if inner_props is None or outer_props is None:
                continue
            if not inner.monoid.name or inner.monoid.is_vector:
                continue
            if not inner_props <= outer_props:
                continue
            fresh_inner = _freshen(inner)
            spliced = (
                term.qualifiers[:i]
                + fresh_inner.qualifiers
                + (Bind(qual.var, fresh_inner.head),)
                + term.qualifiers[i + 1 :]
            )
            return Comprehension(term.monoid, term.head, spliced)
        return None


class ConditionalGenerator(Rule):
    """N10: ``M{ e | q, v <- if p then e1 else e2, s }  ==>``
    guarded two-branch merge. Same commutativity/purity guards as N8."""

    name = "N10-if-gen"
    description = (
        "M{e | q, v <- if p then e1 else e2, s} => "
        "M{e | q, p, v <- e1, s} (+)M M{e | q, not p, v <- e2, s}"
    )
    heads = (Comprehension,)

    def apply(self, term: Term) -> Optional[Term]:
        if not isinstance(term, Comprehension):
            return None
        for i, qual in enumerate(term.qualifiers):
            if not isinstance(qual, Generator) or not isinstance(qual.source, If):
                continue
            others_generate = any(
                isinstance(q, Generator)
                for j, q in enumerate(term.qualifiers)
                if j != i
            )
            if others_generate and not _has(term.monoid, COMMUTATIVE):
                continue
            if has_effects(term):
                continue
            cond = qual.source.cond
            left = Comprehension(
                term.monoid,
                term.head,
                term.qualifiers[:i]
                + (Filter(cond), Generator(qual.var, qual.source.then_branch, qual.index_var))
                + term.qualifiers[i + 1 :],
            )
            right = Comprehension(
                term.monoid,
                term.head,
                term.qualifiers[:i]
                + (
                    Filter(UnOp("not", cond)),
                    Generator(qual.var, qual.source.else_branch, qual.index_var),
                )
                + term.qualifiers[i + 1 :],
            )
            return Merge(term.monoid, left, right)
        return None


class PredicateConjunction(Rule):
    """N12: ``M{ e | q, p1 and p2, s }  ==>  M{ e | q, p1, p2, s }``."""

    name = "N12-and"
    description = "M{ e | q, p1 and p2, s } => M{ e | q, p1, p2, s }"
    heads = (Comprehension,)

    def apply(self, term: Term) -> Optional[Term]:
        if not isinstance(term, Comprehension):
            return None
        for i, qual in enumerate(term.qualifiers):
            if not isinstance(qual, Filter):
                continue
            pred = qual.pred
            if isinstance(pred, BinOp) and pred.op == "and":
                quals = (
                    term.qualifiers[:i]
                    + (Filter(pred.left), Filter(pred.right))
                    + term.qualifiers[i + 1 :]
                )
                return Comprehension(term.monoid, term.head, quals)
        return None


class ExistentialFusion(Rule):
    """N11: fuse a ``some``-comprehension predicate into the outer query.

    ``M{ e | q, some{ p | r }, s }  ==>  M{ e | q, r, p, s }``

    Sound only when M is idempotent: each witness found by ``r``
    re-emits the outer head, and idempotence collapses the duplicates.
    This is the paper's flattening of nested ``exists`` subqueries into
    joins. Inner binders are alpha-renamed before splicing, and the
    spliced generators must stay coherent in their new home: inside
    ``some`` (commutative *and* idempotent) any collection source is
    well-formed, but M may be weaker (e.g. ``oset``), so a generator
    whose source monoid is known must satisfy ``props(N) ⊆ props(M)``
    after the move.
    """

    name = "N11-exists"
    description = "M{ e | q, some{p | r}, s } => M{ e | q, r, p, s } (M idempotent)"
    heads = (Comprehension,)

    def apply(self, term: Term) -> Optional[Term]:
        if not isinstance(term, Comprehension):
            return None
        if not _has(term.monoid, IDEMPOTENT):
            return None
        outer_props = _monoid_static_props(term.monoid)
        for i, qual in enumerate(term.qualifiers):
            if not isinstance(qual, Filter):
                continue
            pred = qual.pred
            if not isinstance(pred, Comprehension) or pred.monoid.name != "some":
                continue
            if has_effects(pred):
                continue
            if not _splice_coherent(pred.qualifiers, outer_props):
                continue
            inner = _freshen(pred)
            spliced = (
                term.qualifiers[:i]
                + inner.qualifiers
                + (Filter(inner.head),)
                + term.qualifiers[i + 1 :]
            )
            return Comprehension(term.monoid, term.head, spliced)
        return None


class EmptyComprehension(Rule):
    """N0: ``M{ e | }  ==>  unit(M)(e)`` — the base case of the sugar.
    A primitive monoid's unit is the identity, so there it is ``e``."""

    name = "N0-unit"
    description = "M{ e | } => unit(M)(e)"
    heads = (Comprehension,)

    def apply(self, term: Term) -> Optional[Term]:
        if not isinstance(term, Comprehension) or term.qualifiers:
            return None
        if term.monoid.is_vector:
            return None  # vector heads carry an index; keep structure
        monoid = static_monoid(term.monoid)
        if monoid is not None and not monoid.is_collection:
            return term.head
        return Singleton(term.monoid, term.head)


class IdentityMerge(Rule):
    """N14: ``zero (+) e => e`` and ``e (+) zero => e``."""

    name = "N14-zero"
    description = "zero(M) (+)M e => e;  e (+)M zero(M) => e"
    heads = (Merge,)

    def apply(self, term: Term) -> Optional[Term]:
        if not isinstance(term, Merge):
            return None
        if isinstance(term.left, Empty) and term.left.monoid.name == term.monoid.name:
            return term.right
        if isinstance(term.right, Empty) and term.right.monoid.name == term.monoid.name:
            return term.left
        return None


class ConstantFolding(Rule):
    """N15: fold operators over constants (``3 < 5 => true``, ``not true
    => false``, ``if true then a else b => a``)."""

    name = "N15-const"
    description = "fold constant operators and conditionals"
    heads = (If, UnOp, BinOp)

    def apply(self, term: Term) -> Optional[Term]:
        if isinstance(term, If) and isinstance(term.cond, Const):
            if term.cond.value is True:
                return term.then_branch
            if term.cond.value is False:
                return term.else_branch
            return None
        if isinstance(term, UnOp) and term.op == "not" and isinstance(term.operand, Const):
            if isinstance(term.operand.value, bool):
                return Const(not term.operand.value)
            return None
        if isinstance(term, BinOp):
            left, right = term.left, term.right
            if term.op == "and":
                if left == Const(True):
                    return right
                if right == Const(True):
                    return left
                if Const(False) in (left, right):
                    return Const(False)
                return None
            if term.op == "or":
                if left == Const(False):
                    return right
                if right == Const(False):
                    return left
                if Const(True) in (left, right):
                    return Const(True)
                return None
            if isinstance(left, Const) and isinstance(right, Const):
                return self._fold(term.op, left.value, right.value)
        return None

    @staticmethod
    def _fold(op: str, a, b) -> Optional[Term]:
        try:
            if op == "=":
                return Const(a == b)
            if op == "!=":
                return Const(a != b)
            numeric = (
                isinstance(a, (int, float))
                and isinstance(b, (int, float))
                and not isinstance(a, bool)
                and not isinstance(b, bool)
            )
            if op in ("<", "<=", ">", ">=") and numeric:
                return Const({"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op])
            if op in ("+", "-", "*") and numeric:
                return Const({"+": a + b, "-": a - b, "*": a * b}[op])
        except TypeError:
            return None
        return None


#: The default Table 3 rule set, in application priority order.
DEFAULT_RULES: tuple[Rule, ...] = (
    BetaReduction(),
    LetInline(),
    RecordProjection(),
    TupleProjection(),
    ConstantFolding(),
    TruePredicate(),
    FalsePredicate(),
    EmptyGenerator(),
    IdentityMerge(),
    SingletonGenerator(),
    BindingElimination(),
    PredicateConjunction(),
    FlattenGenerator(),
    ExistentialFusion(),
    ConstantCollection(),
    MergeSplit(),
    ConditionalGenerator(),
)

#: Rules safe to report in Table 3 benchmarks, indexed by name.
RULES_BY_NAME: dict[str, Rule] = {rule.name: rule for rule in DEFAULT_RULES}
RULES_BY_NAME[EmptyComprehension().name] = EmptyComprehension()

#: Rule set used before algebra planning: the merge-split and
#: conditional-split rules are omitted because they rewrite a single
#: comprehension into a *merge of* comprehensions, which has no single
#: operator-tree plan. The executor simply evaluates such generator
#: sources inline, which stays pipelined.
PLANNING_RULES: tuple[Rule, ...] = tuple(
    rule
    for rule in DEFAULT_RULES
    if not isinstance(rule, (MergeSplit, ConditionalGenerator))
)
