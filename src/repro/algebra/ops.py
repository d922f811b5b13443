"""Logical algebra operators.

Section 3 of the paper sketches evaluating canonical comprehensions by
translation into a logical algebra; this module provides that algebra.
A plan is a tree of operators producing streams of *binding
environments* (variable name -> value mappings):

- :class:`Scan` — bind a variable to each element of an extent or any
  independent collection expression — when that is a comprehension with
  a plan of its own, that plan's value, run to completion first;
- :class:`SelectOp` — filter bindings by a predicate term;
- :class:`Join` — combine two independent streams (with an optional
  predicate; equi-join keys are detected for hash execution);
- :class:`Unnest` — the dependent join: bind a variable to each element
  of a path expression over existing bindings (e.g. ``h <- c.hotels``);
- :class:`Nest` — the paper's Γ: group bindings by key terms and reduce
  each group with monoids (OQL ``group by``);
- :class:`Reduce` — fold the head expression of the comprehension into
  the output monoid (the final homomorphism).

The tree shape mirrors the canonical comprehension exactly, which is
the paper's point: after normalization, generators become a left-deep
chain of scans/joins/unnests that pipelines without materializing
intermediate collections.

**The operator table.** §3's operator positions hold only first-order
terms over the columns of one input, so everything structural about an
operator is three declarations, made once, here: ``CHILDREN`` (the names
of its child fields, in plan order), ``binds()`` (the variables it
binds) and ``_exprs()`` (its expression positions, each an
:class:`Expr`). Whatever only needs that structure —
plan-check, cache invalidation, the per-operator metrics, the optimizer's
and EXPLAIN's walks — is a loop over :meth:`PlanNode.walk`,
:attr:`PlanNode.exprs` and :meth:`PlanNode.with_children` and names no
operator class; ``tests/test_algebra_ops.py`` fails for a class whose
declarations miss one of its fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Any, NamedTuple, Optional

from repro.calculus.ast import Assign, MonoidRef, Term, Update, Var


#: One reduction of a :class:`Nest`: ``(var, monoid, head, pred-or-None)``.
Fold = tuple[str, MonoidRef, Term, Optional[Term]]


class Expr(NamedTuple):
    """One expression position of an operator."""

    #: the name the operator's loop and template ask for it by
    #: (:meth:`PlanNode.expr`); None for a term evaluated once per
    #: execution, before the stream starts (a Scan source, an IndexScan key)
    slot: Optional[str]
    #: what plan-check calls the position — one name, or one per term
    label: Any
    #: a term, None for an absent one, or a tuple of those
    terms: Any
    #: whose columns the terms may read: a child :class:`PlanNode`'s
    #: (resolved when :attr:`scope` is asked for), or a fixed set of
    #: names — never the operator's own node, which keeps its ``exprs``
    over: Any

    @property
    def scope(self) -> frozenset[str]:
        """The plan variables the terms may read."""
        over = self.over
        return over.columns() if isinstance(over, PlanNode) else over

    def labelled(self) -> list[tuple[str, Term]]:
        """``(label, term)`` for every term present."""
        terms = self.terms if isinstance(self.terms, tuple) else (self.terms,)
        labels = self.label if isinstance(self.label, tuple) else (self.label,) * len(terms)
        return [(label, term) for label, term in zip(labels, terms) if term is not None]


class PlanNode:
    """Base class of logical plan operators: frozen dataclasses, so what
    is derived from their fields (:meth:`columns`, :attr:`exprs`,
    :meth:`preorder`) is computed once per node and kept in its
    ``__dict__``."""

    __slots__ = ()

    #: names of the fields holding child operators, in plan order
    CHILDREN: tuple[str, ...]

    def binds(self) -> tuple[str, ...]:
        """The variables this operator itself binds."""
        raise NotImplementedError

    def _exprs(self) -> tuple[Expr, ...]:
        raise NotImplementedError

    def label(self) -> str:
        """The one-line operator description (first line of render)."""
        raise NotImplementedError

    @property
    def exprs(self) -> tuple[Expr, ...]:
        """The operator's expression positions."""
        exprs = self.__dict__.get("_cached_exprs")
        if exprs is None:
            exprs = self.__dict__["_cached_exprs"] = self._exprs()
        return exprs

    def expr(self, slot: str) -> Expr:
        """The expression position named ``slot``."""
        for entry in self.exprs:
            if entry.slot == slot:
                return entry
        raise KeyError(slot)

    def columns(self) -> frozenset[str]:
        """Variables bound in the binding environments this node emits:
        its input's and its own (a :class:`Nest` emits only its own)."""
        columns = self.__dict__.get("_cached_columns")
        if columns is None:
            columns = self.__dict__["_cached_columns"] = self._columns()
        return columns

    def _columns(self) -> frozenset[str]:
        return frozenset(self.binds()).union(*[c.columns() for c in self.children()])

    def children(self) -> tuple["PlanNode", ...]:
        """Child operators in plan order (leaves return ())."""
        children = self.__dict__.get("_cached_children")
        if children is None:  # an optional child (a Scan's sub-plan) may be absent
            children = tuple(
                [child for name in self.CHILDREN if (child := getattr(self, name)) is not None]
            )
            self.__dict__["_cached_children"] = children
        return children

    def with_children(self, *children: "PlanNode") -> "PlanNode":
        """This operator over ``children`` — itself when they are its own."""
        if all(map(is_, children, self.children())):
            return self
        fields = {name: getattr(self, name) for name in self.__dataclass_fields__}
        fields.update(zip(self.CHILDREN, children))
        return type(self)(**fields)

    def preorder(self) -> tuple["PlanNode", ...]:
        """Every operator of the tree under this one, pre-order: also the
        positions of an execution's :class:`~repro.obs.metrics.PlanMetrics`.
        The nodes below this one are what is kept: a kept tuple holding the
        node itself would make every plan a reference cycle."""
        below = self.__dict__.get("_cached_below")
        if below is None:
            below = tuple([node for child in self.children() for node in child.preorder()])
            self.__dict__["_cached_below"] = below
        return (self, *below)

    def render(self, indent: int = 0) -> str:
        """Explain-style tree rendering."""
        lines = ["  " * indent + self.label()]
        lines.extend(child.render(indent + 1) for child in self.children())
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def is_effect(pred: Term) -> bool:
    """Whether a :class:`SelectOp` predicate is a §4.2 effect (``+=`` /
    ``:=``, true once applied): an *effect filter*, which runs where the
    program wrote it — no selection is placed past it, and it moves nowhere."""
    return type(pred) is Update or type(pred) is Assign


def plan_variables(plan: PlanNode) -> frozenset[str]:
    """Every variable bound by some operator in the plan tree."""
    return frozenset(name for node in plan.preorder() for name in node.binds())


def _indexed(var: str, index_var: Optional[str]) -> str:
    return f"{var} [{index_var}]" if index_var else var


@dataclass(frozen=True)
class Scan(PlanNode):
    """Bind ``var`` to each element of an independent collection.

    ``source`` is a calculus term with no free plan variables — usually
    an extent name. ``index_var`` supports the vector generator form.
    ``sub``, when present, is ``source``'s own plan (``source`` is then a
    closed comprehension): it runs to completion before the first row is
    bound, and its value is the collection scanned. Its variables are its
    own — the Scan's columns are the Scan's binders alone.
    """

    var: str
    source: Term
    index_var: Optional[str] = None
    sub: Optional["Reduce"] = None

    CHILDREN = ("sub",)

    def binds(self) -> tuple[str, ...]:
        return (self.var, self.index_var) if self.index_var else (self.var,)

    def _columns(self) -> frozenset[str]:
        return frozenset(self.binds())

    def _exprs(self) -> tuple[Expr, ...]:
        # Evaluated in the global scope, where the scan's own names are
        # not yet bound: mentioning one there names a global. No Expr
        # holds its own node: a kept ``exprs`` would make a cycle.
        return (Expr(None, "source", self.source, frozenset(self.binds())),)

    def label(self) -> str:
        return f"Scan {_indexed(self.var, self.index_var)} <- {self.source}"


@dataclass(frozen=True)
class SelectOp(PlanNode):
    """Filter bindings by a boolean predicate term."""

    child: PlanNode
    pred: Term

    CHILDREN = ("child",)

    def binds(self) -> tuple[str, ...]:
        return ()

    def _exprs(self) -> tuple[Expr, ...]:
        return (Expr("pred_fn", "predicate", self.pred, self.child),)

    def label(self) -> str:
        return f"{'Effect' if is_effect(self.pred) else 'Select'} {self.pred}"


@dataclass(frozen=True)
class Join(PlanNode):
    """Combine two independent streams.

    ``left_keys``/``right_keys`` hold the sides of conjunctive equality
    predicates usable as hash keys (``left_keys[i] = right_keys[i]``);
    ``residual`` is whatever predicate remains. A Join with no keys and
    ``residual None`` is a cross product.
    """

    left: PlanNode
    right: PlanNode
    left_keys: tuple[Term, ...] = ()
    right_keys: tuple[Term, ...] = ()
    residual: Optional[Term] = None

    CHILDREN = ("left", "right")

    def binds(self) -> tuple[str, ...]:
        return ()

    def _exprs(self) -> tuple[Expr, ...]:
        both = self.left.columns() | self.right.columns()
        return (
            Expr("left_key_fns", "left key", self.left_keys, self.left),
            Expr("right_key_fns", "right key", self.right_keys, self.right),
            Expr("residual_fn", "residual", self.residual, both),
        )

    def label(self) -> str:
        if self.left_keys:
            keys = ", ".join(
                f"{l} = {r}" for l, r in zip(self.left_keys, self.right_keys)
            )
            head = f"Join [{keys}]"
        else:
            head = "Join [cross]"
        if self.residual is not None:
            head += f" where {self.residual}"
        return head


@dataclass(frozen=True)
class Unnest(PlanNode):
    """Dependent join: bind ``var`` to elements of ``path`` per binding.

    This is the pipelining operator the canonical form enables: e.g.
    ``h <- c.hotels`` never materializes the set of all hotels.
    """

    child: PlanNode
    var: str
    path: Term
    index_var: Optional[str] = None

    CHILDREN = ("child",)
    binds = Scan.binds

    def _exprs(self) -> tuple[Expr, ...]:
        return (Expr("src_fn", "path", self.path, self.child),)

    def label(self) -> str:
        return f"Unnest {_indexed(self.var, self.index_var)} <- {self.path}"


@dataclass(frozen=True)
class Reduce(PlanNode):
    """The final homomorphism: fold ``head`` into the output monoid."""

    monoid: MonoidRef
    head: Term
    child: PlanNode

    CHILDREN = ("child",)

    def binds(self) -> tuple[str, ...]:
        return ()

    def _exprs(self) -> tuple[Expr, ...]:
        return (Expr("head_fn", "head", self.head, self.child),)

    def label(self) -> str:
        return f"Reduce {self.monoid}{{ {self.head} }}"


@dataclass(frozen=True)
class Nest(PlanNode):
    """Grouping — the paper's Γ: one output binding per distinct key
    tuple, each group reduced by monoids as its rows arrive.

    For each input binding, ``keys`` (label -> term) are evaluated to
    form the group key, and every fold ``(var, monoid, head, pred)``
    whose ``pred`` holds (None: always) merges ``head`` into that
    group's running ``monoid`` value. After the input is exhausted, one
    binding per group is emitted carrying the key labels and the fold
    variables. The ODMG ``partition`` is the fold ``(partition, bag,
    row, None)``, present only when the query reads it. This is the
    blocking operator that makes OQL ``group by`` a single pass instead
    of one re-scan per distinct key.
    """

    child: PlanNode
    keys: tuple[tuple[str, Term], ...]
    folds: tuple[Fold, ...]

    CHILDREN = ("child",)

    def binds(self) -> tuple[str, ...]:
        return tuple(
            [label for label, _ in self.keys] + [fold[0] for fold in self.folds]
        )

    def _columns(self) -> frozenset[str]:
        return frozenset(self.binds())  # a group replaces the rows folded into it

    def _exprs(self) -> tuple[Expr, ...]:
        # ``head_fns``/``pred_fns`` run parallel to ``folds`` (a None
        # pred stays None).
        over = self.child
        key_labels = tuple(f"key {label}" for label, _ in self.keys)
        fold_labels = tuple(f"fold {fold[0]}" for fold in self.folds)
        return (
            Expr("key_fns", key_labels, tuple(term for _, term in self.keys), over),
            Expr("head_fns", fold_labels, tuple(fold[2] for fold in self.folds), over),
            Expr("pred_fns", fold_labels, tuple(fold[3] for fold in self.folds), over),
        )

    def label(self) -> str:
        keys = ", ".join(f"{label}={term}" for label, term in self.keys)
        folds = ", ".join(
            f"{var} <- {monoid}{{ {head}{'' if pred is None else f' | {pred}'} }}"
            for var, monoid, head, pred in self.folds
        )
        return f"Nest [{keys}] {folds}".rstrip()


@dataclass(frozen=True)
class IndexScan(PlanNode):
    """Scan an extent through a hash index: ``var <- extent[attr = key]``.

    Produced by the optimizer when a selection on a scanned extent
    matches an available index; ``key`` may reference outer constants
    only (it is evaluated once).
    """

    var: str
    extent: str
    attribute: str
    key: Term

    CHILDREN = ()

    def binds(self) -> tuple[str, ...]:
        return (self.var,)

    def _exprs(self) -> tuple[Expr, ...]:
        # ``key`` was the other side of a predicate on ``var``: unlike a
        # Scan source it may not mention it. The extent is read by name —
        # declared as a term so that whoever collects what a plan reads
        # finds it among the free variables.
        return (
            Expr(None, "key", self.key, frozenset()),
            Expr(None, "extent", Var(self.extent), frozenset((self.extent,))),
        )

    def label(self) -> str:
        return f"IndexScan {self.var} <- {self.extent}[{self.attribute} = {self.key}]"
