"""Logical algebra operators.

Section 3 of the paper sketches evaluating canonical comprehensions by
translation into a logical algebra; this module provides that algebra.
A plan is a tree of operators producing streams of *binding
environments* (variable name -> value mappings):

- :class:`Scan` — bind a variable to each element of an extent or any
  independent collection expression;
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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.calculus.ast import MonoidRef, Term


#: One reduction of a :class:`Nest`: ``(var, monoid, head, pred-or-None)``.
Fold = tuple[str, MonoidRef, Term, Optional[Term]]


class PlanNode:
    """Base class of logical plan operators."""

    __slots__ = ()

    def columns(self) -> frozenset[str]:
        """Variables bound in the binding environments this node emits."""
        raise NotImplementedError

    def children(self) -> tuple["PlanNode", ...]:
        """Child operators in plan order (leaves return ())."""
        return ()

    def label(self) -> str:
        """The one-line operator description (first line of render)."""
        return self.render(0).splitlines()[0]

    def render(self, indent: int = 0) -> str:
        """Explain-style tree rendering."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class Scan(PlanNode):
    """Bind ``var`` to each element of an independent collection.

    ``source`` is a calculus term with no free plan variables — usually
    an extent name. ``index_var`` supports the vector generator form.
    """

    var: str
    source: Term
    index_var: Optional[str] = None

    def columns(self) -> frozenset[str]:
        out = {self.var}
        if self.index_var:
            out.add(self.index_var)
        return frozenset(out)

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        suffix = f" [{self.index_var}]" if self.index_var else ""
        return f"{pad}Scan {self.var}{suffix} <- {self.source}"


@dataclass(frozen=True)
class SelectOp(PlanNode):
    """Filter bindings by a boolean predicate term."""

    child: PlanNode
    pred: Term

    # JIT slots (class-level defaults, not dataclass fields): populated
    # in place by repro.jit.plan.compile_node. ``jit_ready`` is set last
    # so concurrent readers either see a fully compiled node or fall
    # back to compiling it themselves (idempotent).
    pred_fn = None
    jit_ready = False
    jit_stats = None

    def columns(self) -> frozenset[str]:
        return self.child.columns()

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        return f"{pad}Select {self.pred}\n{self.child.render(indent + 1)}"


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

    # JIT slots — see SelectOp.
    left_key_fns = ()
    right_key_fns = ()
    residual_fn = None
    jit_ready = False
    jit_stats = None

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        if self.left_keys:
            keys = ", ".join(
                f"{l} = {r}" for l, r in zip(self.left_keys, self.right_keys)
            )
            head = f"{pad}Join [{keys}]"
        else:
            head = f"{pad}Join [cross]"
        if self.residual is not None:
            head += f" where {self.residual}"
        return f"{head}\n{self.left.render(indent + 1)}\n{self.right.render(indent + 1)}"


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

    # JIT slots — see SelectOp.
    src_fn = None
    jit_ready = False
    jit_stats = None

    def columns(self) -> frozenset[str]:
        out = set(self.child.columns()) | {self.var}
        if self.index_var:
            out.add(self.index_var)
        return frozenset(out)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        suffix = f" [{self.index_var}]" if self.index_var else ""
        return f"{pad}Unnest {self.var}{suffix} <- {self.path}\n{self.child.render(indent + 1)}"


@dataclass(frozen=True)
class Reduce(PlanNode):
    """The final homomorphism: fold ``head`` into the output monoid."""

    monoid: MonoidRef
    head: Term
    child: PlanNode

    # JIT slots — see SelectOp.
    head_fn = None
    jit_ready = False
    jit_stats = None

    def columns(self) -> frozenset[str]:
        return self.child.columns()

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        return f"{pad}Reduce {self.monoid}{{ {self.head} }}\n{self.child.render(indent + 1)}"


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

    # JIT slots — see SelectOp. ``head_fns``/``pred_fns`` run parallel
    # to ``folds`` (a None pred stays None).
    key_fns = ()
    head_fns = ()
    pred_fns = ()
    jit_ready = False
    jit_stats = None

    def columns(self) -> frozenset[str]:
        return frozenset(
            [label for label, _ in self.keys] + [fold[0] for fold in self.folds]
        )

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        keys = ", ".join(f"{label}={term}" for label, term in self.keys)
        folds = ", ".join(
            f"{var} <- {monoid}{{ {head}{'' if pred is None else f' | {pred}'} }}"
            for var, monoid, head, pred in self.folds
        )
        head = f"{pad}Nest [{keys}] {folds}".rstrip()
        return f"{head}\n{self.child.render(indent + 1)}"


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

    def columns(self) -> frozenset[str]:
        return frozenset({self.var})

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        return f"{pad}IndexScan {self.var} <- {self.extent}[{self.attribute} = {self.key}]"
