"""Abstract syntax of the monoid comprehension calculus.

The term language (section 2 of the paper, plus the section 4
extensions) is:

- constants, variables, lambda abstraction and application;
- records ``<a1=e1, ...>``, field projection ``e.a`` and indexing ``e[i]``;
- arithmetic/comparison/boolean operators and ``if-then-else``;
- the three monoid primitives ``zero(M)``, ``unit(M)(e)`` and
  ``e1 merge(M) e2``;
- monoid comprehensions ``M{ e | q1, ..., qn }`` whose qualifiers are
  generators ``v <- e`` (with an indexed form ``v[i] <- e`` for
  vectors), predicates, and bindings ``v == e``;
- explicit homomorphisms ``hom[N -> M](\\v. e)(u)``;
- object operations ``new(e)``, ``!e``, ``e := s`` and path updates
  ``path op= e`` (section 4.2);
- ``let`` and builtin function / method calls for OQL coverage.

All nodes are immutable (frozen dataclasses) and hashable, so terms can
be used as dictionary keys (memoized normalization) and compared
structurally. Alpha-equivalence and substitution live in
:mod:`repro.calculus.traversal`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Union

# ---------------------------------------------------------------------------
# Monoid references
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonoidRef:
    """A syntactic reference to a monoid.

    Plain monoids are referenced by name (``set``, ``bag``, ``sum``...).
    ``sorted``/``sortedbag`` carry the ordering function as a lambda
    term; vector monoids (``M[n]``) carry an element monoid reference
    and a size term (the size may be a runtime expression).
    """

    name: str
    key: Optional["Term"] = None
    element: Optional["MonoidRef"] = None
    size: Optional["Term"] = None

    def __str__(self) -> str:
        if self.name in ("sorted", "sortedbag") and self.key is not None:
            return f"{self.name}[{self.key}]"
        if self.name == "vec" and self.element is not None:
            return f"{self.element}[{self.size}]"
        return self.name

    @property
    def is_vector(self) -> bool:
        return self.name == "vec"


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term:
    """Base class of all calculus terms (abstract; nodes are dataclasses).

    Terms translated from OQL carry the source :class:`~repro.span.Span`
    of the OQL syntax they came from, attached out-of-band in the
    instance ``__dict__`` (``repro.span.span_of`` reads it back). The
    span never participates in ``__eq__``/``__hash__``, so structural
    comparison and memoized normalization are unaffected; rewritten
    terms simply lose their spans, which is why :mod:`repro.lint` runs
    its passes on the pre-normalization term.
    """

    __slots__ = ()

    # Unannotated on purpose: an annotation would become an inherited
    # dataclass field and break every positional constructor.
    span = None

    def __str__(self) -> str:  # pragma: no cover - overridden via pretty
        from repro.calculus.pretty import pretty

        return pretty(self)


@dataclass(frozen=True)
class Const(Term):
    """A literal value (number, string, bool, None, or a library value)."""

    value: Any

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return repr(self.value)
        if self.value is True:
            return "true"
        if self.value is False:
            return "false"
        if isinstance(self.value, frozenset) and self.value:
            # a set's own order is its hashes', which vary per process
            from repro.values.compare import canonical_order

            return f"frozenset({{{', '.join(map(repr, canonical_order(self.value)))}}})"
        return str(self.value)


@dataclass(frozen=True)
class Var(Term):
    """A variable occurrence."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Lambda(Term):
    """Single-parameter abstraction ``\\param. body``."""

    param: str
    body: Term

    def __str__(self) -> str:
        return f"\\{self.param}. {self.body}"


@dataclass(frozen=True)
class Apply(Term):
    """Application ``fn(arg)``."""

    fn: Term
    arg: Term

    def __str__(self) -> str:
        return f"({self.fn})({self.arg})"


@dataclass(frozen=True)
class Let(Term):
    """``let var = value in body`` — convenience binding."""

    var: str
    value: Term
    body: Term

    def __str__(self) -> str:
        return f"let {self.var} = {self.value} in {self.body}"


@dataclass(frozen=True)
class RecordCons(Term):
    """Record construction ``<a1=e1, ..., an=en>``."""

    fields: tuple[tuple[str, Term], ...]

    def __str__(self) -> str:
        inner = ", ".join(f"{name}={value}" for name, value in self.fields)
        return f"<{inner}>"

    def field_map(self) -> dict[str, Term]:
        return dict(self.fields)


@dataclass(frozen=True)
class TupleCons(Term):
    """Tuple construction ``(e1, ..., en)``."""

    items: tuple[Term, ...]

    def __str__(self) -> str:
        return f"({', '.join(str(i) for i in self.items)})"


@dataclass(frozen=True)
class Proj(Term):
    """Field projection ``base.name`` (also used for path expressions)."""

    base: Term
    name: str

    def __str__(self) -> str:
        return f"{self.base}.{self.name}"


@dataclass(frozen=True)
class Index(Term):
    """Indexing ``base[index]`` into a vector, list or tuple."""

    base: Term
    index: Term

    def __str__(self) -> str:
        return f"{self.base}[{self.index}]"


@dataclass(frozen=True)
class BinOp(Term):
    """Binary operator. ``op`` is one of
    ``+ - * / div mod = != < <= > >= and or in union intersect except``.
    """

    op: str
    left: Term
    right: Term

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnOp(Term):
    """Unary operator: ``not`` or numeric negation ``-``."""

    op: str
    operand: Term

    def __str__(self) -> str:
        # Parenthesized prefix form: unambiguous under postfix operators
        # (``(not x).f`` vs ``not (x.f)``) and parseable back.
        if self.op == "not":
            return f"(not {self.operand})"
        return f"(-{self.operand})"


@dataclass(frozen=True)
class If(Term):
    """Conditional ``if cond then then_branch else else_branch``."""

    cond: Term
    then_branch: Term
    else_branch: Term

    def __str__(self) -> str:
        return f"(if {self.cond} then {self.then_branch} else {self.else_branch})"


@dataclass(frozen=True)
class Empty(Term):
    """``zero(M)`` — the monoid's identity as a term."""

    monoid: MonoidRef

    def __str__(self) -> str:
        return f"zero({self.monoid})"


@dataclass(frozen=True)
class Singleton(Term):
    """``unit(M)(element)``; for vector monoids also carries the index."""

    monoid: MonoidRef
    element: Term
    index: Optional[Term] = None

    def __str__(self) -> str:
        if self.index is not None:
            return f"unit({self.monoid})({self.element} @ {self.index})"
        return f"unit({self.monoid})({self.element})"


@dataclass(frozen=True)
class Merge(Term):
    """``left merge(M) right``."""

    monoid: MonoidRef
    left: Term
    right: Term

    def __str__(self) -> str:
        return f"({self.left} (+){self.monoid} {self.right})"


@dataclass(frozen=True)
class Generator:
    """Qualifier ``var <- source``, or ``var[index_var] <- source``.

    The indexed form is the paper's vector generator ``a[i] <- x``: it
    binds both the element and its index.
    """

    var: str
    source: Term
    index_var: Optional[str] = None

    def __str__(self) -> str:
        if self.index_var is not None:
            return f"{self.var}[{self.index_var}] <- {self.source}"
        return f"{self.var} <- {self.source}"


@dataclass(frozen=True)
class Filter:
    """Qualifier: a boolean predicate (or an effectful true-returning op)."""

    pred: Term

    def __str__(self) -> str:
        return str(self.pred)


@dataclass(frozen=True)
class Bind:
    """Qualifier ``var == value`` — the paper's binding convention."""

    var: str
    value: Term

    def __str__(self) -> str:
        return f"{self.var} == {self.value}"


Qualifier = Union[Generator, Filter, Bind]


@dataclass(frozen=True)
class Comprehension(Term):
    """``M{ head | q1, ..., qn }`` — the calculus' workhorse."""

    monoid: MonoidRef
    head: Term
    qualifiers: tuple[Qualifier, ...] = ()

    def __str__(self) -> str:
        if not self.qualifiers:
            return f"{self.monoid}{{ {self.head} }}"
        quals = ", ".join(str(q) for q in self.qualifiers)
        return f"{self.monoid}{{ {self.head} | {quals} }}"


@dataclass(frozen=True)
class Hom(Term):
    """Explicit homomorphism ``hom[source -> target](\\var. body)(arg)``."""

    source: MonoidRef
    target: MonoidRef
    var: str
    body: Term
    arg: Term

    def __str__(self) -> str:
        return (
            f"hom[{self.source} -> {self.target}]"
            f"(\\{self.var}. {self.body})({self.arg})"
        )


@dataclass(frozen=True)
class Call(Term):
    """Builtin function call ``name(args...)`` (length, element, abs...)."""

    name: str
    args: tuple[Term, ...] = ()

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class MethodCall(Term):
    """Method invocation ``base.name(args...)`` on a class instance."""

    base: Term
    name: str
    args: tuple[Term, ...] = ()

    def __str__(self) -> str:
        return f"{self.base}.{self.name}({', '.join(str(a) for a in self.args)})"


# ---------------------------------------------------------------------------
# Object operations (section 4.2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class New(Term):
    """``new(state)`` — allocate a fresh object, returning its OID."""

    state: Term

    def __str__(self) -> str:
        return f"new({self.state})"


@dataclass(frozen=True)
class Deref(Term):
    """``!e`` — the current state of the object ``e``."""

    target: Term

    def __str__(self) -> str:
        return f"!{self.target}"


@dataclass(frozen=True)
class Assign(Term):
    """``target := value`` — replace the object's state; returns true."""

    target: Term
    value: Term

    def __str__(self) -> str:
        return f"({self.target} := {self.value})"


@dataclass(frozen=True)
class Update(Term):
    """Path update ``base.field op= value`` on an object's record state.

    ``op`` is ``:=`` (replace) or ``+=`` (merge into a numeric or
    collection field). Evaluates to true so it can stand as a qualifier,
    matching the paper's update-program comprehensions.
    """

    base: Term
    field_name: str
    op: str
    value: Term

    def __str__(self) -> str:
        symbol = "+=" if self.op == "+=" else ":="
        return f"({self.base}.{self.field_name} {symbol} {self.value})"


#: Nodes whose evaluation may read or write the object heap. Normalization
#: rules that duplicate or discard terms must treat these conservatively.
EFFECTFUL_NODES = (New, Assign, Update)


def record(**fields: Term) -> RecordCons:
    """Convenience record constructor used by tests and examples."""
    return RecordCons(tuple(fields.items()))
