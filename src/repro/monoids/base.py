"""Monoid abstractions: the algebraic heart of the calculus.

A monoid is a triple ``(merge, zero, unit)`` where ``merge`` is an
associative binary operation with identity ``zero`` and ``unit`` maps an
element into the monoid's carrier. The paper (section 2) splits monoids
into *primitive* monoids (``sum``, ``max``, ``some``, ...), whose unit is
the identity function, and *collection* monoids (``list``, ``set``,
``bag``, ...), whose unit builds a singleton collection.

Two structural properties drive the whole calculus:

- **commutativity** (``merge(x, y) == merge(y, x)``)
- **idempotence** (``merge(x, x) == x``)

The paper's static correctness condition — which we expose as
:func:`check_hom_well_formed` — is that a homomorphism from monoid ``N``
to monoid ``M`` is well formed only when ``props(N) ⊆ props(M)``.
Sets may be converted to sets, to ``some``/``all``/``max`` results, or to
sorted lists, but not to bags, plain lists or sums; lists may be
converted to anything.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator
from functools import cached_property
from typing import Any

from repro.errors import EvaluationError, MonoidError, WellFormednessError

#: Property tokens. A monoid's property set is a subset of these.
COMMUTATIVE = "commutative"
IDEMPOTENT = "idempotent"


class Monoid(ABC):
    """Common interface of primitive and collection monoids."""

    #: Stable name used by the registry, the parser and pretty printers.
    name: str
    #: Whether ``merge`` commutes.
    commutative: bool
    #: Whether ``merge(x, x) == x``.
    idempotent: bool

    @abstractmethod
    def zero(self) -> Any:
        """The identity element of ``merge``."""

    @abstractmethod
    def unit(self, value: Any) -> Any:
        """Inject a single element into the monoid's carrier."""

    @abstractmethod
    def merge(self, left: Any, right: Any) -> Any:
        """The monoid's associative binary operation."""

    @cached_property
    def properties(self) -> frozenset[str]:
        """The subset of {commutative, idempotent} this monoid satisfies,
        computed once: every static check compares these sets."""
        props = set()
        if self.commutative:
            props.add(COMMUTATIVE)
        if self.idempotent:
            props.add(IDEMPOTENT)
        return frozenset(props)

    @property
    def is_collection(self) -> bool:
        """True for collection monoids (list, set, bag, ...)."""
        return isinstance(self, CollectionMonoid)

    def merge_all(self, parts: Iterable[Any]) -> Any:
        """Fold ``merge`` over ``parts``, starting from ``zero``.

        **Ordering contract**: this is a left fold in the iteration
        order of ``parts``. For non-commutative monoids (``list``,
        ``oset``, ``string``, ``sortedbag`` over ties) the order of
        ``parts`` is semantically significant — callers that compute
        parts out of order (e.g. parallel partial folds) must restore
        the original order before calling this, or use
        :meth:`combine_partials` which states the same contract
        explicitly.
        """
        result = self.zero()
        for part in parts:
            result = self.merge(result, part)
        return result

    def combine_partials(self, parts: Iterable[Any]) -> Any:
        """Combine per-partition partial folds into one value: §2's
        homomorphism property, ``hom(x ++ y) = merge(hom(x), hom(y))``.

        ``parts`` MUST be in partition-index order — the order
        the partitions appear in the serial scan. Because ``merge`` is
        associative, this then equals the serial fold for every monoid;
        only *commutative* monoids additionally allow callers to relax
        the order of ``parts``. Subclasses may override with a more
        efficient combining strategy (e.g. a k-way merge for sorted
        carriers) but must preserve these semantics.
        """
        return self.merge_all(parts)

    def __repr__(self) -> str:
        return f"<monoid {self.name}>"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Monoid):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())

    def signature(self) -> tuple:
        """A structural identity key; parameterized monoids extend this."""
        return (type(self).__name__, self.name)


class PrimitiveMonoid(Monoid):
    """A monoid over scalar values whose unit is the identity function.

    Examples: ``sum = (+, 0, identity)``, ``some = (or, false, identity)``.
    """

    def __init__(
        self,
        name: str,
        zero_value: Any,
        merge_fn,
        commutative: bool = True,
        idempotent: bool = False,
        doc: str = "",
    ) -> None:
        self.name = name
        self._zero = zero_value
        self._merge = merge_fn
        self.commutative = commutative
        self.idempotent = idempotent
        self.doc = doc

    def zero(self) -> Any:
        return self._zero

    def unit(self, value: Any) -> Any:
        return value

    def merge(self, left: Any, right: Any) -> Any:
        try:
            return self._merge(left, right)
        except TypeError as error:
            raise fold_error(self, left, right, error) from None


class CollectionMonoid(Monoid):
    """A monoid whose carrier is a collection built from singletons.

    Besides the monoid triple, collection monoids expose:

    - :meth:`iterate` — enumerate a carrier value's elements in a
      deterministic order (the basis of comprehension generators);
    - :meth:`accumulator` — an O(n) bulk builder, so evaluating
      ``M{ e | ... }`` does not pay quadratic merge costs;
    - :meth:`from_iterable` — bulk construction from any iterable.
    """

    @abstractmethod
    def iterate(self, collection: Any) -> Iterator[Any]:
        """Yield the elements of ``collection`` deterministically."""

    @abstractmethod
    def accumulator(self) -> "Accumulator":
        """A fresh mutable builder for this monoid's carrier."""

    def from_iterable(self, items: Iterable[Any]) -> Any:
        """Build a carrier value containing ``items``."""
        acc = self.accumulator()
        for item in items:
            acc.add(item)
        return acc.finish()

    def contains(self, collection: Any, value: Any) -> bool:
        """Membership test; subclasses override when they can do better."""
        return any(element == value for element in self.iterate(collection))

    def length(self, collection: Any) -> int:
        """Number of elements (with multiplicity where applicable)."""
        return sum(1 for _ in self.iterate(collection))


class Accumulator(ABC):
    """Mutable builder used by :meth:`CollectionMonoid.accumulator`."""

    @abstractmethod
    def add(self, value: Any) -> None:
        """Append one element (the effect of merging in ``unit(value)``)."""

    @abstractmethod
    def finish(self) -> Any:
        """Freeze and return the carrier value. The builder is then dead."""


def fold_error(monoid: Monoid, left: Any, right: Any, error: TypeError) -> Exception:
    """What a fold into ``monoid`` raises for a step's ``TypeError``: a
    collection's own; for a primitive merge, one typed error on every engine."""
    if monoid.is_collection:
        return error
    kinds = f"{type(left).__name__} and {type(right).__name__}"
    return EvaluationError(f"{monoid.name} cannot merge {kinds}")


def check_hom_well_formed(source: Monoid, target: Monoid) -> None:
    """Enforce the paper's C/I restriction on ``hom[source -> target]``.

    Raises :class:`WellFormednessError` unless every structural property
    of ``source`` also holds for ``target``. This is the compile-time
    check that makes the calculus consistent: e.g. ``hom[set -> sum]``
    (set cardinality via sum of ones) is rejected because ``sum`` is not
    idempotent, while ``hom[bag -> sum]`` is accepted.

    >>> from repro.monoids import SET, BAG, SUM
    >>> check_hom_well_formed(BAG, SUM)
    >>> check_hom_well_formed(SET, SUM)
    Traceback (most recent call last):
        ...
    repro.errors.WellFormednessError: ...
    """
    missing = source.properties - target.properties
    if missing:
        raise WellFormednessError(
            f"hom[{source.name} -> {target.name}] is not well formed: "
            f"{source.name} is {_props_text(source.properties)} but "
            f"{target.name} lacks {{{', '.join(sorted(missing))}}}"
        )


def is_hom_well_formed(source: Monoid, target: Monoid) -> bool:
    """Boolean form of :func:`check_hom_well_formed`."""
    return source.properties <= target.properties


def require_collection(monoid: Monoid, context: str = "") -> CollectionMonoid:
    """Downcast to :class:`CollectionMonoid`, raising a clear error."""
    if not isinstance(monoid, CollectionMonoid):
        where = f" in {context}" if context else ""
        raise MonoidError(f"{monoid.name} is not a collection monoid{where}")
    return monoid


def _props_text(props: frozenset[str]) -> str:
    if not props:
        return "neither commutative nor idempotent"
    return " and ".join(sorted(props))
