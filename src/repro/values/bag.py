"""Immutable bag (multiset) values — the paper's ``{{ ... }}`` collections.

A :class:`Bag` records each distinct element together with its
multiplicity. Bags are the natural semantics for OQL ``select`` without
``distinct``. They are hashable (so bags can be nested inside sets or
other bags) and iterate in a canonical deterministic order, which the
evaluator relies on for reproducible results and well-defined heap
threading (paper section 4.2). That order is computed at most once per
bag (:func:`repro.values.compare.canonical_order`). Building one from its
elements is ``Counter``'s C counting loop — one hash per element — and the
bag algebra hands the ``Counter`` it computed straight to the result.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from typing import Any


class Bag:
    """An immutable multiset.

    >>> b = Bag([1, 2, 2, 3])
    >>> b.count(2)
    2
    >>> len(b)
    4
    >>> b == Bag([2, 1, 3, 2])
    True
    >>> 2 in b
    True
    """

    __slots__ = ("_counts", "_hash", "_order")

    def __init__(self, items: Iterable[Any] = ()) -> None:
        counts = Counter(items._counts if isinstance(items, Bag) else items)
        object.__setattr__(self, "_counts", counts)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_order", None)

    @classmethod
    def _adopt(cls, counts: Counter) -> "Bag":
        """A bag around ``counts`` itself — no copy, no check: the caller
        built it, keeps no reference, and every multiplicity is positive."""
        bag = cls()
        object.__setattr__(bag, "_counts", counts)
        return bag

    @classmethod
    def from_counts(cls, counts: dict[Any, int]) -> "Bag":
        """Build a bag from an element -> multiplicity mapping, checked."""
        clean = Counter()
        for element, n in counts.items():
            if n < 0:
                raise ValueError(f"negative multiplicity {n} for {element!r}")
            if n:
                clean[element] = n
        return cls._adopt(clean)

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __contains__(self, item: Any) -> bool:
        return item in self._counts

    def __iter__(self) -> Iterator[Any]:
        """Iterate elements with multiplicity, in canonical order."""
        from repro.values.compare import canonical_order

        return iter(canonical_order(self))

    def count(self, item: Any) -> int:
        """Multiplicity of ``item`` (0 if absent)."""
        return self._counts.get(item, 0)

    def distinct(self) -> frozenset:
        """The set of distinct elements."""
        return frozenset(self._counts)

    def counts(self) -> dict[Any, int]:
        """A fresh element -> multiplicity dict."""
        return dict(self._counts)

    # -- bag algebra -------------------------------------------------------------

    def union(self, other: "Bag") -> "Bag":
        """Additive union — the bag monoid's merge.

        >>> sorted(Bag([1, 2]).union(Bag([2, 3])))
        [1, 2, 2, 3]
        """
        merged = Counter(self._counts)
        merged.update(other._counts)
        return Bag._adopt(merged)

    def __add__(self, other: "Bag") -> "Bag":
        if not isinstance(other, Bag):
            return NotImplemented
        return self.union(other)

    def difference(self, other: "Bag") -> "Bag":
        """Multiplicity-wise difference (monus)."""
        return Bag._adopt(self._counts - other._counts)

    def intersection(self, other: "Bag") -> "Bag":
        """Multiplicity-wise minimum."""
        return Bag._adopt(self._counts & other._counts)

    # -- value semantics -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bag):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self._counts.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        inner = ", ".join(repr(e) for e in self)
        return f"{{{{{inner}}}}}"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Bag is immutable")

    def __reduce__(self) -> tuple:
        # Copy and pickle rebuild from the counts; memos are never carried.
        return (Bag.from_counts, (self._counts,))
