"""Ordered sets — the paper's ``oset`` monoid carrier.

An :class:`OrderedSet` is a duplicate-free sequence. Its merge is the
paper's definition ``x (+) y = x ++ (y -- x)``: append the elements of
``y`` that do not already occur in ``x``, preserving first-occurrence
order. The paper's worked example: ``[2,5,3,1] (+) [3,2,6] = [2,5,3,1,6]``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import Any


class OrderedSet(Sequence[Any]):
    """An immutable sequence without duplicates, in first-occurrence order.

    >>> OrderedSet([2, 5, 3, 1]).union(OrderedSet([3, 2, 6]))
    OrderedSet([2, 5, 3, 1, 6])
    >>> list(OrderedSet([1, 2, 1, 3]))
    [1, 2, 3]
    """

    __slots__ = ("_items", "_index", "_hash")

    def __init__(self, items: Iterable[Any] = ()) -> None:
        seen: dict[Any, None] = {}
        for item in items:
            if item not in seen:
                seen[item] = None
        object.__setattr__(self, "_items", tuple(seen))
        object.__setattr__(self, "_index", frozenset(seen))
        object.__setattr__(self, "_hash", None)

    # -- sequence protocol -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index):
        result = self._items[index]
        if isinstance(index, slice):
            return OrderedSet(result)
        return result

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __contains__(self, item: Any) -> bool:
        return item in self._index

    # -- oset algebra --------------------------------------------------------------

    def union(self, other: "OrderedSet") -> "OrderedSet":
        """The oset merge: ``self ++ (other -- self)``."""
        extra = [item for item in other._items if item not in self._index]
        merged = OrderedSet.__new__(OrderedSet)
        items = self._items + tuple(extra)
        object.__setattr__(merged, "_items", items)
        object.__setattr__(merged, "_index", frozenset(items))
        object.__setattr__(merged, "_hash", None)
        return merged

    def __add__(self, other: "OrderedSet") -> "OrderedSet":
        if not isinstance(other, OrderedSet):
            return NotImplemented
        return self.union(other)

    # -- value semantics --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderedSet):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(("OrderedSet", self._items))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"OrderedSet([{', '.join(repr(i) for i in self._items)}])"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("OrderedSet is immutable")

    def __reduce__(self) -> tuple:
        return (OrderedSet, (self._items,))
