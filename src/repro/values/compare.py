"""Canonical total ordering and conversion helpers for runtime values.

Python's builtin ordering is partial across types (``1 < "a"`` raises),
but the evaluator needs a *total* deterministic order so that iteration
over sets and bags is reproducible — the paper's section 4.2 heap
threading is only well-defined if qualifier evaluation visits elements in
a fixed order. :func:`canonical_key` maps every library value to a key
that sorts consistently: first by a type rank, then structurally.
:func:`canonical_order` is the one place a set or bag is put into that
order, and does it at most once per immutable value.
"""

from __future__ import annotations

import weakref
from typing import Any

from repro.values.bag import Bag
from repro.values.oset import OrderedSet
from repro.values.record import Record
from repro.values.vector import Vector

# Type ranks: lower ranks sort first. Booleans rank before numbers because
# bool is a subtype of int in Python and must not be conflated with it.
_RANK_NONE = 0
_RANK_BOOL = 1
_RANK_NUMBER = 2
_RANK_STRING = 3
_RANK_TUPLE = 4
_RANK_SET = 5
_RANK_BAG = 6
_RANK_OSET = 7
_RANK_RECORD = 8
_RANK_VECTOR = 9
_RANK_OTHER = 10


def canonical_key(value: Any) -> tuple:
    """A key giving a total, deterministic order over all library values.

    >>> sorted([True, 2, "a", None], key=canonical_key)
    [None, True, 2, 'a']
    >>> sorted([(2, 1), (1, 9)], key=canonical_key)
    [(1, 9), (2, 1)]
    """
    if value is None:
        return (_RANK_NONE,)
    if isinstance(value, bool):
        return (_RANK_BOOL, value)
    if isinstance(value, (int, float)):
        return (_RANK_NUMBER, value)
    if isinstance(value, str):
        return (_RANK_STRING, value)
    if isinstance(value, tuple):
        return (_RANK_TUPLE, tuple(canonical_key(v) for v in value))
    if isinstance(value, frozenset):
        inner = sorted((canonical_key(v) for v in value))
        return (_RANK_SET, tuple(inner))
    if isinstance(value, Bag):
        inner = sorted((canonical_key(e), n) for e, n in value._counts.items())
        return (_RANK_BAG, tuple(inner))
    if isinstance(value, OrderedSet):
        return (_RANK_OSET, tuple(canonical_key(v) for v in value))
    if isinstance(value, Record):
        inner = tuple(sorted((k, canonical_key(v)) for k, v in value.items()))
        return (_RANK_RECORD, inner)
    if isinstance(value, Vector):
        return (_RANK_VECTOR, len(value), tuple(canonical_key(v) for v in value))
    # Objects (OIDs) and any other hashables: order by type name then repr,
    # which is stable within a process run.
    return (_RANK_OTHER, type(value).__name__, repr(value))


class _SetOrder(weakref.ref):
    """Weak reference to a frozenset, carrying its elements in canonical order."""

    __slots__ = ("key", "order")


# id(frozenset) -> its _SetOrder. A frozenset has no slot to memoise in, so
# its order lives here. The table is keyed by identity, not equality: equal
# sets need not hold the same elements (``{True, 2} == {1, 2}``). An entry is
# dropped when its set dies, and a hit is served only while the reference
# still points at the very set asked about, since ids are recycled.
_SET_ORDERS: dict[int, _SetOrder] = {}


def _forget(entry: _SetOrder) -> None:
    if _SET_ORDERS.get(entry.key) is entry:
        del _SET_ORDERS[entry.key]


def canonical_order(collection: Any) -> tuple:
    """The elements of a set or bag in canonical order, as a tuple.

    A bag's elements repeat by multiplicity, equal ones adjacent. The
    order of an immutable value cannot change, so it is computed once and
    kept for the value's lifetime: on the :class:`Bag` itself, and for a
    ``frozenset`` in a table whose entry dies with the set. Only element
    references are kept, never the keys.

    >>> canonical_order(Bag([2, 1, 2]))
    (1, 2, 2)
    >>> canonical_order(frozenset({"a", None, 3}))
    (None, 3, 'a')
    """
    if isinstance(collection, Bag):
        order = collection._order
        if order is None:
            counts = collection._counts
            order = tuple(e for e in sorted(counts, key=canonical_key) for _ in range(counts[e]))
            object.__setattr__(collection, "_order", order)
        return order
    if not isinstance(collection, frozenset):
        return tuple(sorted(collection, key=canonical_key))  # a mutable set
    entry = _SET_ORDERS.get(id(collection))
    if entry is None or entry() is not collection:
        entry = _SetOrder(collection, _forget)
        entry.key = id(collection)
        entry.order = tuple(sorted(collection, key=canonical_key))
        _SET_ORDERS[entry.key] = entry
    return entry.order


def canonical_sorted(values: Any) -> list:
    """Sort any iterable of library values into canonical order."""
    if isinstance(values, (Bag, frozenset)):
        return list(canonical_order(values))
    return sorted(values, key=canonical_key)


def to_python(value: Any) -> Any:
    """Convert a library value into plain Python data for display.

    Tuples used as list-monoid carriers become lists, frozensets become
    sets, bags become sorted lists of (element, count) free form lists,
    records become dicts, vectors become lists. Scalars pass through.

    >>> to_python((1, 2, 3))
    [1, 2, 3]
    >>> to_python(Record(a=1))
    {'a': 1}
    """
    if isinstance(value, tuple):
        return [to_python(v) for v in value]
    if isinstance(value, frozenset):
        return {_freeze_for_set(to_python(v)) for v in value}
    if isinstance(value, Bag):
        return [to_python(v) for v in value]
    if isinstance(value, OrderedSet):
        return [to_python(v) for v in value]
    if isinstance(value, Record):
        return {k: to_python(v) for k, v in value.items()}
    if isinstance(value, Vector):
        return [to_python(v) for v in value]
    return value


def _freeze_for_set(value: Any) -> Any:
    """Make a to_python result hashable again so it can live in a set."""
    if isinstance(value, list):
        return tuple(_freeze_for_set(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze_for_set(v)) for k, v in value.items()))
    if isinstance(value, set):
        return frozenset(value)
    return value
