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
from typing import Any, Callable

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
#: the rank of a value of a type this module does not know (an OID)
RANK_OTHER = 10


def canonical_key(value: Any) -> tuple:
    """A key giving a total, deterministic order over all library values.

    The key is the one :data:`_KEYS` holds for the first class of the
    value's MRO that it names — ``bool`` before ``int``, a ``Record``
    before ``dict``, a ``str`` subclass or a namedtuple by its base. A
    value of a type none names (an OID, unless :mod:`repro.objects`
    registered it) orders by type name then repr, which is stable within
    a process run.

    >>> sorted([True, 2, "a", None], key=canonical_key)
    [None, True, 2, 'a']
    >>> sorted([(2, 1), (1, 9)], key=canonical_key)
    [(1, 9), (2, 1)]
    """
    kind = type(value)
    key = _KEYS.get(kind)
    if key is not None:
        return key(value)
    for base in kind.__mro__[1:]:
        key = _KEYS.get(base)
        if key is not None:
            return key(value)
    return (RANK_OTHER, kind.__name__, repr(value))


def _tuple_key(value: tuple) -> tuple:
    return (_RANK_TUPLE, tuple([canonical_key(v) for v in value]))


def _set_key(value: frozenset) -> tuple:
    return (_RANK_SET, tuple(sorted([canonical_key(v) for v in value])))


def _bag_key(value: Bag) -> tuple:
    return (_RANK_BAG, tuple(sorted([(canonical_key(e), n) for e, n in value._counts.items()])))


def _oset_key(value: OrderedSet) -> tuple:
    return (_RANK_OSET, tuple([canonical_key(v) for v in value]))


def _record_key(value: Record) -> tuple:
    return (_RANK_RECORD, tuple(sorted([(k, canonical_key(v)) for k, v in value.items()])))


def _vector_key(value: Vector) -> tuple:
    return (_RANK_VECTOR, len(value), tuple([canonical_key(v) for v in value]))


#: a class -> the :func:`canonical_key` of its instances and of those
#: of its subclasses no entry names
_KEYS: dict[type, Callable[[Any], tuple]] = {
    type(None): lambda _none: (_RANK_NONE,),
    bool: lambda value: (_RANK_BOOL, value),
    int: lambda value: (_RANK_NUMBER, value),
    float: lambda value: (_RANK_NUMBER, value),
    str: lambda value: (_RANK_STRING, value),
    tuple: _tuple_key,
    frozenset: _set_key,
    Bag: _bag_key,
    OrderedSet: _oset_key,
    Record: _record_key,
    Vector: _vector_key,
}


def register_key(kind: type, key: Callable[[Any], tuple]) -> None:
    """Give values of ``kind`` (and of its subclasses no entry names) the
    key ``key``: a rank-10 ``(RANK_OTHER, type name, repr)`` triple for a
    type of another package, so the order is the one it has without it."""
    _KEYS[kind] = key


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
