"""Canonical total ordering and conversion helpers for runtime values.

Python's builtin ordering is partial across types (``1 < "a"`` raises),
but the evaluator needs a *total* deterministic order so that iteration
over sets and bags is reproducible — the paper's section 4.2 heap
threading is only well-defined if qualifier evaluation visits elements in
a fixed order. :func:`canonical_key` maps every library value to a key
that sorts consistently: first by a type rank, then structurally.
:func:`canonical_order` is the one place a set or bag is put into that
order, and does it at most once per bag or :class:`StoredSet`.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import is_
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
    a process run. A scalar, and a scalar inside a record, a tuple or a
    stored set, is keyed here without a call of its own: a row's or a
    group key's key makes one call per nested record or collection.

    >>> sorted([True, 2, "a", None], key=canonical_key)
    [None, True, 2, 'a']
    >>> sorted([(2, 1), (1, 9)], key=canonical_key)
    [(1, 9), (2, 1)]
    """
    kind = type(value)
    rank = _scalar_rank(kind)
    if rank is not None:
        return (rank, value)
    if kind is Record:
        return (_RANK_RECORD, tuple(sorted([
            (k, (r, v) if (r := _scalar_rank(type(v))) is not None else canonical_key(v))
            for k, v in value.items()
        ])))
    if kind is tuple:
        return (_RANK_TUPLE, tuple([
            (r, v) if (r := _scalar_rank(type(v))) is not None else canonical_key(v)
            for v in value
        ]))
    if kind is StoredSet:  # its kept order, keyed as a tuple
        return (_RANK_SET, canonical_key(value.order or canonical_order(value))[1])
    key = _KEYS.get(kind)
    if key is not None:
        return key(value)
    for base in kind.__mro__[1:]:
        key = _KEYS.get(base)
        if key is not None:
            return key(value)
    return (RANK_OTHER, kind.__name__, repr(value))


def _set_key(value: frozenset) -> tuple:
    return (_RANK_SET, tuple(sorted([canonical_key(v) for v in value])))


def _bag_key(value: Bag) -> tuple:
    return (_RANK_BAG, tuple(sorted([(canonical_key(e), n) for e, n in value._counts.items()])))


def _oset_key(value: OrderedSet) -> tuple:
    return (_RANK_OSET, tuple([canonical_key(v) for v in value]))


def _vector_key(value: Vector) -> tuple:
    return (_RANK_VECTOR, len(value), tuple([canonical_key(v) for v in value]))


#: the exact scalar types -> their ranks, which :func:`canonical_key` reads first
_SCALAR_RANKS = {bool: _RANK_BOOL, int: _RANK_NUMBER, float: _RANK_NUMBER, str: _RANK_STRING}
_scalar_rank = _SCALAR_RANKS.get

#: a class -> the :func:`canonical_key` of its instances and of those of its
#: subclasses no entry names (an exact scalar, tuple or record is keyed inline)
_KEYS: dict[type, Callable[[Any], tuple]] = {
    type(None): lambda _none: (_RANK_NONE,),
    **{kind: (lambda value, rank=rank: (rank, value)) for kind, rank in _SCALAR_RANKS.items()},
    tuple: lambda value: canonical_key(tuple(value)),
    frozenset: _set_key,
    Bag: _bag_key,
    OrderedSet: _oset_key,
    Record: lambda value: canonical_key(Record(value)),
    Vector: _vector_key,
}


def register_key(kind: type, key: Callable[[Any], tuple]) -> None:
    """Give values of ``kind`` (and of its subclasses no entry names) the
    key ``key``: a rank-10 ``(RANK_OTHER, type name, repr)`` triple for a
    type of another package, so the order is the one it has without it."""
    _KEYS[kind] = key


class StoredSet(frozenset):
    """A set the database holds (:func:`stored`): a ``frozenset`` whose
    ``order`` slot keeps its elements in canonical order, each one stored,
    None until :func:`canonical_order` first fills it. It names itself
    ``frozenset``, so its repr and every error that names a value's type
    are those of the plain set it equals; a copy or a pickle starts with
    an empty ``order``."""

    __slots__ = ("order",)

    def __new__(cls, items: Any = ()) -> "StoredSet":
        self = frozenset.__new__(cls, items)
        self.order = None
        return self

    def __reduce__(self) -> tuple:
        return (StoredSet, (frozenset(self),))


StoredSet.__name__ = "frozenset"


def canonical_order(collection: Any) -> tuple:
    """The elements of a set or bag in canonical order, as a tuple.

    A bag's elements repeat by multiplicity, equal ones adjacent. The
    order of an immutable value cannot change, so a :class:`Bag` and a
    :class:`StoredSet` keep it once computed; a plain set is sorted on
    every call. Only element references are kept, never the keys. The
    order is the one read a query makes of a set's elements, so a stored
    set's are :func:`stored` here, once, rather than when it was made.

    >>> canonical_order(Bag([2, 1, 2]))
    (1, 2, 2)
    >>> canonical_order(frozenset({"a", None, 3}))
    (None, 3, 'a')
    """
    kind = type(collection)
    if kind is StoredSet:
        order = collection.order
        if order is None:
            order = collection.order = tuple(sorted(map(stored, collection), key=canonical_key))
        return order
    if kind is Bag:
        order = collection._order
        if order is None:
            counts = collection._counts
            order = tuple(e for e in sorted(counts, key=canonical_key) for _ in range(counts[e]))
            object.__setattr__(collection, "_order", order)
        return order
    return tuple(sorted(collection, key=canonical_key))  # a plain or mutable set


def stored(value: Any) -> Any:
    """``value`` as the database holds it — value extents, object states,
    ``$``-parameters: each ``frozenset`` in it a :class:`StoredSet`, whose
    own elements are stored when it is first ordered. A record, tuple or
    bag is rebuilt only when it holds a plain set; one that holds none is
    ``value`` itself.

    >>> row = Record(a=1, b=(2, Record(c=3)))
    >>> stored(row) is row, type(stored(row.replace(a=frozenset()))["a"]).__name__
    (True, 'frozenset')
    """
    kind = type(value)
    if kind is frozenset:
        return StoredSet(value)
    if kind is Record:  # rebuilt from a copy of its fields once one changes
        fields = None
        for name, v in value.items():
            if type(v) not in _SETTLED and (kept := stored(v)) is not v:
                if fields is None:
                    fields = dict(value)
                fields[name] = kept
        return value if fields is None else Record(fields)
    if kind is not tuple and kind is not Bag:
        return value  # a scalar, a stored set, or a value that holds no set
    parts = value._counts if kind is Bag else value
    # No call per part when each is settled, or each is a record of
    # settled values (the rows of a nested tuple).
    if _SETTLED.issuperset(map(type, parts)) or _RECORD.issuperset(map(type, parts)) and all(
        map(_SETTLED.issuperset, map(map, repeat(type), map(dict.values, parts)))
    ):
        return value
    converted = [stored(v) for v in parts]
    if all(map(is_, converted, parts)):
        return value
    if kind is tuple:
        return tuple(converted)
    return Bag._adopt(Counter(dict(zip(converted, parts.values()))))


#: what :func:`stored` passes over: the scalars, and a stored set
_SETTLED = frozenset({type(None), bool, int, float, str, StoredSet})
_RECORD = frozenset({Record})


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
