"""Program values reduced to plain, order-free Python data.

The oracle compares and digests values in this form so that it does not
lean on the program's own ``__eq__``/``__hash__``/canonical order: a
bag is a sorted list, a set a sorted list without repeats, a record a
sorted tuple of fields. ``p_bag``/``p_set``/``p_rec`` build the same
form from the raw generated rows for the plain-Python folds.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable

from repro.values import Bag, OrderedSet, Record, Vector


def p_rec(**fields: Any) -> tuple:
    return ("rec", tuple(sorted(fields.items())))


def p_bag(items: Iterable[Any]) -> tuple:
    return ("bag", tuple(sorted(items, key=repr)))


def p_set(items: Iterable[Any]) -> tuple:
    return ("set", tuple(sorted(set(items), key=repr)))


def plain(value: Any) -> Any:
    """The order-free plain form of a query result."""
    if isinstance(value, Record):
        return p_rec(**{k: plain(v) for k, v in value.items()})
    if isinstance(value, Bag):
        return p_bag(plain(v) for v in value)
    if isinstance(value, frozenset):
        return p_set(plain(v) for v in value)
    if isinstance(value, (tuple, OrderedSet, Vector)):
        return ("list", tuple(plain(v) for v in value))
    if isinstance(value, float):
        return round(value, 9)
    return value


def digest(plain_value: Any) -> str:
    """A short stable fingerprint of a value already in plain form."""
    return hashlib.sha256(repr(plain_value).encode()).hexdigest()[:16]
