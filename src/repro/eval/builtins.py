"""Builtin functions available to calculus terms and OQL queries.

These cover the OQL operations that are functions rather than syntax:
``count``/``length``, ``element`` (the unique member of a singleton
collection), ``flatten``, conversions between collection types, and a
few numeric helpers used by the scientific examples.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable

from repro.errors import EvaluationError
from repro.monoids import BAG, LIST, OSET, SET, STRING, SUM, VectorMonoid, convert
from repro.monoids.base import CollectionMonoid
from repro.values import Bag, OrderedSet, Vector


def runtime_monoid_of(value: Any) -> CollectionMonoid:
    """Infer the collection monoid a runtime value belongs to.

    Generators iterate whatever collection their source expression
    produced; the carrier type determines the monoid.
    """
    if isinstance(value, (tuple, list)):
        return LIST
    if isinstance(value, (frozenset, set)):
        return SET
    if isinstance(value, Bag):
        return BAG
    if isinstance(value, OrderedSet):
        return OSET
    if isinstance(value, str):
        return STRING
    if isinstance(value, Vector):
        # Element monoid is unknown at runtime; SUM's zero matches the
        # default fill for numeric vectors, and iteration does not need it.
        return VectorMonoid(SUM, len(value))
    raise EvaluationError(
        f"value of type {type(value).__name__} is not a collection: {value!r}"
    )


def _as_iterable(value: Any) -> list:
    monoid = runtime_monoid_of(value)
    return list(monoid.iterate(value))


def builtin_count(value: Any) -> int:
    """OQL ``count(e)`` — number of elements, with multiplicity."""
    monoid = runtime_monoid_of(value)
    return monoid.length(value)


def builtin_element(value: Any) -> Any:
    """OQL ``element(e)`` — the sole member of a singleton collection."""
    items = _as_iterable(value)
    if isinstance(value, Vector):
        items = [v for _, v in items]
    if len(items) != 1:
        raise EvaluationError(
            f"element() requires a singleton collection, got {len(items)} elements"
        )
    return items[0]


def builtin_flatten(value: Any) -> Any:
    """OQL ``flatten(e)`` — one-level flattening of nested collections.

    The result carrier follows the outer collection's monoid: flattening
    a set of sets yields a set; a bag of lists yields a bag, etc.
    """
    outer = runtime_monoid_of(value)
    acc = outer.accumulator()
    for inner in outer.iterate(value):
        inner_monoid = runtime_monoid_of(inner)
        for element in inner_monoid.iterate(inner):
            acc.add(element)
    return acc.finish()


def builtin_to_set(value: Any) -> frozenset:
    """``distinct``/``listtoset`` — convert any collection to a set."""
    return convert(runtime_monoid_of(value), SET, value, check=False)


def builtin_to_bag(value: Any) -> Bag:
    """Convert to a bag (keeps multiplicity where the source has it)."""
    return convert(runtime_monoid_of(value), BAG, value, check=False)


def builtin_to_list(value: Any) -> tuple:
    """Convert to a list, in the source's deterministic order."""
    return convert(runtime_monoid_of(value), LIST, value, check=False)


def builtin_first(value: Any) -> Any:
    """First element of an ordered collection."""
    items = _as_iterable(value)
    if not items:
        raise EvaluationError("first() of an empty collection")
    return items[0]


def builtin_last(value: Any) -> Any:
    """Last element of an ordered collection."""
    items = _as_iterable(value)
    if not items:
        raise EvaluationError("last() of an empty collection")
    return items[-1]


def _number(value: Any, what: str) -> Any:
    """``value`` when it is an int or a float (a bool is neither)."""
    if type(value) is bool or not isinstance(value, (int, float)):
        raise EvaluationError(f"{what} numbers, got {type(value).__name__}: {value!r}")
    return value


def builtin_range(*args: int) -> tuple:
    """``range(n)`` or ``range(lo, hi)`` — a list of integers."""
    for arg in args:
        if type(arg) is not int:
            raise EvaluationError(f"range requires integers, got {type(arg).__name__}: {arg!r}")
    return tuple(range(*args))


def builtin_abs(value: Any) -> Any:
    return abs(_number(value, "abs requires"))


def builtin_sqrt(value: Any) -> float:
    if _number(value, "sqrt requires") < 0:
        raise EvaluationError(f"sqrt of a negative number: {value!r}")
    return math.sqrt(value)


def builtin_like(value: Any, pattern: Any) -> bool:
    """OQL ``s like p`` — SQL-style patterns: ``%`` any run, ``_`` one char.

    >>> builtin_like("Portland", "Port%")
    True
    >>> builtin_like("Portland", "P_rt%")
    True
    >>> builtin_like("Salem", "Port%")
    False
    """
    if not isinstance(value, str) or not isinstance(pattern, str):
        raise EvaluationError("like requires string operands")
    regex = "".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch) for ch in pattern
    )
    return re.fullmatch(regex, value) is not None


def builtin_avg(value: Any) -> float:
    """OQL ``avg(e)``."""
    items = _as_iterable(value)
    if not items:
        raise EvaluationError("avg() of an empty collection")
    return sum(_number(item, "avg aggregates") for item in items) / len(items)


DEFAULT_BUILTINS: dict[str, Callable[..., Any]] = {
    "count": builtin_count,
    "length": builtin_count,
    "element": builtin_element,
    "flatten": builtin_flatten,
    "distinct": builtin_to_set,
    "to_set": builtin_to_set,
    "to_bag": builtin_to_bag,
    "to_list": builtin_to_list,
    "first": builtin_first,
    "last": builtin_last,
    "range": builtin_range,
    "abs": builtin_abs,
    "sqrt": builtin_sqrt,
    "avg": builtin_avg,
    "like": builtin_like,
}
