"""Immutable record values (the paper's ``<a1=e1, ..., an=en>`` structs).

Records are the calculus' product type. They behave like a read-only
mapping from field names to values, support attribute-style access
(``r.name``) for ergonomic use from examples and tests, and are hashable
so they can be elements of sets and bags.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import Any

from repro.errors import EvaluationError


class Record(Mapping[str, Any]):
    """An immutable, hashable record ``<field=value, ...>``.

    Field order is preserved as given (insertion order), but equality and
    hashing are order-insensitive: two records are equal iff they have the
    same field/value pairs, matching the paper's structural semantics.

    >>> r = Record(name="Portland", population=500_000)
    >>> r.name
    'Portland'
    >>> r["population"]
    500000
    >>> Record(a=1, b=2) == Record(b=2, a=1)
    True
    """

    __slots__ = ("_fields", "_hash")

    def __init__(self, _fields: Mapping[str, Any] | None = None, **kwargs: Any) -> None:
        fields: dict[str, Any] = {}
        if _fields is not None:
            fields.update(_fields)
        fields.update(kwargs)
        object.__setattr__(self, "_fields", fields)
        object.__setattr__(self, "_hash", None)

    # -- Mapping protocol ---------------------------------------------------

    def __getitem__(self, key: str) -> Any:
        try:
            return self._fields[key]
        except KeyError:
            raise EvaluationError(
                f"record has no field {key!r} (fields: {', '.join(self._fields)})"
            ) from None

    def __contains__(self, key: object) -> bool:
        # Mapping's default relies on __getitem__ raising KeyError, but we
        # raise EvaluationError there for better query diagnostics.
        return key in self._fields

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    # -- attribute access ----------------------------------------------------

    def __getattr__(self, name: str) -> Any:
        # Only called when normal attribute lookup fails, i.e. for fields.
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self._fields[name]
        except KeyError:
            raise AttributeError(
                f"record has no field {name!r} (fields: {', '.join(self._fields)})"
            ) from None

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Record is immutable")

    def __reduce__(self) -> tuple:
        return (Record, (self._fields,))

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self._fields.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._fields.items())
        return f"<{inner}>"

    # -- functional update ----------------------------------------------------

    def replace(self, **updates: Any) -> "Record":
        """Return a new record with the given fields replaced.

        >>> Record(a=1, b=2).replace(b=3)
        <a=1, b=3>
        """
        fields = dict(self._fields)
        for key, value in updates.items():
            if key not in fields:
                raise EvaluationError(f"record has no field {key!r} to replace")
            fields[key] = value
        return Record(fields)

    def with_field(self, name: str, value: Any) -> "Record":
        """Return a new record with ``name`` added or overwritten."""
        fields = dict(self._fields)
        fields[name] = value
        return Record(fields)

    def fields(self) -> tuple[str, ...]:
        """The record's field names, in declaration order."""
        return tuple(self._fields)
