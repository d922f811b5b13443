"""Immutable record values (the paper's ``<a1=e1, ..., an=en>`` structs).

Records are the calculus' product type. A record *is* its field dict — a
``dict`` subclass with every mutator closed off — so filling one, reading
a field, ``len`` / ``in`` / iteration are the interpreter's own C dict
operations, which is what every row of every query pays: building one,
``Record({...})``, enters no Python frame. They are hashable (sets and
bags hold them); the hash is not kept, each one is computed afresh.
"""

from __future__ import annotations

from typing import Any, NoReturn

from repro.errors import EvaluationError


class Record(dict):
    """An immutable, hashable record ``<field=value, ...>``.

    Field order is preserved as given (insertion order), but equality and
    hashing are order-insensitive: two records are equal iff they have the
    same field/value pairs, matching the paper's structural semantics. A
    record never equals a plain ``dict``.

    Attribute-style access (``r.name``) is a convenience for examples and
    tests. It was always shadowed by the methods ``keys`` / ``items`` /
    ``values`` / ``get`` / ``fields`` / ``replace`` and is now also shadowed
    by ``copy`` / ``pop`` / ``update`` / ``clear`` / ``setdefault`` /
    ``popitem``; a field of such a name is read as ``r["copy"]``. OQL paths
    never use attribute access (``project`` subscripts).

    >>> r = Record(name="Portland", population=500_000)
    >>> r.name
    'Portland'
    >>> r["population"]
    500000
    >>> Record(a=1, b=2) == Record(b=2, a=1)
    True
    """

    __slots__ = ()

    def __missing__(self, key: str) -> NoReturn:
        raise EvaluationError(f"record has no field {key!r} (fields: {', '.join(self)})")

    # -- attribute access ----------------------------------------------------

    def __getattr__(self, name: str) -> Any:
        # Only called when normal attribute lookup fails, i.e. for fields.
        if name.startswith("_") or name not in self:
            raise AttributeError(f"record has no field {name!r} (fields: {', '.join(self)})")
        return self[name]

    # -- immutability ----------------------------------------------------------

    def _immutable(self, *args: Any, **kwargs: Any) -> NoReturn:
        raise AttributeError("Record is immutable")

    __setattr__ = __delattr__ = __setitem__ = __delitem__ = _immutable
    clear = pop = popitem = setdefault = update = __or__ = __ior__ = _immutable
    fromkeys = classmethod(_immutable)

    def copy(self) -> "Record":
        """The record itself — ``dict.copy`` would hand out a mutable ``dict``."""
        return self

    def __reduce__(self) -> tuple:
        # Copy and pickle rebuild from the fields: ``dict``'s own would
        # fill the copy through the closed ``__setitem__``.
        return (Record, (dict(self),))

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        # False, not NotImplemented, for a non-record: the reflected
        # ``dict.__eq__`` would call a record equal to its field dict.
        return isinstance(other, Record) and dict.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.items())
        return f"<{inner}>"

    # -- functional update ----------------------------------------------------

    def replace(self, **updates: Any) -> "Record":
        """Return a new record with the given fields replaced.

        >>> Record(a=1, b=2).replace(b=3)
        <a=1, b=3>
        """
        for key in updates:
            if key not in self:
                raise EvaluationError(f"record has no field {key!r} to replace")
        return Record(self, **updates)

    def with_field(self, name: str, value: Any) -> "Record":
        """Return a new record with ``name`` added or overwritten."""
        return Record({**self, name: value})

    def fields(self) -> tuple[str, ...]:
        """The record's field names, in declaration order."""
        return tuple(self)

