"""Fixed-length vector values for the paper's ``M[n]`` monoid (section 4.1).

A :class:`Vector` of size ``n`` holds one element per index ``0..n-1``.
Slots that were never merged into hold the element monoid's zero, so a
sparse representation (index -> value for non-default slots) is used:
``unit[M[n]](a, i)`` touches a single slot, and pointwise merges only
visit occupied slots. The paper writes such a vector ``(|v0, ..., vn-1|)``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Any

from repro.errors import VectorError


class Vector:
    """An immutable fixed-length vector with a default (zero) element.

    >>> v = Vector.from_dense([0, 0, 8, 0], default=0)
    >>> v[2]
    8
    >>> v.to_list()
    [0, 0, 8, 0]
    >>> len(v)
    4
    """

    __slots__ = ("_size", "_default", "_slots", "_hash")

    def __init__(self, size: int, default: Any = 0, slots: dict[int, Any] | None = None) -> None:
        if size < 0:
            raise VectorError(f"vector size must be non-negative, got {size}")
        clean: dict[int, Any] = {}
        for index, value in (slots or {}).items():
            if not 0 <= index < size:
                raise VectorError(f"index {index} out of range for vector of size {size}")
            if value != default:
                clean[index] = value
        object.__setattr__(self, "_size", size)
        object.__setattr__(self, "_default", default)
        object.__setattr__(self, "_slots", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def from_dense(cls, values: Iterable[Any], default: Any = 0) -> "Vector":
        """Build a vector from an explicit sequence of all its elements."""
        values = list(values)
        return cls(len(values), default, dict(enumerate(values)))

    # -- container protocol --------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index: int) -> Any:
        if not 0 <= index < self._size:
            raise VectorError(f"index {index} out of range for vector of size {self._size}")
        return self._slots.get(index, self._default)

    def __iter__(self) -> Iterator[Any]:
        for index in range(self._size):
            yield self._slots.get(index, self._default)

    def items(self) -> Iterator[tuple[int, Any]]:
        """Iterate ``(index, element)`` pairs for every slot, in order.

        This is the iteration behind the paper's indexed generator
        ``a[i] <- x``: both the element and its index are exposed.
        """
        for index in range(self._size):
            yield index, self._slots.get(index, self._default)

    def occupied(self) -> Iterator[tuple[int, Any]]:
        """Iterate only the non-default slots (sparse view), in index order."""
        for index in sorted(self._slots):
            yield index, self._slots[index]

    @property
    def default(self) -> Any:
        """The fill value of untouched slots (the element monoid's zero)."""
        return self._default

    def to_list(self) -> list[Any]:
        """Dense export as a plain Python list."""
        return list(self)

    def with_slot(self, index: int, value: Any) -> "Vector":
        """Return a new vector with one slot replaced."""
        slots = dict(self._slots)
        slots[index] = value
        return Vector(self._size, self._default, slots)

    # -- value semantics -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return (
            self._size == other._size
            and self._default == other._default
            and self._slots == other._slots
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(
                ("Vector", self._size, self._default, frozenset(self._slots.items()))
            )
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"(|{', '.join(repr(v) for v in self)}|)"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Vector is immutable")

    def __reduce__(self) -> tuple:
        return (Vector, (self._size, self._default, self._slots))
