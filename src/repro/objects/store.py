"""The object heap: OIDs, ``new``, dereference and assignment.

Section 4.2 of the paper extends the calculus with a type ``obj(α)`` and
three operations — ``new(s)``, ``!e`` and ``e := s`` — whose semantics
is a state transformer threading the heap (OID -> state bindings)
through every operation in an expression. Here the heap is a concrete
:class:`ObjectStore`; the evaluator owns one and threads it by
evaluating qualifiers in deterministic left-to-right order.

Identity semantics: two OIDs are equal only if they are the *same*
object (the paper's first example: ``some{ x = y | x <- new(1),
y <- new(1) }`` is false), while their states may be equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.errors import ObjectStoreError
from repro.values.compare import RANK_OTHER, register_key


@dataclass(frozen=True)
class Obj:
    """An object identity (OID). Hashable; equality is identity of id."""

    oid: int

    def __repr__(self) -> str:
        return f"obj#{self.oid}"


# An OID sorts by its repr, as any value of a type ``repro.values`` does not know.
register_key(Obj, lambda obj: (RANK_OTHER, "Obj", f"obj#{obj.oid}"))


class ObjectStore:
    """A heap mapping OIDs to states.

    >>> store = ObjectStore()
    >>> x = store.new(1)
    >>> y = store.new(1)
    >>> x == y
    False
    >>> store.deref(x) == store.deref(y)
    True
    >>> _ = store.assign(x, 2)
    >>> store.deref(x)
    2

    The store keeps a monotonic :attr:`version`, bumped by every
    mutation. It also remembers *which kind* of mutation came last, so
    the result cache can keep an entry whose plan never reads what
    changed (:meth:`guard`). A write of one attribute (``assign`` with
    ``field=``, the ``+=``/``:=`` of an update program) stamps that
    field name with the new version. Anything else (``new``, a
    whole-state ``assign``, ``delete``, ``restore``, ``touch``) stamps
    the structural counter, which every guard reads.
    """

    def __init__(self) -> None:
        self._states: dict[int, Any] = {}
        self._next_oid = 1
        self._version = 0
        self._structural = 0  # the version of the last non-field mutation
        self._stamps: dict[str, int] = {}  # field name -> version of its last write

    @property
    def version(self) -> int:
        """Monotonic mutation counter (see the class docstring)."""
        return self._version

    def guard(self, reads: Optional[Iterable[str]]) -> int:
        """The version of the last mutation a reader of the fields
        ``reads`` can observe; ``None`` reads everything (:attr:`version`).
        A later such mutation makes it larger than any guard taken before."""
        if reads is None:
            return self._version
        stamps = self._stamps
        return max(self._structural, max((stamps.get(f, 0) for f in reads), default=0))

    def _bump(self, field: Optional[str] = None) -> None:
        self._version += 1
        if field is None:
            self._structural = self._version
        else:
            self._stamps[field] = self._version

    def touch(self) -> None:
        """Bump :attr:`version` without changing any state.

        For mutations the store cannot see itself — e.g. dropping an
        object from an extent registry changes what queries observe
        while every heap state stays identical.
        """
        self._bump()

    def new(self, state: Any) -> Obj:
        """Allocate a fresh object with the given initial state."""
        obj = Obj(self._next_oid)
        self._next_oid += 1
        self._states[obj.oid] = state
        self._bump()
        return obj

    @property
    def lookup(self) -> Callable[[int], Any]:
        """The heap's read by OID number: the state, or None for no live
        object. It stays current for the store's lifetime, restores too."""
        return self._states.get

    def deref(self, obj: Any) -> Any:
        """``!obj`` — the object's current state."""
        self._check(obj)
        return self._states[obj.oid]

    def assign(self, obj: Any, state: Any, field: Optional[str] = None) -> bool:
        """``obj := state`` — replace the state; returns True (the paper's
        convention, so assignments can stand as qualifiers). ``field``
        names the one attribute in which ``state`` differs from the old
        state, when the caller knows it."""
        self._check(obj)
        self._states[obj.oid] = state
        self._bump(field)
        return True

    def delete(self, obj: Any) -> None:
        """Remove an object's state from the heap (a direct delete).

        Later dereferences of the OID raise (a dangling reference).
        """
        self._check(obj)
        del self._states[obj.oid]
        self._bump()

    def contains(self, obj: Obj) -> bool:
        return isinstance(obj, Obj) and obj.oid in self._states

    def __len__(self) -> int:
        return len(self._states)

    def objects(self) -> Iterator[Obj]:
        """All live OIDs, in allocation order."""
        for oid in sorted(self._states):
            yield Obj(oid)

    def snapshot(self) -> dict[int, Any]:
        """A copy of the heap (used by tests and speculative evaluation)."""
        return dict(self._states)

    def restore(self, snapshot: dict[int, Any]) -> None:
        """Reset the heap to a previous :meth:`snapshot`, in place: a
        :attr:`lookup` taken before reads the restored states."""
        states = dict(snapshot)  # ``snapshot`` may be the heap itself
        self._states.clear()
        self._states.update(states)
        self._bump()

    def _check(self, obj: Any) -> None:
        if not isinstance(obj, Obj):
            raise ObjectStoreError(
                f"expected an object (OID), got {type(obj).__name__}: {obj!r}"
            )
        if obj.oid not in self._states:
            raise ObjectStoreError(f"dangling OID {obj!r}")
