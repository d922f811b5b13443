"""Evaluation environments: immutable chained scopes."""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import UnboundVariableError


class Env:
    """An immutable mapping of variable names to runtime values.

    ``bind`` extends the environment without mutating it, so generator
    iteration can reuse the parent scope cheaply:

    >>> base = Env({"x": 1})
    >>> child = base.bind("y", 2)
    >>> child.lookup("x"), child.lookup("y")
    (1, 2)
    >>> base.has("y")
    False
    """

    __slots__ = ("_bindings", "_parent")

    def __init__(self, bindings: dict[str, Any] | None = None, parent: "Env | None" = None) -> None:
        self._bindings = dict(bindings or {})
        self._parent = parent

    @classmethod
    def wrapping(cls, bindings: dict[str, Any], parent: "Env | None") -> "Env":
        """A child environment *aliasing* ``bindings`` without copying.

        The constructor copies its dict so environments stay immutable
        even if the caller mutates theirs afterwards. On the per-row
        execution path that copy is pure overhead: the executor builds
        a fresh dict per row and never mutates it afterwards. Callers
        must uphold that contract — the returned environment reflects
        later mutations of ``bindings``.
        """
        env = cls.__new__(cls)
        env._bindings = bindings
        env._parent = parent
        return env

    def bind(self, name: str, value: Any) -> "Env":
        """A child environment with one extra binding."""
        return Env({name: value}, parent=self)

    def bind_many(self, bindings: dict[str, Any]) -> "Env":
        """A child environment with several extra bindings."""
        if not bindings:
            return self
        return Env(bindings, parent=self)

    def lookup(self, name: str) -> Any:
        env: Env | None = self
        while env is not None:
            if name in env._bindings:
                return env._bindings[name]
            env = env._parent
        raise UnboundVariableError(name, candidates=self.names())

    def has(self, name: str) -> bool:
        env: Env | None = self
        while env is not None:
            if name in env._bindings:
                return True
            env = env._parent
        return False

    def names(self) -> Iterator[str]:
        """All visible names, innermost scopes first."""
        seen: set[str] = set()
        env: Env | None = self
        while env is not None:
            for name in env._bindings:
                if name not in seen:
                    seen.add(name)
                    yield name
            env = env._parent
