"""Monoid registry: name -> monoid lookup and the live Table 1.

The OQL front end and the calculus pretty printer refer to monoids by
name (``set{ ... }``, ``sum{ ... }``). The registry resolves those names
and lets applications register their own monoids — the paper emphasizes
that the framework is open (any user triple satisfying the laws may
participate, subject to the C/I restriction).

It is the only monoid table: the static layers read C/I facts off the
registered objects through :func:`static_monoid`.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import MonoidError, UnknownMonoidError
from repro.monoids.base import Monoid
from repro.monoids.collection import (
    BAG,
    COLLECTION_MONOIDS,
    LIST,
    OSET,
    SET,
    STRING,
    SortedBagMonoid,
    SortedMonoid,
)
from repro.monoids.primitive import ALL, MAX, MIN, PRIMITIVE_MONOIDS, PROD, SOME, SUM
from repro.monoids.vector import VectorMonoid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.calculus.ast import MonoidRef

#: ``sorted[f]`` / ``sortedbag[f]`` carry their key in the reference and
#: are not registered: static checks read a keyless instance of each.
_KEYED: dict[str, Monoid] = {"sorted": SortedMonoid(None), "sortedbag": SortedBagMonoid(None)}


class MonoidRegistry:
    """A mutable mapping of monoid names to monoid instances."""

    def __init__(self) -> None:
        self._monoids: dict[str, Monoid] = {}

    def register(self, monoid: Monoid, replace: bool = False) -> Monoid:
        """Add ``monoid`` under its ``name``; reject silent redefinition
        and the names the evaluator resolves before it reads the registry
        (``vec``, ``sorted``, ``sortedbag``), which could never run."""
        if monoid.name == "vec" or monoid.name in _KEYED:
            raise MonoidError(f"monoid name {monoid.name!r} is reserved by the calculus")
        if monoid.name in self._monoids and not replace:
            raise MonoidError(f"monoid {monoid.name!r} is already registered")
        self._monoids[monoid.name] = monoid
        return monoid

    def get(self, name: str) -> Monoid:
        """Look up a monoid by name.

        >>> default_registry().get("bag").name
        'bag'
        """
        try:
            return self._monoids[name]
        except KeyError:
            raise UnknownMonoidError(name, list(self._monoids)) from None

    def __contains__(self, name: str) -> bool:
        return name in self._monoids

    def names(self) -> list[str]:
        return sorted(self._monoids)


_DEFAULT: MonoidRegistry | None = None


def default_registry() -> MonoidRegistry:
    """The process-wide registry preloaded with Table 1's monoids."""
    global _DEFAULT
    if _DEFAULT is None:
        registry = MonoidRegistry()
        for monoid in PRIMITIVE_MONOIDS:
            registry.register(monoid)
        for monoid in COLLECTION_MONOIDS:
            registry.register(monoid)
        _DEFAULT = registry
    return _DEFAULT


def get_monoid(name: str) -> Monoid:
    """Shorthand for ``default_registry().get(name)``."""
    return default_registry().get(name)


def static_monoid(ref: "MonoidRef | str") -> Optional[Monoid]:
    """The monoid a reference (or a bare name) denotes, for the layers
    that read its properties without running it; None when unknown.
    ``sorted``/``sortedbag`` are their classes, ``M[n]`` is its element
    monoid (whose properties it inherits), any other name is looked up
    in :func:`default_registry`."""
    if not isinstance(ref, str):
        if ref.is_vector:
            return None if ref.element is None else static_monoid(ref.element)
        ref = ref.name
    keyed = _KEYED.get(ref)
    return keyed if keyed is not None else default_registry()._monoids.get(ref)


def sorted_monoid(key: Callable[[Any], Any], key_name: str = "f") -> SortedMonoid:
    """Fresh ``sorted[f]`` monoid (CI; duplicate-eliminating)."""
    return SortedMonoid(key, key_name)


def sorted_bag_monoid(key: Callable[[Any], Any], key_name: str = "f") -> SortedBagMonoid:
    """Fresh ``sortedbag[f]`` monoid (C; duplicate-preserving)."""
    return SortedBagMonoid(key, key_name)


def vector_monoid(element: Monoid, size: int) -> VectorMonoid:
    """Fresh ``M[n]`` monoid over element monoid ``element``."""
    return VectorMonoid(element, size)


def table1() -> list[dict[str, str]]:
    """Regenerate the paper's Table 1 from the live monoid objects.

    Returns one row per monoid with the same columns the paper prints:
    monoid, carrier type, zero, unit(a), merge, and the C/I flags.
    """
    rows = [
        _row(LIST, "list(a)", "[]", "[a]", "++"),
        _row(SET, "set(a)", "{}", "{a}", "∪"),
        _row(BAG, "bag(a)", "{{}}", "{{a}}", "⊎"),
        _row(OSET, "list(a)", "[]", "[a]", "x ++ (y -- x)"),
        _row(STRING, "string", '""', '"a"', "concat"),
        _row(_KEYED["sorted"], "list(a)", "[]", "[a]", "sorted merge"),
        _row(SUM, "number", "0", "a", "+"),
        _row(PROD, "number", "1", "a", "*"),
        _row(MAX, "ordered", "None", "a", "max"),
        _row(MIN, "ordered", "None", "a", "min"),
        _row(SOME, "bool", "false", "a", "or"),
        _row(ALL, "bool", "true", "a", "and"),
    ]
    return rows


def _row(monoid: Monoid, carrier: str, zero: str, unit: str, merge: str) -> dict[str, str]:
    flags = ""
    if monoid.commutative:
        flags += "C"
    if monoid.idempotent:
        flags += "I"
    return {
        "monoid": monoid.name,
        "type": carrier,
        "zero": zero,
        "unit": unit,
        "merge": merge,
        "C/I": flags or "-",
    }
