"""Runtime class instances and extents (object mode).

The database facade can store extents either as plain records (fast,
value-semantics queries) or as *objects*: OIDs whose states are records,
giving the section 4.2 identity and update semantics. This module keeps
the bookkeeping for object mode:

- :func:`instantiate` creates a class instance in a store, validating
  declared attributes against the schema;
- :class:`ExtentRegistry` tracks which OIDs belong to which class
  extent, including membership of subclass instances in superclass
  extents (the ODMG rule).
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.errors import SchemaError
from repro.objects.store import Obj, ObjectStore
from repro.types.schema import Schema
from repro.values import Record


def instantiate(
    store: ObjectStore,
    schema: Schema,
    class_name: str,
    attributes: dict[str, Any],
) -> Obj:
    """Create an object of ``class_name`` with the given attribute record.

    Unknown attribute names are rejected; attributes declared on the
    class (or inherited) but not supplied are allowed to be absent —
    OQL paths touching them will raise at evaluation, which mirrors a
    null-pointer dereference.
    """
    check_attributes(schema, class_name, attributes)
    state = Record({**attributes, "_class": class_name})
    return store.new(state)


def check_attributes(schema: Schema, class_name: str, attributes: dict[str, Any]) -> None:
    """:class:`SchemaError` unless ``class_name`` has every attribute named."""
    declared: set[str] = set()
    current: Optional[str] = class_name
    while current is not None:
        cls = schema.class_def(current)
        declared.update(cls.attributes)
        current = cls.superclass
    unknown = set(attributes) - declared
    if unknown:
        raise SchemaError(
            f"unknown attributes for class {class_name}: {sorted(unknown)}"
        )


def class_of(store: ObjectStore, obj: Obj) -> Optional[str]:
    """The class tag of an object created by :func:`instantiate`."""
    state = store.deref(obj)
    if isinstance(state, Record) and "_class" in state:
        return state["_class"]
    return None


class ExtentRegistry:
    """Tracks OID membership of class extents, with inheritance.

    >>> from repro.types.types import TSTRING
    >>> schema = Schema()
    >>> _ = schema.define_class("Person", {"name": TSTRING}, extent="Persons")
    >>> _ = schema.define_class("Employee", {"salary": TSTRING},
    ...                          extent="Employees", superclass="Person")
    >>> store = ObjectStore()
    >>> registry = ExtentRegistry(schema, store)
    >>> e = registry.create("Employee", {"name": "Ann", "salary": "10"})
    >>> len(registry.extent("Persons"))  # subclass member shows up
    1
    """

    def __init__(self, schema: Schema, store: ObjectStore) -> None:
        self.schema = schema
        self.store = store
        self._members: dict[str, list[Obj]] = {}  # class name -> OIDs

    def create(self, class_name: str, attributes: dict[str, Any]) -> Obj:
        """Instantiate and register an object in its class extent."""
        check_attributes(self.schema, class_name, attributes)
        return self.add(class_name, attributes)

    def add(self, class_name: str, attributes: dict[str, Any]) -> Obj:
        """:meth:`create` for attributes the caller has already checked."""
        obj = self.store.new(Record({**attributes, "_class": class_name}))
        self._members.setdefault(class_name, []).append(obj)
        return obj

    def remove(self, obj: Obj) -> None:
        """Drop an object from its extent (the state stays in the store)."""
        for members in self._members.values():
            if obj in members:
                members.remove(obj)
        # Membership changed without any heap write; the store's structural
        # counter is what every cached result watches, so bump it by hand.
        self.store.touch()

    def extent(self, extent_name: str) -> tuple[Obj, ...]:
        """All members of an extent, including subclass instances."""
        target = self.schema.extent_class(extent_name).name
        out: list[Obj] = []
        for class_name, members in self._members.items():
            if self.schema.is_subclass(class_name, target):
                out.extend(members)
        return tuple(out)

    def members_of_class(self, class_name: str) -> tuple[Obj, ...]:
        """Direct instances of exactly this class."""
        return tuple(self._members.get(class_name, ()))

    def all_objects(self) -> Iterator[Obj]:
        for members in self._members.values():
            yield from members
