"""The catalog: the database's one namespace.

Every name a query can mean has one kind: a value ``extent`` (a reload
needs ``replace=True``), an ``object extent`` of OIDs in the catalog's
store (section 4.2; more objects append), a ``view`` or a ``function``
(both overwrite). Giving a name a second kind raises a
:class:`~repro.errors.DatabaseError` naming it and changes nothing.
Every registration and index build bumps one ``int``,
:attr:`Catalog.version`, the version compiled plans, cached results and
the linter are valid at; heap writes are the store's guard's business.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.db.index import HashIndex
from repro.errors import DatabaseError, SchemaError
from repro.eval.builtins import runtime_monoid_of
from repro.objects.classes import ExtentRegistry, check_attributes
from repro.objects.store import ObjectStore
from repro.types.schema import Schema


class Catalog:
    """Every name one database's queries can mean, and its version."""

    def __init__(self, schema: Optional[Schema] = None) -> None:
        self.store = ObjectStore()
        self.registry = ExtentRegistry(schema if schema is not None else Schema(), self.store)
        self._kinds: dict[str, str] = {}  # name -> its one kind
        self._extents: dict[str, Any] = {}
        self.views: dict[str, Any] = {}  # name -> calculus term
        self.functions: dict[str, Any] = {}  # name -> Python callable
        self._indexes: dict[tuple[str, str], HashIndex] = {}
        #: monotonic registration counter; compare for equality only
        self.version = 0

    # -- the namespace -----------------------------------------------------------

    def _claim(self, name: str, kind: str) -> None:
        """Register ``name`` as ``kind``, refused when it is another."""
        held = self._kinds.setdefault(name, kind)
        if held != kind:
            raise DatabaseError(f"cannot register {kind} {name!r}: the name is a registered {held}")
        self.version += 1

    def names(self) -> set[str]:
        """Every registered name, of any kind."""
        return set(self._kinds)

    def extent_names(self) -> set[str]:
        """The names of value and object extents."""
        return {name for name, kind in self._kinds.items() if kind.endswith("extent")}

    def bindings(self) -> dict[str, Any]:
        """Extent name -> its collection (an object extent's OIDs)."""
        bindings = dict(self._extents)
        for name, kind in self._kinds.items():
            if kind == "object extent":
                bindings[name] = self.registry.extent(name)
        return bindings

    def extent_sizes(self) -> dict[str, int]:
        """Element counts per value and object extent, for EXPLAIN."""
        return {name: runtime_monoid_of(c).length(c) for name, c in self.bindings().items()}

    # -- registrations -------------------------------------------------------------

    def register_extent(self, name: str, collection: Any, replace: bool = False) -> None:
        """Load, or with ``replace`` reload, a value extent and its indexes."""
        if name in self._extents and not replace:
            raise DatabaseError(f"extent {name!r} already loaded")
        monoid = runtime_monoid_of(collection)  # raises if not a collection
        # its indexes are rebuilt before the claim: a row one cannot take
        # (it lacks the field) refuses the reload and changes nothing
        rebuilt = {
            key: HashIndex.build(*key, monoid.iterate(collection), self.store)
            for key in self._indexes if key[0] == name
        }
        self._claim(name, "extent")
        self._extents[name] = collection
        self._indexes.update(rebuilt)

    def register_objects(self, name: str, class_name: str, rows: list[dict]) -> None:
        """One new ``class_name`` object per row in ``name``, all checked first."""
        schema = self.registry.schema
        try:
            if not schema.is_subclass(class_name, cls := schema.extent_class(name).name):
                raise SchemaError(f"{class_name} is not its class {cls} or a subclass")
            for row in rows:
                check_attributes(schema, class_name, row)
        except SchemaError as err:
            raise DatabaseError(f"cannot load objects into {name!r}: {err}") from None
        self._claim(name, "object extent")
        for row in rows:
            self.registry.create(class_name, row)

    def define_view(self, name: str, term: Any) -> None:
        self._claim(name, "view")
        self.views[name] = term

    def register_function(self, name: str, fn: Any) -> None:
        self._claim(name, "function")
        self.functions[name] = fn

    def create_index(self, extent: str, attribute: str) -> None:
        """Build (or rebuild) a hash index on ``extent.attribute``, its
        field checked first: against the class the schema declares, else
        the rows (an empty extent has none, so it is refused)."""
        if extent not in self._extents:
            kind = self._kinds.get(extent, "unknown extent")
            raise DatabaseError(f"cannot index {kind} {extent!r}: indexes are value-extent only")
        schema, collection = self.registry.schema, self._extents[extent]
        monoid = runtime_monoid_of(collection)
        if schema.has_extent(extent):
            try:
                check_attributes(schema, schema.extent_class(extent).name, {attribute: None})
            except SchemaError as err:
                raise DatabaseError(f"cannot index {extent}.{attribute}: {err}") from None
        elif not monoid.length(collection):
            raise DatabaseError(f"cannot index {extent}.{attribute}: {extent!r} is empty and "
                                "no class declares its fields; load rows first")
        index = HashIndex.build(extent, attribute, monoid.iterate(collection), self.store)
        self._indexes[(extent, attribute)] = index
        self.version += 1

    # -- value extents ---------------------------------------------------------------

    def extent(self, name: str) -> Any:
        if name not in self._extents:
            raise DatabaseError(f"unknown extent {name!r} (loaded: {', '.join(sorted(self._extents))})")
        return self._extents[name]

    def extents(self) -> dict[str, Any]:
        """Value extent name -> collection (what persistence saves)."""
        return dict(self._extents)

    def iterate_extent(self, name: str) -> Iterator[Any]:
        collection = self.extent(name)
        return runtime_monoid_of(collection).iterate(collection)

    # -- indexes -----------------------------------------------------------------

    def index_keys(self) -> set[tuple[str, str]]:
        return set(self._indexes)

    def index_mappings(self) -> dict[tuple[str, str], dict[Any, list[Any]]]:
        """(extent, attribute) -> raw mapping, for the executor."""
        return {key: index.as_mapping() for key, index in self._indexes.items()}
