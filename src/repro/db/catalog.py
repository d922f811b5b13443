"""The catalog: named extents, their sizes and their indexes."""

from __future__ import annotations

from typing import Any, Iterator

from repro.db.index import HashIndex
from repro.errors import DatabaseError
from repro.eval.builtins import runtime_monoid_of
from repro.objects.store import ObjectStore


class Catalog:
    """Extent namespace plus index bookkeeping for one database.

    The catalog also carries the version counter the query cache keys
    on: one :attr:`version` covering everything a compiled plan or a
    cached result depends on — the extents loaded (reloads included)
    and the set of available indexes. It is monotonic; comparisons are
    for equality only.
    """

    def __init__(self) -> None:
        self._extents: dict[str, Any] = {}
        self._indexes: dict[tuple[str, str], HashIndex] = {}
        self._version = 0

    # -- versions --------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic structure counter (extents loaded, indexes built)."""
        return self._version

    # -- extents ---------------------------------------------------------------

    def register_extent(self, name: str, collection: Any, replace: bool = False) -> None:
        if name in self._extents and not replace:
            raise DatabaseError(f"extent {name!r} already loaded")
        runtime_monoid_of(collection)  # raises if not a collection
        self._extents[name] = collection
        self._version += 1
        # Rebuild any indexes declared on this extent.
        for (extent, attribute), index in list(self._indexes.items()):
            if extent == name:
                self._indexes[(extent, attribute)] = HashIndex.build(
                    extent, attribute, self.iterate_extent(extent), index_store(index)
                )

    def extent(self, name: str) -> Any:
        try:
            return self._extents[name]
        except KeyError:
            raise DatabaseError(
                f"unknown extent {name!r} (loaded: {', '.join(sorted(self._extents))})"
            ) from None

    def has_extent(self, name: str) -> bool:
        return name in self._extents

    def extents(self) -> dict[str, Any]:
        return dict(self._extents)

    def extent_sizes(self) -> dict[str, int]:
        """Element counts per extent, for the plan cost model."""
        sizes = {}
        for name, collection in self._extents.items():
            sizes[name] = runtime_monoid_of(collection).length(collection)
        return sizes

    def iterate_extent(self, name: str) -> Iterator[Any]:
        collection = self.extent(name)
        return runtime_monoid_of(collection).iterate(collection)

    # -- indexes -----------------------------------------------------------------

    def create_index(
        self, extent: str, attribute: str, store: ObjectStore | None = None
    ) -> HashIndex:
        """Build (or rebuild) a hash index on ``extent.attribute``."""
        if not self.has_extent(extent):
            raise DatabaseError(f"cannot index unknown extent {extent!r}")
        index = HashIndex.build(
            extent, attribute, self.iterate_extent(extent), store
        )
        index._store = store  # kept for rebuilds on reload
        self._indexes[(extent, attribute)] = index
        self._version += 1
        return index

    def index_keys(self) -> set[tuple[str, str]]:
        return set(self._indexes)

    def index_mappings(self) -> dict[tuple[str, str], dict[Any, list[Any]]]:
        """(extent, attribute) -> raw mapping, for the executor."""
        return {key: index.as_mapping() for key, index in self._indexes.items()}


def index_store(index: HashIndex) -> ObjectStore | None:
    return getattr(index, "_store", None)
