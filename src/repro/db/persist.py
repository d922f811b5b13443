"""JSON persistence for databases.

Serializes every library value with a type tag so arbitrary nesting
round-trips losslessly:

=========  ======================================
carrier    encoding
=========  ======================================
scalar     itself
Record     ``{"$": "record", "fields": {...}}``
tuple      ``{"$": "list", "items": [...]}``
frozenset  ``{"$": "set", "items": [...]}`` (canonical order)
Bag        ``{"$": "bag", "items": [[elem, count], ...]}``
OrderedSet ``{"$": "oset", "items": [...]}``
Vector     ``{"$": "vector", "size": n, "default": d, "slots": ...}``
=========  ======================================

``save_database``/``load_database`` persist a :class:`Database`'s
extents and index declarations (the schema is code, so the loader takes
it as an argument, like migrations do).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional, Union

from repro.db.database import Database
from repro.errors import DatabaseError
from repro.types.schema import Schema
from repro.values import Bag, OrderedSet, Record, Vector, canonical_order


def encode_value(value: Any) -> Any:
    """Encode one library value as JSON-compatible data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Record):
        return {"$": "record", "fields": {k: encode_value(v) for k, v in value.items()}}
    if isinstance(value, tuple):
        return {"$": "list", "items": [encode_value(v) for v in value]}
    if isinstance(value, frozenset):
        return {"$": "set", "items": [encode_value(v) for v in canonical_order(value)]}
    if isinstance(value, Bag):
        items = [
            [encode_value(element), count]
            for element, count in sorted(
                value.counts().items(), key=lambda kv: str(kv[0])
            )
        ]
        return {"$": "bag", "items": items}
    if isinstance(value, OrderedSet):
        return {"$": "oset", "items": [encode_value(v) for v in value]}
    if isinstance(value, Vector):
        return {
            "$": "vector",
            "size": len(value),
            "default": encode_value(value.default),
            "slots": [[i, encode_value(v)] for i, v in value.occupied()],
        }
    raise DatabaseError(f"cannot persist value of type {type(value).__name__}")


def decode_value(data: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, dict) and "$" in data:
        kind = data["$"]
        if kind == "record":
            return Record({k: decode_value(v) for k, v in data["fields"].items()})
        if kind == "list":
            return tuple(decode_value(v) for v in data["items"])
        if kind == "set":
            return frozenset(decode_value(v) for v in data["items"])
        if kind == "bag":
            return Bag.from_counts(
                {decode_value(element): count for element, count in data["items"]}
            )
        if kind == "oset":
            return OrderedSet(decode_value(v) for v in data["items"])
        if kind == "vector":
            return Vector(
                data["size"],
                default=decode_value(data["default"]),
                slots={i: decode_value(v) for i, v in data["slots"]},
            )
        raise DatabaseError(f"unknown persisted value tag {kind!r}")
    raise DatabaseError(f"cannot decode persisted data: {data!r}")


def dump_database(db: Database) -> dict:
    """The database's persistable state as plain JSON data."""
    return {
        "format": "repro-db",
        "version": 1,
        "extents": {
            name: encode_value(collection)
            for name, collection in db.catalog.extents().items()
        },
        "indexes": sorted(list(key) for key in db.catalog.index_keys()),
    }


def restore_database(data: dict, schema: Optional[Schema] = None) -> Database:
    """Rebuild a database from :func:`dump_database` output."""
    if data.get("format") != "repro-db":
        raise DatabaseError("not a persisted repro database")
    if data.get("version") != 1:
        raise DatabaseError(f"unsupported database version {data.get('version')!r}")
    db = Database(schema)
    for name, encoded in data["extents"].items():
        db.load_extent(name, decode_value(encoded))
    for extent, attribute in data.get("indexes", []):
        db.create_index(extent, attribute)
    return db


def save_database(db: Database, path: Union[str, Path]) -> None:
    """Write the database to a JSON file."""
    payload = dump_database(db)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)


def load_database(path: Union[str, Path], schema: Optional[Schema] = None) -> Database:
    """Read a database from a JSON file written by :func:`save_database`."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return restore_database(payload, schema)
