"""Monoid framework — Table 1 of the paper, homomorphisms, registry.

Quick tour:

>>> from repro.monoids import LIST, SET, SUM, hom
>>> hom(LIST, SUM, lambda a: a, (1, 2, 3))
6
>>> from repro.monoids import check_hom_well_formed
>>> check_hom_well_formed(LIST, SET)   # lists convert to sets: fine
"""

from repro.monoids.base import (
    COMMUTATIVE,
    IDEMPOTENT,
    Accumulator,
    CollectionMonoid,
    Monoid,
    PrimitiveMonoid,
    check_hom_well_formed,
    is_hom_well_formed,
    require_collection,
)
from repro.monoids.collection import (
    BAG,
    LIST,
    OSET,
    SET,
    STRING,
    BagMonoid,
    ListMonoid,
    OSetMonoid,
    SetMonoid,
    SortedBagMonoid,
    SortedMonoid,
    StringMonoid,
)
from repro.monoids.homomorphism import convert, ext, hom, map_collection
from repro.monoids.primitive import ALL, MAX, MIN, PROD, SOME, SUM
from repro.monoids.registry import (
    MonoidRegistry,
    default_registry,
    get_monoid,
    sorted_bag_monoid,
    sorted_monoid,
    static_monoid,
    table1,
    vector_monoid,
)
from repro.monoids.vector import VectorMonoid

__all__ = [
    "ALL",
    "BAG",
    "COMMUTATIVE",
    "IDEMPOTENT",
    "LIST",
    "MAX",
    "MIN",
    "OSET",
    "PROD",
    "SET",
    "SOME",
    "STRING",
    "SUM",
    "Accumulator",
    "BagMonoid",
    "CollectionMonoid",
    "ListMonoid",
    "Monoid",
    "MonoidRegistry",
    "OSetMonoid",
    "PrimitiveMonoid",
    "SetMonoid",
    "SortedBagMonoid",
    "SortedMonoid",
    "StringMonoid",
    "VectorMonoid",
    "check_hom_well_formed",
    "convert",
    "default_registry",
    "ext",
    "get_monoid",
    "hom",
    "is_hom_well_formed",
    "map_collection",
    "require_collection",
    "sorted_bag_monoid",
    "sorted_monoid",
    "static_monoid",
    "table1",
    "vector_monoid",
]
