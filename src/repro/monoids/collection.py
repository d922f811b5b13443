"""The paper's collection monoids: list, set, bag, oset, string, sorted[f].

Carriers (Table 1, with our concrete representations):

=========  ==================  ===========  ==========
monoid     carrier             commutative  idempotent
=========  ==================  ===========  ==========
list       ``tuple``           no           no
set        ``frozenset``       yes          yes
bag        :class:`Bag`        yes          no
oset       :class:`OrderedSet` no           yes
string     ``str``             no           no
sorted[f]  sorted ``tuple``    yes          yes
=========  ==================  ===========  ==========

``sorted[f]`` must be both commutative and idempotent: the paper's C/I
restriction "allows the conversion of sets into sorted lists", and
``hom[set -> sorted[f]]`` is well formed only if ``sorted[f]`` has at
least set's properties. Its merge therefore removes exact duplicates and
orders ties among f-equal (but distinct) values by the canonical value
order, which keeps the merge associative. We additionally provide
:class:`SortedBagMonoid` (commutative, duplicate-preserving, hence only
C) for ordering bags without losing multiplicity — this is what the OQL
translator uses for ``sort`` over a bag.
"""

from __future__ import annotations

import bisect
import heapq
from collections.abc import Callable, Iterable, Iterator
from typing import Any

from repro.monoids.base import Accumulator, CollectionMonoid
from repro.values import Bag, OrderedSet, canonical_key, canonical_order


class _ListAccumulator(list, Accumulator):
    """A C container whose own method is ``add``: a fold step is no Python frame."""

    add = list.append

    def finish(self) -> tuple:
        return tuple(self)


class ListMonoid(CollectionMonoid):
    """Finite sequences with concatenation; carrier is ``tuple``."""

    name = "list"
    commutative = False
    idempotent = False

    def zero(self) -> tuple:
        return ()

    def unit(self, value: Any) -> tuple:
        return (value,)

    def merge(self, left: tuple, right: tuple) -> tuple:
        return tuple(left) + tuple(right)

    def iterate(self, collection: tuple) -> Iterator[Any]:
        return iter(collection)

    def accumulator(self) -> Accumulator:
        return _ListAccumulator()

    def length(self, collection: tuple) -> int:
        return len(collection)


class _SetAccumulator(set, Accumulator):
    add = set.add

    def finish(self) -> frozenset:
        return frozenset(self)


class SetMonoid(CollectionMonoid):
    """Sets with union; carrier is ``frozenset``.

    Iteration is in canonical order so evaluation is deterministic.
    """

    name = "set"
    commutative = True
    idempotent = True

    def zero(self) -> frozenset:
        return frozenset()

    def unit(self, value: Any) -> frozenset:
        return frozenset((value,))

    def merge(self, left: frozenset, right: frozenset) -> frozenset:
        return left | right

    def iterate(self, collection: frozenset) -> Iterator[Any]:
        return iter(canonical_order(collection))

    def accumulator(self) -> Accumulator:
        return _SetAccumulator()

    def contains(self, collection: frozenset, value: Any) -> bool:
        return value in collection

    def length(self, collection: frozenset) -> int:
        return len(collection)


class _BagAccumulator(_ListAccumulator):
    """Keeps the elements and counts them once, in ``finish``: ``Bag(items)``
    is one C pass with one hash per element, where counting per ``add``
    hashed each twice in Python. The price: O(n) references are held until
    ``finish`` where the per-``add`` counts held O(distinct) (DESIGN.md §4)."""

    def finish(self) -> Bag:
        return Bag(self)


class BagMonoid(CollectionMonoid):
    """Multisets with additive union; carrier is :class:`Bag`."""

    name = "bag"
    commutative = True
    idempotent = False

    def zero(self) -> Bag:
        return Bag()

    def unit(self, value: Any) -> Bag:
        return Bag((value,))

    def merge(self, left: Bag, right: Bag) -> Bag:
        return left.union(right)

    def iterate(self, collection: Bag) -> Iterator[Any]:
        return iter(collection)

    def accumulator(self) -> Accumulator:
        return _BagAccumulator()

    def contains(self, collection: Bag, value: Any) -> bool:
        return value in collection

    def length(self, collection: Bag) -> int:
        return len(collection)


class _OSetAccumulator(dict, Accumulator):
    """The first occurrence of each element, in order: dict keys."""

    add = dict.setdefault

    def finish(self) -> OrderedSet:
        return OrderedSet(self)


class OSetMonoid(CollectionMonoid):
    """Duplicate-free sequences; merge is ``x ++ (y -- x)``.

    Idempotent but not commutative — the mirror image of ``bag``.
    """

    name = "oset"
    commutative = False
    idempotent = True

    def zero(self) -> OrderedSet:
        return OrderedSet()

    def unit(self, value: Any) -> OrderedSet:
        return OrderedSet((value,))

    def merge(self, left: OrderedSet, right: OrderedSet) -> OrderedSet:
        return left.union(right)

    def iterate(self, collection: OrderedSet) -> Iterator[Any]:
        return iter(collection)

    def accumulator(self) -> Accumulator:
        return _OSetAccumulator()

    def contains(self, collection: OrderedSet, value: Any) -> bool:
        return value in collection

    def length(self, collection: OrderedSet) -> int:
        return len(collection)


class _StringAccumulator(Accumulator):
    def __init__(self) -> None:
        self._parts: list[str] = []

    def add(self, value: Any) -> None:
        self._parts.append(str(value))

    def finish(self) -> str:
        return "".join(self._parts)


class StringMonoid(CollectionMonoid):
    """Character strings with concatenation (the paper's ``string``)."""

    name = "string"
    commutative = False
    idempotent = False

    def zero(self) -> str:
        return ""

    def unit(self, value: Any) -> str:
        return str(value)

    def merge(self, left: str, right: str) -> str:
        return left + right

    def iterate(self, collection: str) -> Iterator[str]:
        return iter(collection)

    def accumulator(self) -> Accumulator:
        return _StringAccumulator()

    def length(self, collection: str) -> int:
        return len(collection)


class _SortedAccumulator(list, Accumulator):
    add = list.append

    def __init__(self, sort_key: Callable[[Any], tuple], dedup: bool) -> None:
        self._sort_key = sort_key
        self._dedup = dedup

    def finish(self) -> tuple:
        items = sorted(self, key=self._sort_key)
        if not self._dedup:
            return tuple(items)
        deduped: list[Any] = []
        for item in items:
            if not deduped or deduped[-1] != item:
                deduped.append(item)
        return tuple(deduped)


class SortedMonoid(CollectionMonoid):
    """``sorted[f]``: duplicate-free lists ordered by ``f`` (C and I).

    ``key`` maps an element to its ordering attribute. Ties among
    distinct elements with equal keys are broken by the canonical value
    order, which makes the merge associative and commutative; exact
    duplicates are dropped, which makes it idempotent. Together this
    admits ``hom[set -> sorted[f]]`` — sorting a set — exactly as the
    paper requires.
    """

    commutative = True
    idempotent = True

    def __init__(self, key: Callable[[Any], Any], key_name: str = "f") -> None:
        self._key = key
        self.key_name = key_name
        self.name = f"sorted[{key_name}]"

    def signature(self) -> tuple:
        return (type(self).__name__, self.key_name, id(self._key))

    def sort_key(self, value: Any) -> tuple:
        return (canonical_key(self._key(value)), canonical_key(value))

    def zero(self) -> tuple:
        return ()

    def unit(self, value: Any) -> tuple:
        return (value,)

    def merge(self, left: tuple, right: tuple) -> tuple:
        merged = self.accumulator()
        for item in left:
            merged.add(item)
        for item in right:
            merged.add(item)
        return merged.finish()

    def iterate(self, collection: tuple) -> Iterator[Any]:
        return iter(collection)

    def accumulator(self) -> Accumulator:
        return _SortedAccumulator(self.sort_key, dedup=True)

    def combine_partials(self, parts: Iterable[Any]) -> Any:
        """K-way merge of already-sorted partials (each a carrier).

        Each partial is sorted by :meth:`sort_key` already, so a heap
        merge is O(total · log k) instead of the repeated re-sorts a
        pairwise ``merge_all`` would pay. Exact duplicates are dropped
        (idempotence), matching ``merge``.
        """
        merged = heapq.merge(*parts, key=self.sort_key)
        out: list[Any] = []
        for item in merged:
            if self.idempotent and out and out[-1] == item:
                continue
            out.append(item)
        return tuple(out)

    def length(self, collection: tuple) -> int:
        return len(collection)

    def insert(self, collection: tuple, value: Any) -> tuple:
        """Insert one element, preserving order and dropping duplicates."""
        keys = [self.sort_key(item) for item in collection]
        index = bisect.bisect_left(keys, self.sort_key(value))
        if index < len(collection) and collection[index] == value:
            return collection
        return collection[:index] + (value,) + collection[index:]


class SortedBagMonoid(SortedMonoid):
    """``sortedbag[f]``: ordered lists that keep duplicates (C only).

    Used for OQL ``sort`` over bags, where multiplicity must survive.
    ``hom[bag -> sortedbag[f]]`` is well formed; ``hom[set -> sortedbag]``
    is not (idempotence would be lost), mirroring the paper's lattice.
    """

    commutative = True
    idempotent = False

    def __init__(self, key: Callable[[Any], Any], key_name: str = "f") -> None:
        super().__init__(key, key_name)
        self.name = f"sortedbag[{key_name}]"

    def accumulator(self) -> Accumulator:
        return _SortedAccumulator(self.sort_key, dedup=False)

    def insert(self, collection: tuple, value: Any) -> tuple:
        keys = [self.sort_key(item) for item in collection]
        index = bisect.bisect_right(keys, self.sort_key(value))
        return collection[:index] + (value,) + collection[index:]


LIST = ListMonoid()
SET = SetMonoid()
BAG = BagMonoid()
OSET = OSetMonoid()
STRING = StringMonoid()

COLLECTION_MONOIDS = (LIST, SET, BAG, OSET, STRING)
