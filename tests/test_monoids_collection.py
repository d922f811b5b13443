"""Unit tests for the collection monoids (Table 1, upper half)."""

import pytest

from repro.monoids import BAG, LIST, OSET, SET, STRING
from repro.values import Bag, OrderedSet


class TestListMonoid:
    def test_triple(self):
        assert LIST.zero() == ()
        assert LIST.unit(1) == (1,)
        assert LIST.merge((1,), (2, 3)) == (1, 2, 3)

    def test_properties(self):
        assert not LIST.commutative and not LIST.idempotent
        assert LIST.properties == frozenset()

    def test_paper_construction(self):
        # [1]++[2]++[3] = [1,2,3]
        assert LIST.merge(LIST.merge(LIST.unit(1), LIST.unit(2)), LIST.unit(3)) == (1, 2, 3)

    def test_iterate_preserves_order(self):
        assert list(LIST.iterate((3, 1, 2))) == [3, 1, 2]

    def test_accumulator(self):
        acc = LIST.accumulator()
        acc.add(1)
        acc.add(1)
        assert acc.finish() == (1, 1)

    def test_from_iterable(self):
        assert LIST.from_iterable([1, 2]) == (1, 2)

    def test_length_and_contains(self):
        assert LIST.length((1, 2, 2)) == 3
        assert LIST.contains((1, 2), 2)
        assert not LIST.contains((1, 2), 5)


class TestSetMonoid:
    def test_triple(self):
        assert SET.zero() == frozenset()
        assert SET.unit(1) == frozenset({1})
        assert SET.merge(frozenset({1}), frozenset({1, 2})) == frozenset({1, 2})

    def test_properties(self):
        assert SET.commutative and SET.idempotent

    def test_iterate_is_canonical_order(self):
        assert list(SET.iterate(frozenset({3, 1, 2}))) == [1, 2, 3]

    def test_accumulator_dedups(self):
        acc = SET.accumulator()
        acc.add(1)
        acc.add(1)
        assert acc.finish() == frozenset({1})


class TestBagMonoid:
    def test_triple(self):
        assert BAG.zero() == Bag()
        assert BAG.unit(1) == Bag([1])
        assert BAG.merge(Bag([1]), Bag([1])) == Bag([1, 1])

    def test_properties(self):
        assert BAG.commutative and not BAG.idempotent

    def test_length_counts_multiplicity(self):
        assert BAG.length(Bag([1, 1, 2])) == 3


class TestOSetMonoid:
    def test_triple(self):
        assert OSET.zero() == OrderedSet()
        assert OSET.unit(1) == OrderedSet([1])

    def test_paper_merge(self):
        merged = OSET.merge(OrderedSet([2, 5, 3, 1]), OrderedSet([3, 2, 6]))
        assert list(merged) == [2, 5, 3, 1, 6]

    def test_properties(self):
        assert not OSET.commutative and OSET.idempotent

    def test_accumulator_dedups_preserving_order(self):
        acc = OSET.accumulator()
        for value in (2, 1, 2, 3):
            acc.add(value)
        assert list(acc.finish()) == [2, 1, 3]


class TestStringMonoid:
    def test_triple(self):
        assert STRING.zero() == ""
        assert STRING.unit("a") == "a"
        assert STRING.merge("ab", "c") == "abc"

    def test_properties(self):
        assert not STRING.commutative and not STRING.idempotent

    def test_iterate_chars(self):
        assert list(STRING.iterate("abc")) == ["a", "b", "c"]

    def test_accumulator(self):
        acc = STRING.accumulator()
        acc.add("x")
        acc.add("y")
        assert acc.finish() == "xy"


# -- in bulk: 200 merges of one chunk, 2000 elements through the accumulator --------

_ITEMS = [i % 97 for i in range(2_000)]

#: monoid, a chunk, 200 copies of it merged, _ITEMS accumulated
BULK = {
    "bag": (BAG, Bag(range(50)), Bag(list(range(50)) * 200), Bag(_ITEMS)),
    "list": (LIST, tuple(range(50)), tuple(range(50)) * 200, tuple(_ITEMS)),
    "oset": (OSET, OrderedSet(range(50)), OrderedSet(range(50)), OrderedSet(range(97))),
    "set": (SET, frozenset(range(50)), frozenset(range(50)), frozenset(range(97))),
    "string": (STRING, "x" * 50, "x" * 10_000, "".join(map(str, _ITEMS))),
}


@pytest.mark.parametrize("name", sorted(BULK))
def test_merge_of_many_chunks(name):
    """An idempotent monoid absorbs the copies; the others keep each one."""
    monoid, chunk, merged, _ = BULK[name]
    value = monoid.zero()
    for _ in range(200):
        value = monoid.merge(value, chunk)
    assert value == merged
    assert monoid.length(value) == (50 if monoid.idempotent else 10_000)


@pytest.mark.parametrize("name", sorted(BULK))
def test_accumulator_of_many_elements(name):
    monoid, *_, accumulated = BULK[name]
    acc = monoid.accumulator()
    for item in _ITEMS:
        acc.add(item)
    value = acc.finish()
    assert value == accumulated and list(monoid.iterate(value)) == list(monoid.iterate(accumulated))
