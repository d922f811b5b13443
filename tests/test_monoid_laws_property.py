"""Property-based verification of the monoid laws (hypothesis).

For every monoid in Table 1 we check, on random data:

- associativity:     (x + y) + z == x + (y + z)
- left/right unit:   zero + x == x == x + zero
- commutativity iff the monoid claims it
- idempotence iff the monoid claims it

These laws are what make the comprehension semantics well-defined, so
they are the deepest invariants in the library.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monoids import (
    ALL,
    BAG,
    LIST,
    MAX,
    MIN,
    OSET,
    PROD,
    SET,
    SOME,
    STRING,
    SUM,
    Monoid,
    VectorMonoid,
    sorted_bag_monoid,
    sorted_monoid,
)
from repro.values import Bag, OrderedSet

_SCALARS = st.integers(min_value=-50, max_value=50)


def _carrier_strategy(monoid: Monoid):
    if monoid is LIST:
        return st.lists(_SCALARS, max_size=6).map(tuple)
    if monoid is SET:
        return st.frozensets(_SCALARS, max_size=6)
    if monoid is BAG:
        return st.lists(_SCALARS, max_size=6).map(Bag)
    if monoid is OSET:
        return st.lists(_SCALARS, max_size=6).map(OrderedSet)
    if monoid is STRING:
        return st.text(alphabet="abcxyz", max_size=6)
    if monoid is SUM or monoid is MAX or monoid is MIN:
        return _SCALARS
    if monoid is PROD:
        return st.integers(min_value=-5, max_value=5)
    if monoid is SOME or monoid is ALL:
        return st.booleans()
    if isinstance(monoid, VectorMonoid):
        # Build through the accumulator so the carrier's default slot value
        # is the element monoid's zero (None for max, 0 for sum, ...).
        def build(pairs):
            acc = monoid.accumulator()
            for pair in pairs:
                acc.add(pair)
            return acc.finish()

        return st.lists(
            st.tuples(_SCALARS, st.integers(0, monoid.size - 1)), max_size=6
        ).map(build)
    # sorted / sortedbag carriers are built through the monoid itself so
    # the representation invariant (sortedness) holds.
    return st.lists(_SCALARS, max_size=6).map(monoid.from_iterable)


_MONOIDS = [
    LIST,
    SET,
    BAG,
    OSET,
    STRING,
    SUM,
    PROD,
    MAX,
    MIN,
    SOME,
    ALL,
    sorted_monoid(lambda x: x, key_name="id"),
    sorted_bag_monoid(lambda x: x, key_name="id"),
    VectorMonoid(SUM, 4),
    VectorMonoid(MAX, 3),
]


@pytest.mark.parametrize("monoid", _MONOIDS, ids=lambda m: m.name)
def test_monoid_laws(monoid):
    strategy = _carrier_strategy(monoid)

    @settings(max_examples=60, deadline=None)
    @given(x=strategy, y=strategy, z=strategy)
    def laws(x, y, z):
        # associativity
        assert monoid.merge(monoid.merge(x, y), z) == monoid.merge(
            x, monoid.merge(y, z)
        )
        # identity
        zero = monoid.zero()
        assert monoid.merge(zero, x) == x
        assert monoid.merge(x, zero) == x
        # claimed properties
        if monoid.commutative:
            assert monoid.merge(x, y) == monoid.merge(y, x)
        if monoid.idempotent:
            assert monoid.merge(x, x) == x

    laws()


@pytest.mark.parametrize(
    "monoid",
    [LIST, STRING],
    ids=lambda m: m.name,
)
def test_noncommutative_monoids_have_witnesses(monoid):
    """The declared *absence* of a property is real, not conservative."""
    if monoid is LIST:
        assert monoid.merge((1,), (2,)) != monoid.merge((2,), (1,))
        assert monoid.merge((1,), (1,)) != (1,)
    else:
        assert monoid.merge("a", "b") != monoid.merge("b", "a")
        assert monoid.merge("a", "a") != "a"


def test_bag_not_idempotent_witness():
    assert BAG.merge(Bag([1]), Bag([1])) != Bag([1])


def test_oset_not_commutative_witness():
    a, b = OrderedSet([1, 2]), OrderedSet([2, 3])
    assert OSET.merge(a, b) != OSET.merge(b, a)


@settings(max_examples=40, deadline=None)
@given(items=st.lists(_SCALARS, max_size=10))
def test_from_iterable_equals_unit_merges(items):
    """Bulk construction must agree with folding unit/merge."""
    for monoid in (LIST, SET, BAG, OSET):
        folded = monoid.zero()
        for item in items:
            folded = monoid.merge(folded, monoid.unit(item))
        assert monoid.from_iterable(items) == folded


@settings(max_examples=40, deadline=None)
@given(items=st.lists(st.tuples(_SCALARS, st.integers(0, 3)), max_size=8))
def test_vector_accumulator_equals_unit_merges(items):
    monoid = VectorMonoid(SUM, 4)
    folded = monoid.zero()
    for value, index in items:
        folded = monoid.merge(folded, monoid.unit(value, index))
    acc = monoid.accumulator()
    for pair in items:
        acc.add(pair)
    assert acc.finish() == folded


@pytest.mark.parametrize("monoid_name", ["list", "set", "bag", "oset"])
@pytest.mark.parametrize("strategy", ["accumulator", "fold-of-merges"])
def test_a2_accumulator_ablation(monoid_name, strategy):
    """Experiment A2: the O(n) accumulator comprehensions build with, and
    the right fold of unit and merge their semantics is defined by, build
    the same collection of 1500 elements."""
    monoid = {"list": LIST, "set": SET, "bag": BAG, "oset": OSET}[monoid_name]
    items = [i % 997 for i in range(1_500)]
    if strategy == "accumulator":
        acc = monoid.accumulator()
        for item in items:
            acc.add(item)
        value = acc.finish()
    else:
        value = monoid.zero()
        for item in items:
            value = monoid.merge(value, monoid.unit(item))
    assert value == {
        "list": tuple(items), "set": frozenset(items), "bag": Bag(items),
        "oset": OrderedSet(range(997)),
    }[monoid_name]
