"""Canonical iteration order is computed at most once per value.

``canonical_order`` memoises a bag's order on the bag and a frozenset's
in an identity-keyed table; these tests pin that the memo never changes
what iteration yields, never outlives or crosses over between values,
and is never carried by a copy.
"""

from __future__ import annotations

import copy
import gc
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monoids import BAG, SET
from repro.values import (
    Bag,
    OrderedSet,
    Record,
    Vector,
    canonical_key,
    canonical_order,
    canonical_sorted,
)
from repro.values import compare

_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-20, 20),
    st.text(alphabet="abc", max_size=3),
)

_values = st.recursive(
    _scalar,
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(frozenset),
        st.lists(children, max_size=4).map(Bag),
        st.dictionaries(
            st.text(alphabet="ab", min_size=1, max_size=2), children, max_size=3
        ).map(Record),
    ),
    max_leaves=8,
)


# -- order equivalence -------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(xs=st.lists(_values, max_size=6))
def test_bag_iterates_in_sorted_order_first_and_later(xs):
    bag = Bag(xs)
    expected = sorted(xs, key=canonical_key)
    assert list(bag) == expected
    assert list(BAG.iterate(bag)) == expected
    assert list(bag) == expected


@settings(max_examples=150, deadline=None)
@given(xs=st.lists(_values, max_size=6))
def test_set_iterates_in_sorted_order_first_and_later(xs):
    collection = frozenset(xs)
    expected = sorted(collection, key=canonical_key)
    assert list(SET.iterate(collection)) == expected
    assert list(SET.iterate(collection)) == expected
    assert canonical_sorted(collection) == expected


def test_bag_order_repeats_each_element_count_times_adjacent():
    bag = Bag(["b", "a", "b", "b", "a"])
    assert canonical_order(bag) == ("a", "a", "b", "b", "b")
    assert canonical_order(bag) is canonical_order(bag)


def test_later_iterations_build_no_keys(count_canonical_key):
    bag = Bag([Record(k=i % 3) for i in range(9)])
    collection = frozenset(Record(k=i) for i in range(9))
    list(bag), list(SET.iterate(collection))
    calls = count_canonical_key()
    list(bag), list(SET.iterate(collection)), repr(bag), canonical_sorted(collection)
    assert calls == []


# -- memo safety -----------------------------------------------------------------------


def test_equal_sets_yield_their_own_elements():
    ints, bools = frozenset({1, 2}), frozenset({True, 2})
    assert ints == bools
    for _ in range(2):
        assert [type(v) for v in SET.iterate(ints)] == [int, int]
        assert [type(v) for v in SET.iterate(bools)] == [bool, int]


def test_table_entries_die_with_their_sets():
    gc.collect()
    before = len(compare._SET_ORDERS)
    transient = [frozenset({i, i + 1, "x"}) for i in range(50)]
    for collection in transient:
        canonical_order(collection)
    assert len(compare._SET_ORDERS) == before + 50
    ids = {id(collection) for collection in transient}
    del transient, collection
    gc.collect()
    assert len(compare._SET_ORDERS) == before
    # New sets may land on the recycled ids; each gets its own order.
    fresh = [frozenset({-i, "y"}) for i in range(200)]
    assert ids & {id(collection) for collection in fresh}
    for i, collection in enumerate(fresh):
        assert canonical_order(collection) == (-i, "y")


def test_stale_entry_on_a_recycled_id_is_never_served():
    victim = frozenset({1, 2, 3})
    canonical_order(victim)
    impostor = frozenset({"a", "b"})
    # Same table slot, but the reference points at another set.
    compare._SET_ORDERS[id(impostor)] = compare._SET_ORDERS[id(victim)]
    assert canonical_order(impostor) == ("a", "b")
    assert canonical_order(victim) == (1, 2, 3)


def test_mutable_set_is_never_memoised():
    mutable = {2, 1}
    assert list(SET.iterate(mutable)) == [1, 2]
    mutable.add(0)
    assert list(SET.iterate(mutable)) == [0, 1, 2]


def test_derived_bags_start_with_an_empty_memo():
    left, right = Bag([2, 1, 1]), Bag([1, 3])
    list(left), list(right)
    derived = [
        Bag(left),
        Bag.from_counts({1: 2}),
        left.union(right),
        left + right,
        left.difference(right),
        left.intersection(right),
    ]
    assert all(bag._order is None for bag in derived)
    assert [list(bag) for bag in derived] == [
        [1, 1, 2], [1, 1], [1, 1, 1, 2, 3], [1, 1, 1, 2, 3], [1, 2], [1],
    ]


def test_canonical_key_of_bag_reads_counts_without_copying(monkeypatch):
    bag = Bag([1, 1, 2])
    monkeypatch.setattr(Bag, "counts", lambda self: pytest.fail("copied the counts"))
    assert canonical_key(bag) == canonical_key(Bag([2, 1, 1]))


def test_canonical_sorted_returns_a_fresh_list_for_any_iterable():
    bag = Bag([2, 1])
    first = canonical_sorted(bag)
    first.append(99)
    assert canonical_sorted(bag) == [1, 2]
    assert canonical_sorted(iter([3, "a", None])) == [None, 3, "a"]
    assert canonical_sorted({2: "x", 1: "y"}) == [1, 2]


# -- copy and pickle ---------------------------------------------------------------------

_NESTED = frozenset({
    Record(name="a", tags=Bag(["x", "y", "x"]), path=OrderedSet([3, 1])),
    Record(name="b", tags=Bag(), grid=Vector.from_dense([0, 7, 0])),
})


def _pickle(value):
    return pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("clone", [copy.deepcopy, _pickle, copy.copy])
@pytest.mark.parametrize(
    "value",
    [
        Bag([3, 1, 3, Record(a=1)]),
        Record(b=2, a=Bag([1])),
        OrderedSet([2, 5, 3, 1]),
        Vector(4, 0, {2: 8}),
        _NESTED,
    ],
    ids=["bag", "record", "oset", "vector", "nested"],
)
def test_round_trip_keeps_value_hash_and_order(clone, value):
    hash(value), repr(value)  # fill every memo the original can carry
    twin = clone(value)
    assert twin == value and type(twin) is type(value)
    assert hash(twin) == hash(value)
    if isinstance(value, Record):
        assert twin.fields() == value.fields()
    else:
        order = canonical_order if isinstance(value, (Bag, frozenset)) else tuple
        assert order(twin) == order(value)
        # and, one level down, the fields and bags of the nested records
        assert repr(order(twin)) == repr(order(value))


@pytest.mark.parametrize("clone", [copy.deepcopy, _pickle, copy.copy])
def test_copies_never_carry_a_memo(clone):
    bag = Bag([2, 1, 2])
    hash(bag), list(bag)
    twin = clone(bag)
    assert twin._hash is None and twin._order is None
    assert list(twin) == [1, 2, 2]
