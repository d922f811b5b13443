"""Canonical iteration order is computed at most once per held value.

``canonical_order`` memoises a bag's order on the bag and a stored set's
(:class:`~repro.values.compare.StoredSet`, what
:func:`~repro.values.compare.stored` makes of a ``frozenset``) in its
``order`` slot; a plain set is sorted on every call. These tests pin that
the memo never changes what iteration yields, never crosses over between
values, and is never carried by a copy, and that a stored set is, to
every reader but the iterating one, the plain set it equals.
"""

from __future__ import annotations

import copy
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
from repro.values.compare import StoredSet, stored

#: One scalar kind per collection, as in a well-typed OQL collection:
#: mixing ``bool`` and ``int`` would make ``False`` and ``0`` one element
#: (:func:`test_bag_counts_python_equal_scalars_as_one_element`).
_scalar_kinds = st.sampled_from([
    st.none(),
    st.booleans(),
    st.integers(-20, 20),
    st.text(alphabet="abc", max_size=3),
])


def _values(scalar):
    return st.recursive(
        scalar,
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


_collections = _scalar_kinds.flatmap(lambda scalar: st.lists(_values(scalar), max_size=6))


# -- order equivalence -------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(xs=_collections)
def test_bag_iterates_in_sorted_order_first_and_later(xs):
    bag = Bag(xs)
    expected = sorted(xs, key=canonical_key)
    assert list(bag) == expected
    assert list(BAG.iterate(bag)) == expected
    assert list(bag) == expected


def test_bag_counts_python_equal_scalars_as_one_element():
    """``False == 0`` in Python, so a bag counts them as one element (the
    first one seen) where ``canonical_key`` orders ``bool`` before ``int``."""
    xs = [False, True, 0]
    assert list(Bag(xs)) == [False, False, True]
    assert sorted(xs, key=canonical_key) == [False, True, 0]


@settings(max_examples=150, deadline=None)
@given(xs=_collections)
def test_set_iterates_in_sorted_order_first_and_later(xs):
    collection = frozenset(xs)
    expected = sorted(collection, key=canonical_key)
    assert list(SET.iterate(collection)) == expected
    assert list(SET.iterate(collection)) == expected
    assert canonical_sorted(collection) == expected
    kept = stored(collection)
    for _ in range(2):  # the keys tell True from 1, where ``==`` does not
        assert list(map(canonical_key, SET.iterate(kept))) == list(map(canonical_key, expected))


def test_bag_order_repeats_each_element_count_times_adjacent():
    bag = Bag(["b", "a", "b", "b", "a"])
    assert canonical_order(bag) == ("a", "a", "b", "b", "b")
    assert canonical_order(bag) is canonical_order(bag)


def test_later_iterations_build_no_keys(count_canonical_key):
    bag = Bag([Record(k=i % 3) for i in range(9)])
    collection = stored(frozenset(Record(k=i) for i in range(9)))
    list(bag), list(SET.iterate(collection))
    calls = count_canonical_key()
    list(bag), list(SET.iterate(collection)), repr(bag), canonical_sorted(collection)
    assert calls == []


# -- memo safety -----------------------------------------------------------------------


@pytest.mark.parametrize("keep", [frozenset, stored], ids=["plain", "stored"])
def test_equal_sets_yield_their_own_elements(keep):
    ints, bools = keep(frozenset({1, 2})), keep(frozenset({True, 2}))
    assert ints == bools
    for _ in range(2):
        assert [type(v) for v in SET.iterate(ints)] == [int, int]
        assert [type(v) for v in SET.iterate(bools)] == [bool, int]


def test_a_stored_set_is_sorted_once_and_a_plain_one_every_time(count_canonical_key):
    plain = frozenset({3, 1, 2})
    kept = stored(plain)
    assert kept.order is None  # filled by the first iteration, not by storing
    calls = count_canonical_key()
    first = canonical_order(kept)
    assert first == (1, 2, 3) and kept.order is first and len(calls) == 3
    assert canonical_order(kept) is first and len(calls) == 3
    assert canonical_order(plain) == first and canonical_order(plain) is not first
    assert len(calls) == 9


def test_a_stored_set_is_the_plain_set_to_every_other_reader():
    plain = frozenset({Record(a=1), Record(a=2)})
    kept = stored(plain)
    assert type(kept) is StoredSet and isinstance(kept, frozenset)
    assert kept == plain and plain == kept and hash(kept) == hash(plain)
    assert repr(kept) == repr(plain) and repr(stored(frozenset())) == "frozenset()"
    assert type(kept).__name__ == "frozenset"  # so no error text names another type
    assert type(kept | plain) is frozenset and canonical_key(kept) == canonical_key(plain)


def test_storing_rebuilds_only_what_holds_a_set():
    flat = Record(a=1, b=(2, "x"), c=Bag([1, 1]))
    nested = Record(name="n", tags=frozenset({"x"}), rows=(flat, Bag([frozenset({1})])))
    for value in (flat, (flat, 2), Bag([flat]), 7, "s", None):
        assert stored(value) is value
    kept = stored(nested)
    assert kept == nested and kept is not nested and kept["rows"][0] is flat
    assert type(kept["tags"]) is StoredSet
    (inner,) = kept["rows"][1]
    assert type(inner) is StoredSet and kept["rows"][1] == nested["rows"][1]
    assert stored(kept) is kept and stored(kept["tags"]) is kept["tags"]


def test_a_stored_sets_elements_are_stored_when_it_is_first_ordered():
    row = Record(a=frozenset({1}))
    kept = stored(frozenset({row, 2}))
    assert next(v for v in kept if v == row) is row  # the set keeps what it was given
    (two, first) = canonical_order(kept)
    assert two == 2 and first == row and type(first["a"]) is StoredSet
    assert canonical_order(kept)[1] is first


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
        stored(_NESTED),
    ],
    ids=["bag", "record", "oset", "vector", "nested", "stored"],
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
    kept = stored(frozenset({2, 1}))
    canonical_order(kept)
    twin = clone(kept)
    assert type(twin) is StoredSet and twin.order is None
    assert canonical_order(twin) == (1, 2)
