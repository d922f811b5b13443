"""Unit tests for sorted[f] and sortedbag[f]."""

from repro.monoids import sorted_bag_monoid, sorted_monoid
from repro.values import Record


def test_sorted_orders_by_key():
    m = sorted_monoid(lambda r: r["k"])
    out = m.from_iterable([Record(k=3), Record(k=1), Record(k=2)])
    assert [r.k for r in out] == [1, 2, 3]


def test_sorted_is_idempotent_dropping_exact_duplicates():
    m = sorted_monoid(lambda x: x)
    assert m.merge((1, 2), (1, 2)) == (1, 2)


def test_sorted_keeps_key_equal_distinct_values():
    m = sorted_monoid(lambda r: r["k"])
    out = m.from_iterable([Record(k=1, v="b"), Record(k=1, v="a")])
    assert len(out) == 2
    # Ties broken deterministically by canonical value order.
    assert out == m.from_iterable([Record(k=1, v="a"), Record(k=1, v="b")])


def test_sorted_merge_commutative_and_associative():
    m = sorted_monoid(lambda x: x)
    a, b, c = (3, 5), (1,), (4, 5)
    assert m.merge(a, b) == m.merge(b, a)
    assert m.merge(m.merge(a, b), c) == m.merge(a, m.merge(b, c))


def test_sorted_properties_are_ci():
    m = sorted_monoid(lambda x: x)
    assert m.commutative and m.idempotent


def test_sorted_unit_and_zero():
    m = sorted_monoid(lambda x: x)
    assert m.zero() == ()
    assert m.unit(5) == (5,)


def test_sorted_insert():
    m = sorted_monoid(lambda x: x)
    assert m.insert((1, 3), 2) == (1, 2, 3)
    assert m.insert((1, 3), 3) == (1, 3)  # duplicate dropped


def test_sortedbag_keeps_duplicates():
    m = sorted_bag_monoid(lambda x: x)
    assert m.merge((1, 2), (1, 2)) == (1, 1, 2, 2)


def test_sortedbag_properties_c_only():
    m = sorted_bag_monoid(lambda x: x)
    assert m.commutative and not m.idempotent


def test_sortedbag_insert_keeps_duplicates():
    m = sorted_bag_monoid(lambda x: x)
    assert m.insert((1, 2), 2) == (1, 2, 2)


def test_sortedbag_merge_commutative():
    m = sorted_bag_monoid(lambda x: -x, key_name="neg")
    assert m.merge((3, 1), (2,)) == m.merge((2,), (3, 1)) == (3, 2, 1)


def test_sorted_descending_via_key():
    m = sorted_monoid(lambda x: -x)
    assert m.from_iterable([1, 3, 2]) == (3, 2, 1)


def test_distinct_monoid_instances_by_key_name():
    a = sorted_monoid(lambda x: x, key_name="id")
    b = sorted_monoid(lambda x: x, key_name="id2")
    assert a.name == "sorted[id]"
    assert b.name == "sorted[id2]"
    assert a != b


def test_accumulator_sorts_and_drops_repeats_in_bulk():
    acc = sorted_monoid(lambda x: x).accumulator()
    for i in range(2_000):
        acc.add((i * 7919) % 1000)  # 7919 is coprime with 1000: every residue, twice
    assert acc.finish() == tuple(range(1000))
