"""Unit tests for the primitive monoids (Table 1, lower half)."""

import pytest

from repro.monoids import ALL, MAX, MIN, PROD, SOME, SUM


def test_sum_monoid():
    assert SUM.zero() == 0
    assert SUM.unit(5) == 5
    assert SUM.merge(2, 3) == 5
    assert SUM.commutative and not SUM.idempotent


def test_prod_monoid():
    assert PROD.zero() == 1
    assert PROD.merge(2, 3) == 6
    assert PROD.commutative and not PROD.idempotent


def test_max_monoid_with_identity():
    assert MAX.zero() is None
    assert MAX.merge(None, 5) == 5
    assert MAX.merge(5, None) == 5
    assert MAX.merge(3, 7) == 7
    assert MAX.commutative and MAX.idempotent


def test_min_monoid():
    assert MIN.merge(3, 7) == 3
    assert MIN.merge(None, 7) == 7
    assert MIN.commutative and MIN.idempotent


def test_max_over_strings():
    assert MAX.merge("apple", "pear") == "pear"


def test_some_monoid():
    assert SOME.zero() is False
    assert SOME.merge(False, True) is True
    assert SOME.merge(False, False) is False
    assert SOME.commutative and SOME.idempotent


def test_all_monoid():
    assert ALL.zero() is True
    assert ALL.merge(True, False) is False
    assert ALL.merge(True, True) is True


def test_merge_all_folds_from_zero():
    assert SUM.merge_all([1, 2, 3]) == 6
    assert MAX.merge_all([]) is None
    assert ALL.merge_all([True, True]) is True


def test_properties_sets():
    assert SUM.properties == frozenset({"commutative"})
    assert MAX.properties == frozenset({"commutative", "idempotent"})


def test_primitive_monoids_are_not_collections():
    assert not SUM.is_collection
    assert not SOME.is_collection


def test_monoid_equality_by_signature():
    assert SUM == SUM
    assert SUM != PROD
    assert len({SUM, SUM, PROD}) == 2


def test_repr():
    assert repr(SUM) == "<monoid sum>"


#: monoid, an element, and 2000 copies of it folded by merge
FOLDS = {
    "sum": (SUM, 7, 14_000),
    "prod": (PROD, 2, 2**2_000),
    "max": (MAX, 7, 7),
    "min": (MIN, 7, 7),
    "some": (SOME, True, True),
    "all": (ALL, False, False),
}


@pytest.mark.parametrize("name", sorted(FOLDS))
def test_fold_of_many_merges(name):
    monoid, element, folded = FOLDS[name]
    value = monoid.zero()
    for _ in range(2_000):
        value = monoid.merge(value, element)
    assert value == folded == monoid.merge_all([element] * 2_000)
