"""Homomorphisms and the C/I well-formedness lattice.

These are the paper's core static guarantees: ``props(N) ⊆ props(M)``
decides which conversions exist. The canonical counterexample — set
cardinality as ``hom[set -> sum]`` — must be rejected.
"""

import pytest

from repro.errors import WellFormednessError
from repro.monoids import (
    BAG,
    LIST,
    OSET,
    SET,
    SUM,
    MAX,
    SOME,
    check_hom_well_formed,
    convert,
    ext,
    hom,
    is_hom_well_formed,
    map_collection,
    sorted_monoid,
    sorted_bag_monoid,
)
from repro.values import Bag


class TestWellFormedness:
    def test_list_converts_to_anything(self):
        for target in (LIST, SET, BAG, OSET, SUM, MAX, SOME):
            check_hom_well_formed(LIST, target)

    def test_bag_to_sum_is_well_formed(self):
        check_hom_well_formed(BAG, SUM)

    def test_set_to_sum_rejected(self):
        """The paper: 1 = hom[set -> sum](\\x.1){a} must not typecheck."""
        with pytest.raises(WellFormednessError):
            check_hom_well_formed(SET, SUM)

    def test_set_to_list_rejected(self):
        with pytest.raises(WellFormednessError):
            check_hom_well_formed(SET, LIST)

    def test_set_to_sorted_allowed(self):
        """The paper: sets *can* convert to sorted lists."""
        check_hom_well_formed(SET, sorted_monoid(lambda x: x))

    def test_bag_to_sortedbag_allowed(self):
        check_hom_well_formed(BAG, sorted_bag_monoid(lambda x: x))

    def test_set_to_sortedbag_rejected(self):
        with pytest.raises(WellFormednessError):
            check_hom_well_formed(SET, sorted_bag_monoid(lambda x: x))

    def test_bag_to_set_allowed(self):
        check_hom_well_formed(BAG, SET)

    def test_set_to_bag_rejected(self):
        with pytest.raises(WellFormednessError):
            check_hom_well_formed(SET, BAG)

    def test_oset_to_set_allowed(self):
        check_hom_well_formed(OSET, SET)

    def test_oset_to_bag_rejected(self):
        with pytest.raises(WellFormednessError):
            check_hom_well_formed(OSET, BAG)

    def test_set_to_some_allowed(self):
        check_hom_well_formed(SET, SOME)

    def test_set_to_max_allowed(self):
        check_hom_well_formed(SET, MAX)

    def test_boolean_form(self):
        assert is_hom_well_formed(LIST, SET)
        assert not is_hom_well_formed(SET, SUM)

    def test_error_message_names_missing_property(self):
        with pytest.raises(WellFormednessError, match="idempotent"):
            check_hom_well_formed(SET, SUM)


class TestHom:
    def test_sum_over_list(self):
        assert hom(LIST, SUM, lambda a: a, (1, 2, 3)) == 6

    def test_sum_over_ten_thousand_elements(self):
        data = tuple(range(10_000))
        assert hom(LIST, SUM, lambda a: a, data) == hom(BAG, SUM, lambda a: a, Bag(data))
        assert hom(LIST, SUM, lambda a: a, data) == sum(data)

    def test_bag_cardinality(self):
        assert hom(BAG, SUM, lambda a: 1, Bag([7, 7, 8])) == 3

    def test_list_to_set(self):
        out = hom(LIST, SET, lambda a: frozenset({a * 10}), (1, 2, 2))
        assert out == frozenset({10, 20})

    def test_existential(self):
        assert hom(SET, SOME, lambda a: a > 2, frozenset({1, 2, 3})) is True
        assert hom(SET, SOME, lambda a: a > 5, frozenset({1, 2, 3})) is False

    def test_hom_rejects_ill_formed(self):
        with pytest.raises(WellFormednessError):
            hom(SET, SUM, lambda a: 1, frozenset({1}))

    def test_check_can_be_disabled_for_internal_use(self):
        assert hom(SET, SUM, lambda a: 1, frozenset({1, 2}), check=False) == 2

    def test_hom_source_must_be_collection(self):
        from repro.errors import MonoidError

        with pytest.raises(MonoidError):
            hom(SUM, SET, lambda a: frozenset(), 3)


class TestExtAndFriends:
    def test_ext_is_monadic_bind(self):
        assert ext(LIST, lambda a: (a, a), (1, 2)) == (1, 1, 2, 2)

    def test_ext_on_set(self):
        out = ext(SET, lambda a: frozenset({a, a + 10}), frozenset({1, 2}))
        assert out == frozenset({1, 2, 11, 12})

    def test_map_collection(self):
        assert map_collection(LIST, lambda a: a + 1, (1, 2)) == (2, 3)

    def test_convert_list_to_bag(self):
        assert convert(LIST, BAG, (1, 1, 2)) == Bag([1, 1, 2])

    def test_convert_bag_to_set(self):
        assert convert(BAG, SET, Bag([1, 1, 2])) == frozenset({1, 2})

    def test_convert_respects_well_formedness(self):
        with pytest.raises(WellFormednessError):
            convert(SET, LIST, frozenset({1}))

    def test_convert_set_to_sorted(self):
        m = sorted_monoid(lambda x: x)
        assert convert(SET, m, frozenset({3, 1, 2})) == (1, 2, 3)
