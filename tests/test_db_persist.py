"""JSON persistence round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, make_travel_agency, travel_schema
from repro.db.persist import (
    decode_value,
    dump_database,
    encode_value,
    load_database,
    restore_database,
    save_database,
)
from repro.errors import DatabaseError
from repro.values import Bag, OrderedSet, Record, Vector


class TestValueCodec:
    CASES = [
        None,
        True,
        42,
        3.5,
        "text",
        (1, 2, 3),
        # a set's repr follows the string-hash seed: pin its id
        pytest.param(frozenset({1, "a"}), id="frozenset({1, 'a'})"),
        Bag([1, 1, 2]),
        OrderedSet([3, 1, 2]),
        Record(a=1, b=(2, 3)),
        Vector.from_dense([0, 5, 0]),
        Record(nested=frozenset({Record(x=Bag(["y", "y"]))})),
    ]

    @pytest.mark.parametrize("value", CASES, ids=lambda c: repr(c)[:30])
    def test_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_json_compatible(self):
        import json

        for value in self.CASES:
            json.dumps(encode_value(value))

    def test_unknown_type_rejected(self):
        with pytest.raises(DatabaseError):
            encode_value(object())

    def test_unknown_tag_rejected(self):
        with pytest.raises(DatabaseError):
            decode_value({"$": "mystery"})


_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1000, 1000),
    st.text(alphabet="abcxyz", max_size=5),
)


def _values():
    return st.recursive(
        _scalar,
        lambda children: st.one_of(
            st.lists(children, max_size=4).map(tuple),
            st.lists(children, max_size=4).map(lambda xs: frozenset(xs)),
            st.lists(children, max_size=4).map(Bag),
            st.lists(children, max_size=4).map(OrderedSet),
            st.dictionaries(
                st.text(alphabet="abc", min_size=1, max_size=3), children, max_size=3
            ).map(Record),
        ),
        max_leaves=8,
    )


@settings(max_examples=80, deadline=None)
@given(value=_values())
def test_codec_round_trip_property(value):
    assert decode_value(encode_value(value)) == value


class TestDatabasePersistence:
    def test_save_load_round_trip(self, tmp_path):
        db = Database(travel_schema())
        db.load_extents(make_travel_agency(num_cities=3, seed=9))
        db.create_index("Cities", "name")
        path = tmp_path / "travel.json"
        save_database(db, path)

        restored = load_database(path, travel_schema())
        q = "select distinct h.name from c in Cities, h in c.hotels where h.stars >= 3"
        assert restored.run(q) == db.run(q)
        assert restored.catalog.index_keys() == {("Cities", "name")}

    def test_restored_queries_use_indexes(self, tmp_path):
        db = Database(travel_schema())
        db.load_extents(make_travel_agency(num_cities=3, seed=9))
        db.create_index("Cities", "name")
        path = tmp_path / "travel.json"
        save_database(db, path)
        restored = load_database(path, travel_schema())
        result = restored.run_detailed(
            "select distinct c.population from c in Cities where c.name = 'Portland'"
        )
        assert result.stats.index_probes == 1

    def test_dump_restore_without_files(self):
        db = Database()
        db.load_extent("Xs", [{"a": 1}, {"a": 2}], monoid="bag")
        restored = restore_database(dump_database(db))
        assert restored.run("count(Xs)") == 2

    def test_bad_format_rejected(self):
        with pytest.raises(DatabaseError):
            restore_database({"format": "something-else"})

    def test_bad_version_rejected(self):
        with pytest.raises(DatabaseError):
            restore_database({"format": "repro-db", "version": 99})
