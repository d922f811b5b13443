"""Unit tests for the Record value."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EvaluationError
from repro.jit.runtime import _agree
from repro.values import Bag, Record


def test_field_access_by_key():
    r = Record(name="Portland", population=500)
    assert r["name"] == "Portland"
    assert r["population"] == 500


def test_field_access_by_attribute():
    r = Record(name="Portland")
    assert r.name == "Portland"


def test_missing_field_raises_evaluation_error():
    r = Record(a=1)
    with pytest.raises(EvaluationError, match="no field 'b'"):
        r["b"]


def test_missing_attribute_raises_attribute_error():
    r = Record(a=1)
    with pytest.raises(AttributeError):
        r.b


def test_equality_is_order_insensitive():
    assert Record(a=1, b=2) == Record(b=2, a=1)


def test_inequality_on_values():
    assert Record(a=1) != Record(a=2)


def test_not_equal_to_plain_dict():
    assert Record(a=1) != {"a": 1}


def test_hash_consistent_with_equality():
    assert hash(Record(a=1, b=2)) == hash(Record(b=2, a=1))
    assert len({Record(a=1), Record(a=1)}) == 1


def test_records_nest_in_sets():
    s = frozenset({Record(x=1), Record(x=2)})
    assert Record(x=1) in s


def test_immutability():
    r = Record(a=1)
    with pytest.raises(AttributeError):
        r.a = 2


def test_replace_creates_new_record():
    r = Record(a=1, b=2)
    r2 = r.replace(b=3)
    assert r2 == Record(a=1, b=3)
    assert r == Record(a=1, b=2)


def test_replace_unknown_field_raises():
    with pytest.raises(EvaluationError, match="no field 'c'"):
        Record(a=1).replace(c=9)


def test_with_field_adds_and_overwrites():
    r = Record(a=1)
    assert r.with_field("b", 2) == Record(a=1, b=2)
    assert r.with_field("a", 9) == Record(a=9)


def test_fields_preserve_declaration_order():
    assert Record(z=1, a=2).fields() == ("z", "a")


def test_mapping_protocol():
    r = Record(a=1, b=2)
    assert len(r) == 2
    assert set(r) == {"a", "b"}
    assert dict(r) == {"a": 1, "b": 2}


def test_repr_shows_fields():
    assert repr(Record(a=1)) == "<a=1>"


def test_record_from_mapping():
    r = Record({"x": 1}, y=2)
    assert r.x == 1 and r.y == 2


# -- the contract. Written against the Mapping-backed class of PR 23 and green
# there; since tightened in three places only a dict subclass has to answer:
# ``is False`` / ``is True`` against a plain dict, the one mutator message, the
# shape of ``__reduce__``.

def test_not_equal_to_plain_dict_in_either_direction():
    r, d = Record(a=1), {"a": 1}
    assert (r == d) is False and (d == r) is False
    assert (r != d) is True and (d != r) is True
    assert r in [Record(a=1)] and r not in [d] and d not in [r]
    assert Record() != {} and {} != Record()
    assert r != (("a", 1),) and r != None  # noqa: E711


def test_hash_is_order_insensitive_and_stable():
    r = Record(a=1, b=(2, 3), c="x")
    assert hash(r) == hash(r) == hash(Record(c="x", b=(2, 3), a=1))
    assert hash(Record()) == hash(Record())


def test_missing_field_error_text():
    with pytest.raises(EvaluationError) as err:
        Record(a=1, b=2)["c"]
    assert str(err.value) == "record has no field 'c' (fields: a, b)"


def test_missing_attribute_error_text():
    with pytest.raises(AttributeError) as err:
        Record(a=1, b=2).c
    assert str(err.value) == "record has no field 'c' (fields: a, b)"
    with pytest.raises(AttributeError):
        Record(a=1)._private


_MUTATIONS = {
    "setitem": lambda r: r.__setitem__("a", 9),
    "setitem_new": lambda r: r.__setitem__("z", 9),
    "delitem": lambda r: r.__delitem__("a"),
    "update": lambda r: r.update({"a": 9}),
    "update_kw": lambda r: r.update(a=9),
    "pop": lambda r: r.pop("a"),
    "pop_default": lambda r: r.pop("z", None),
    "popitem": lambda r: r.popitem(),
    "clear": lambda r: r.clear(),
    "setdefault": lambda r: r.setdefault("z", 9),
    "setdefault_present": lambda r: r.setdefault("a", 9),
    "ior": lambda r: r.__ior__({"a": 9}),
    "setattr": lambda r: setattr(r, "a", 9),
    "setattr_new": lambda r: setattr(r, "z", 9),
    "delattr": lambda r: delattr(r, "a"),
    "object_setattr": lambda r: object.__setattr__(r, "a", 9),
}


@pytest.mark.parametrize("name", sorted(_MUTATIONS))
def test_immutable_through_every_mutator(name):
    r = Record(a=1, b=2)
    h = hash(r)
    with pytest.raises(AttributeError) as err:
        _MUTATIONS[name](r)
    if name != "object_setattr":  # that one never reaches the class: no ``__dict__``
        assert str(err.value) == "Record is immutable"
    assert r == Record(a=1, b=2) and r.fields() == ("a", "b")
    assert hash(r) == h and r["a"] == 1


def test_subscript_assignment_and_deletion_statements():
    r = Record(a=1)
    with pytest.raises((AttributeError, TypeError)):
        r["a"] = 2
    with pytest.raises((AttributeError, TypeError)):
        del r["a"]
    with pytest.raises((AttributeError, TypeError)):
        r |= {"a": 2}
    assert r == Record(a=1)


def test_len_in_and_iteration_order():
    r = Record(z=1, a=2, m=3)
    assert len(r) == 3 and len(Record()) == 0
    assert "a" in r and "q" not in r and 1 not in r
    assert list(r) == ["z", "a", "m"] == list(r.keys())
    assert list(r.values()) == [1, 2, 3]
    assert list(r.items()) == [("z", 1), ("a", 2), ("m", 3)]
    assert r.get("a") == 2 and r.get("m", 7) == 3
    assert bool(r) and not bool(Record())


def test_replace_with_field_and_fields_leave_the_original():
    r = Record(a=1, b=2)
    assert r.replace() == r
    assert r.replace(a=5, b=6).fields() == ("a", "b")
    assert r.with_field("c", 3).fields() == ("a", "b", "c")
    assert type(r.replace(a=5)) is Record and type(r.with_field("c", 3)) is Record
    with pytest.raises(EvaluationError) as err:
        r.replace(c=1)
    assert str(err.value) == "record has no field 'c' to replace"
    assert r == Record(a=1, b=2) and r.fields() == ("a", "b")


def test_construction_forms():
    assert Record() == Record({}) and Record().fields() == ()
    assert Record({"a": 1}, a=2) == Record(a=2)
    assert Record([("a", 1), ("b", 2)]) == Record(a=1, b=2)
    assert Record(Record(a=1), b=2) == Record(a=1, b=2)
    source = {"a": 1}
    r = Record(source)
    source["a"] = 2
    assert r["a"] == 1


def test_nested_three_deep_in_sets_and_bags():
    def leaf(n):
        return Record(n=n, tags=frozenset({Record(t="x"), Record(t=str(n))}))

    def mid(n):
        return Record(id=n, kids=Bag([leaf(n), leaf(n), leaf(n + 1)]))

    top = Bag([Record(m=mid(1)), Record(m=mid(1)), Record(m=mid(2))])
    assert top.count(Record(m=mid(1))) == 2 and len(top) == 3
    assert Record(m=mid(2)) in frozenset(top.distinct())
    assert top == Bag([Record(m=mid(2)), Record(m=mid(1)), Record(m=mid(1))])
    assert hash(top) == hash(Bag(list(top)))
    inner = next(iter(top))["m"]["kids"]
    assert inner.count(leaf(1)) == 2
    assert Record(t="x") in next(iter(inner))["tags"]


def test_agree_treats_nan_fields_as_equal():
    def nan():
        return float("nan")  # a fresh object: ``==`` on fields short-cuts on identity

    assert Record(a=nan()) != Record(a=nan())
    assert _agree(Record(a=nan(), b=1), Record(b=1, a=nan()))
    assert _agree(Record(a=Record(x=nan())), Record(a=Record(x=nan())))
    assert _agree(Record(a=(1, nan())), Record(a=(1, nan())))
    assert not _agree(Record(a=nan()), Record(a=1.0))
    assert not _agree(Record(a=nan()), Record(b=nan()))
    assert not _agree(Record(a=nan()), Record(a=nan(), b=1))
    assert not _agree(Record(a=1), {"a": 1})


def test_copy_and_pickle_round_trip():
    r = Record(a=1, b=Record(c=(2, 3)), s=frozenset({4}))
    assert r._hash is None and hash(r) == r._hash
    for clone in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r)),
                  r.replace(a=1), r.with_field("a", 1), Record(r)):
        assert clone._hash is None  # the cached hash is never carried
        assert type(clone) is Record and clone == r and hash(clone) == hash(r)
        assert clone.fields() == r.fields() and type(clone["b"]) is Record
    rebuild, (fields,) = r.__reduce__()
    assert rebuild is Record and type(fields) is dict and fields == dict(r)


_FIELD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.text("ab", max_size=2),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.frozensets(st.integers(0, 3), max_size=3),
)
_FIELD_MAPS = st.dictionaries(
    st.text("abcdefgh_", min_size=1, max_size=3).filter(lambda s: s[0] != "_"),
    _FIELD_VALUES, max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(fields=_FIELD_MAPS, probe=st.text("abcdefgh_", min_size=1, max_size=3), seed=st.randoms())
def test_reads_agree_with_a_plain_dict_model(fields, probe, seed):
    r = Record(fields)
    assert len(r) == len(fields) and bool(r) == bool(fields)
    assert list(r) == list(fields) == list(r.keys()) and r.fields() == tuple(fields)
    assert list(r.values()) == list(fields.values())
    assert list(r.items()) == list(fields.items())
    assert dict(r) == fields and {**r} == fields
    for key in [*fields, probe]:
        assert (key in r) == (key in fields)
        if key in fields:
            assert r[key] == fields[key] == r.get(key) == r.get(key, r)
        else:
            with pytest.raises(EvaluationError):
                r[key]
    shuffled = list(fields.items())
    seed.shuffle(shuffled)
    other = Record(shuffled)
    assert r == other and not (r != other) and hash(r) == hash(other)
    assert r != fields and fields != r  # never equal to the model itself
    assert r.with_field(probe, 0) == Record({**fields, probe: 0})


# -- a record is a dict subclass: it must not leak a mutable dict or equal one --


def test_dict_only_mutators_and_copies_are_closed():
    r = Record(a=1)
    for attempt in (
        lambda: r | {"b": 2},
        lambda: r | Record(b=2),
        lambda: r.__ior__({"b": 2}),
        lambda: Record.fromkeys("ab"),
        lambda: r.fromkeys("ab", 0),
    ):
        with pytest.raises(AttributeError, match="^Record is immutable$"):
            attempt()
    assert r.copy() is r
    assert type({} | r) is dict and type(dict(r)) is dict  # a plain copy leaks nothing
    assert r == Record(a=1) and r.fields() == ("a",)


def test_missing_field_reads_do_not_raise_through_get():
    assert Record(a=1).get("q") is None and Record(a=1).get("q", 7) == 7


def test_fields_named_like_dict_methods_answer_on_every_engine():
    from repro import Database
    from repro.jit import fused

    rows = [Record(copy=1, pop="x", update=2.5), Record(copy=2, pop="y", update=0.5)]
    oql = "select struct(c: r.copy, p: r.pop, u: r.update) from r in Rows"
    expected = Bag([Record(c=1, p="x", u=2.5), Record(c=2, p="y", u=0.5)])
    db = Database(cache=False, parallel=False, telemetry=False)
    db.load_extents({"Rows": Bag(rows)})
    assert db.run(oql, engine="interpret") == expected  # the reference evaluator
    assert db.run(oql) == expected  # the operator loops: a first sighting
    assert fused(db.compile(oql).plan) is not None
    assert db.run_detailed(oql).jit is not None  # the generated function
    assert db.run(oql) == expected
    db.profile(True)
    assert db.run_detailed(oql).value == expected  # traced
    assert rows[0]["copy"] == 1 and rows[0].copy() is rows[0]  # attribute access is shadowed


def test_record_is_tested_before_dict_where_values_are_converted():
    from repro.db.database import _to_record
    from repro.eval.evaluator import _freeze_const
    from repro.values import to_python

    inner = Record(c=(1, 2))
    r = Record(a=1, b=inner)
    assert _freeze_const(r) is r and _to_record(r) is r  # not re-wrapped field by field
    frozen = _freeze_const({"a": [1, {2}], "b": r})
    assert type(frozen) is Record and frozen["a"] == (1, frozenset({2})) and frozen["b"] is r
    assert _to_record({"a": {"b": [1]}}) == Record(a=Record(b=(1,)))
    assert to_python(r) == {"a": 1, "b": {"c": [1, 2]}} and type(to_python(r)) is dict
    assert type(to_python(r)["b"]) is dict
    # a record inside a set displays as it did: its sorted (field, value) pairs
    assert to_python(frozenset({Record(b=2, a=1)})) == {(("a", 1), ("b", 2))}
