"""One namespace: every name a query can mean has one kind, in the catalog.

A value extent, an object extent, a view and a registered function all
answer to a bare name, so a name may be only one of them. A registration
that would give a name a second kind raises a ``DatabaseError`` naming
it and changes nothing: not ``db.catalog.version``, not any answer. The
property at the end drives random registration sequences over a small
name pool and holds the algebra, the reference interpreter, the linter,
the typer and the translator to one meaning per name after every step.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db import Database, travel_schema
from repro.errors import DatabaseError, OQLSyntaxError, TypingError, WellFormednessError
from repro.types.schema import Schema
from repro.types.types import TINT


def city(name: str) -> dict:
    return {"name": name, "state": "OR", "population": 1, "hotel_count": 0, "hotels": []}


def outcome(db: Database, oql: str, engine: str = "auto") -> tuple:
    """``("value", v)`` or ``("error", class name)``: what ``oql`` answers."""
    try:
        return ("value", db.run(oql, engine=engine))
    except Exception as err:  # noqa: BLE001 - the error's class is the answer
        return ("error", type(err).__name__)


class TestRepros:
    def test_objects_over_a_value_extent_are_refused_and_the_engines_agree(self):
        db = Database(travel_schema(), cache=False)
        db.load_extent("Cities", [city("x")])
        with pytest.raises(DatabaseError, match="'Cities'"):
            db.load_objects("Cities", "City", [city("y")])
        db.create_index("Cities", "name")
        q = "select distinct c.name from c in Cities where c.name = 'x'"
        assert db.run(q) == db.run(q, engine="interpret") == frozenset({"x"})
        assert "IndexScan" in db.explain(q)

    def test_an_extent_named_like_a_view_is_refused(self):
        db = Database(travel_schema(), cache=False)
        db.load_extent("Cities", [city("x"), city("y")])
        db.define("V", "select distinct c from c in Cities where c.name = 'x'")
        with pytest.raises(DatabaseError, match="'V'"):
            db.load_extent("V", [city("z")])
        assert db.run("select distinct v.name from v in V") == frozenset({"x"})

    @pytest.mark.parametrize("extent, cls, rows, reason", [
        ("Towns", "City", [city("t")], "unknown extent 'Towns'"),
        ("Cities", "City", [city("c"), {"bogus": 1}], "unknown attributes for class City"),
        ("Cities", "Hotel", [{"name": "h"}], "Hotel is not its class City"),
    ], ids=["undeclared-extent", "bad-row", "wrong-class"])
    def test_objects_the_schema_refuses_change_nothing(self, extent, cls, rows, reason):
        """Before, an undeclared extent broke every later query (``count(Nums)``
        raised ``SchemaError``), and a bad row claimed the name anyway."""
        db = Database(travel_schema(), cache=True)
        db.load_extent("Nums", (1, 2, 3))
        with pytest.raises(DatabaseError, match=f"cannot load objects into '{extent}': {reason}"):
            db.load_objects(extent, cls, rows)
        assert db.catalog.version == 1 and db.catalog.names() == {"Nums"}
        assert db.run("count(Nums)") == 3 and len(db.store.snapshot()) == 0
        db.load_objects("Cities", "City", [city("c")])
        assert db.run("count(Cities)") == 1

    def test_each_object_row_is_checked_once(self, count_calls):
        """Before, ``register_objects`` checked every row and then
        ``ExtentRegistry.create`` checked it again."""
        from repro.objects.classes import check_attributes

        db = Database(travel_schema(), cache=False)
        checked = count_calls(check_attributes)
        db.load_objects("Cities", "City", [city(str(i)) for i in range(5)])
        assert len(checked) == 5 and db.run("count(Cities)") == 5

    def test_a_reload_an_index_cannot_take_changes_nothing(self):
        """Before, the reload claimed the rows and moved the version, then
        raised while rebuilding the index."""
        db = Database(cache=True)
        db.load_extent("Nums", [{"k": 1}])
        db.create_index("Nums", "k")
        version = db.catalog.version
        with pytest.raises(DatabaseError, match="index on Nums.k: element lacks the attribute"):
            db.load_extent("Nums", [{"j": 1}], replace=True)
        assert db.catalog.version == version and db.run("count(Nums)") == 1

    def test_an_index_on_an_empty_undeclared_extent_is_refused(self):
        """Before, it was kept, and every later reload with rows raised
        (no row has a field the index was never checked against)."""
        db = Database(cache=True)
        db.load_extent("B", [])
        with pytest.raises(DatabaseError, match="'B' is empty .* load rows first"):
            db.create_index("B", "nope")
        assert db.catalog.version == 1 and not db.catalog.index_keys()
        db.load_extent("B", [{"k": 1}], replace=True)
        assert db.run("count(B)") == 1

    def test_an_index_on_a_declared_extent_checks_the_class(self):
        """Empty or not, a declared extent's index field is the class's."""
        db = Database(travel_schema())
        db.load_extent("Cities", [])
        with pytest.raises(DatabaseError, match=r"cannot index Cities.nope: unknown attributes"):
            db.create_index("Cities", "nope")
        assert db.catalog.version == 1
        db.create_index("Cities", "name")
        db.load_extent("Cities", [city("c")], replace=True)
        assert db.run("count(select c from c in Cities where c.name = \"c\")") == 1

    def test_an_index_on_an_object_extent_says_why_it_is_refused(self):
        db = Database(travel_schema())
        db.load_objects("Cities", "City", [city("c")])
        refused = "object extent 'Cities': indexes are value-extent only"
        with pytest.raises(DatabaseError, match=refused):
            db.create_index("Cities", "name")
        with pytest.raises(DatabaseError, match="unknown extent 'Hotels'"):
            db.create_index("Hotels", "name")


#: one registration of each kind, under ``name``
REGISTER = {
    "extent": lambda db, name: db.load_extent(name, [city("v")]),
    "object extent": lambda db, name: db.load_objects(name, "City", [city("o")]),
    "view": lambda db, name: db.define(name, "select distinct n from n in Nums"),
    "function": lambda db, name: db.register_function(name, lambda x: x),
}


@pytest.mark.parametrize("first, second", list(itertools.permutations(REGISTER, 2)))
def test_a_second_kind_is_refused_and_changes_nothing(first, second):
    db = Database(travel_schema(), cache=True)
    db.load_extent("Nums", (1, 2, 3))
    REGISTER[first](db, "Cities")
    version = db.catalog.version
    queries = ["count(Cities)", "select distinct c.name from c in Cities", "Cities(1)"]
    before = [outcome(db, q, engine) for q in queries for engine in ("auto", "interpret")]
    with pytest.raises(DatabaseError, match=f"cannot register {second} 'Cities'"):
        REGISTER[second](db, "Cities")
    assert db.catalog.version == version
    assert [outcome(db, q, engine) for q in queries for engine in ("auto", "interpret")] == before


# -- the property --------------------------------------------------------------

#: ``A`` and ``B`` are class extents the schema declares, ``C`` is not
POOL = ("A", "B", "C")


def pool_schema() -> Schema:
    schema = Schema()
    schema.define_class("ItemA", {"k": TINT}, extent="A")
    schema.define_class("ItemB", {"k": TINT}, extent="B")
    return schema


ROWS = st.lists(st.integers(0, 3), max_size=4).map(lambda ks: [{"k": k} for k in ks])

#: object rows, some with an attribute no class declares
OBJECT_ROWS = st.one_of(ROWS, st.builds(lambda rows, i: rows[:i] + [{"bogus": 1}] + rows[i:],
                                        ROWS, st.integers(0, 4)))

#: a view body that does not parse
BROKEN_VIEW = "select distinct x from x in"

STEPS = st.one_of(
    # ``vec`` is no extent monoid
    st.tuples(st.just("extent"), st.sampled_from(POOL), ROWS, st.booleans(),
              st.sampled_from(["set", "vec"])),
    # the schema refuses ``C`` (no class declares it), a class that is not
    # the extent's and a bogus row
    st.tuples(st.just("object extent"), st.sampled_from(POOL),
              st.sampled_from(["ItemA", "ItemB"]), OBJECT_ROWS),
    # a view over a pool name, or one that does not parse (None)
    st.tuples(st.just("view"), st.sampled_from(POOL), st.sampled_from([*POOL, None])),
    st.tuples(st.just("function"), st.sampled_from(POOL)),
    # no class and no row has a ``nope`` field
    st.tuples(st.just("index"), st.sampled_from(POOL), st.sampled_from(["k", "nope"])),
)


def apply(db: Database, step: tuple) -> None:
    kind, name = step[0], step[1]
    if kind == "extent":
        db.load_extent(name, step[2], monoid=step[4], replace=step[3])
    elif kind == "object extent":
        db.load_objects(name, step[2], step[3])
    elif kind == "view":
        source = step[2]
        db.define(name, f"select distinct x from x in {source} where x.k > 0"
                  if source else BROKEN_VIEW)
    elif kind == "function":
        db.register_function(name, lambda x: x)
    else:
        db.create_index(name, step[2])


def accepted(kinds: dict[str, str], filled: set[str], step: tuple) -> bool:
    """Whether the one-namespace rule lets ``step`` register; ``filled``
    names the value extents holding a row. An index's field is checked
    against the class when the schema declares the extent, else against
    the rows, so an empty undeclared extent takes no index — and no
    reload is ever refused for an index's sake."""
    kind, name = step[0], step[1]
    held = kinds.get(name)
    if kind == "index":
        return held == "extent" and step[2] == "k" and (name != "C" or name in filled)
    if kind == "object extent" and (step[2] != "Item" + name or any("bogus" in r for r in step[3])):
        return False
    if kind == "view" and step[2] is None:
        return False
    if kind == "extent" and step[4] == "vec":
        return False
    if kind == "extent" and held == "extent":
        return step[3]  # a reload needs replace=True
    return held in (None, kind)


#: the lint codes of a static type error, which ``typecheck=True`` raises
STATIC = {"QL001", "QL002", "QL003", "QL006"}


def typecheck_raises(db: Database, oql: str) -> bool:
    try:
        db.compile(oql, typecheck=True)
    except (TypingError, WellFormednessError):
        return True
    return False


def answers(db: Database, steps: list) -> list:
    """Every pool query's answer, the same on the algebra and the
    reference interpreter; whether the linter knows each name (a
    function is called, never a value); and one typing of each name
    that is no view (a view is linted as a name, its body typed where
    it is expanded): ``typecheck=True`` raises a static type error
    exactly when lint reports one, and ``sort`` is ``sorted`` over an
    extent — all sets here — whether declared or loaded."""
    catalog = db.catalog
    # the schema declares A and B, extents unless another kind holds them
    extents = catalog.extent_names() | ({"A", "B"} - catalog.names())
    known = extents | set(catalog.views)
    out = []
    for name in POOL:
        for oql in (f"count({name})", f"select distinct x.k from x in {name} where x.k = 1"):
            out.append(outcome(db, oql))
            assert out[-1] == outcome(db, oql, "interpret"), (oql, steps)
            if name not in catalog.views:
                static = bool(STATIC & {d.code for d in db.lint(oql)})
                assert typecheck_raises(db, oql) == static, (oql, steps)
        unbound = any(d.code == "QL003" for d in db.lint(f"count({name})"))
        assert unbound == (name not in known), (name, steps)
        if name not in catalog.views:
            sort = db.translate(f"sort x in {name} by x.k").monoid.name
            assert sort == ("sorted" if name in extents else "sortedbag"), (name, steps)
    return out


@given(steps=st.lists(STEPS, max_size=8), cache=st.booleans())
def test_every_way_of_answering_reads_one_meaning_per_name(steps, cache):
    """A refused step — a second kind, a reload without ``replace``, an
    index on no value extent, on a field its class or its rows lack or on
    an empty extent no class declares, objects the schema refuses, an
    extent monoid that is none, a view that does not parse — changes
    nothing: not the version, not the names, not an answer."""
    db = Database(pool_schema(), cache=cache)
    kinds: dict[str, str] = {}
    filled: set[str] = set()
    before = answers(db, steps)
    for step in steps:
        version, names = db.catalog.version, db.catalog.names()
        if accepted(kinds, filled, step):
            apply(db, step)
            if step[0] != "index":
                kinds[step[1]] = step[0]
            if step[0] == "extent":
                (filled.add if step[2] else filled.discard)(step[1])
            assert db.catalog.version > version
        else:
            broken = step[0] == "view" and step[2] is None
            with pytest.raises(OQLSyntaxError if broken else DatabaseError):
                apply(db, step)
            assert (db.catalog.version, db.catalog.names()) == (version, names)
        after = answers(db, steps)
        assert set(kinds) == db.catalog.names()
        if db.catalog.version == version:
            assert after == before, (step, steps)
        before = after
