"""A cached result is guarded by the object fields its plan reads.

A write of one attribute (``c.hotel_count += 1``, ``h.stars := 5``)
stamps only that field in the object store, so a stored value whose
plan never projects it is still served. Anything else (a whole-state
``store.assign``, ``registry.create`` / ``remove``) evicts every stored
value. The property drives a cached database and an uncached twin
through random interleavings of all of these and compares every read
after every step; the exact tests pin which reads hit and which miss.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.invalidation import analyze_dependencies
from repro.calculus import const, eq, proj, var
from repro.calculus.ast import Comprehension, Deref, Generator, MonoidRef, Proj, Var
from repro.db.database import Database
from repro.db.sample_data import travel_schema
from repro.errors import ReproError
from repro.objects import ObjectStore, add_to_field, run_update, set_field, update_where
from repro.values import to_python

N_CITIES = 4
HOTELS_PER_CITY = 2

READS = (
    "select distinct c.name from c in Cities",
    "select distinct c.state from c in Cities",
    "sum(select c.population from c in Cities)",
    "sum(select c.hotel_count from c in Cities)",
    "select distinct h.stars from c in Cities, h in c.hotels",
    "sum(select h.stars from c in Cities, h in c.hotels)",
    "select distinct h.name from c in Cities, h in c.hotels where h.stars >= 3",
    "select distinct struct(n: c.name, k: count(c.hotels)) from c in Cities",
    "count(Cities)",
)
PREPARED = "select distinct c.name from c in Cities where c.population > $p"
HOTEL_COUNT = "sum(select c.hotel_count from c in Cities)"
STARS = "select distinct h.stars from c in Cities, h in c.hotels"


def _db(cache: bool) -> Database:
    """Object-mode Cities whose hotels are Hotel objects of their own."""
    db = Database(travel_schema(), cache=cache)
    rows = []
    for i in range(N_CITIES):
        hotels = frozenset(
            db.registry.create("Hotel", {"name": f"H{i}.{j}", "stars": (i + j) % 5 + 1})
            for j in range(HOTELS_PER_CITY)
        )
        rows.append({
            "name": f"C{i}", "state": "OR" if i % 2 else "WA", "population": 1000 * (i + 1),
            "hotels": hotels, "hotel_count": len(hotels),
        })
    db.load_objects("Cities", "City", rows)
    return db


def _outcome(run) -> tuple:
    try:
        return ("value", to_python(run()))
    except ReproError as err:
        return ("error", type(err).__name__, str(err))


def _city(db: Database, i: int):
    cities = db.registry.extent("Cities")
    return cities[i % len(cities)] if cities else None


# -- the steps: each one applied to a database ---------------------------------------

def _update(field: str, op: str, value, who: int | None):
    def step(db: Database) -> None:
        where = None if who is None else eq(proj(var("c"), "name"), const(f"C{who}"))
        make = add_to_field if op == "+=" else set_field
        run_update(update_where("Cities", "c", where, [make(field, value(db))]), db.evaluator())
    return step


def _hotel_update(field: str, op: str, value, i: int):
    def step(db: Database) -> None:
        city = _city(db, i)
        if city is not None:
            for hotel in db.store.deref(city)["hotels"]:
                db.evaluator().apply_update(hotel, field, op, value)
    return step


def _assign(field: str, value, i: int):
    """A whole-state ``:=`` (the paper's ``e := s``) that changes one field."""
    def step(db: Database) -> None:
        city = _city(db, i)
        if city is not None:
            db.store.assign(city, db.store.deref(city).with_field(field, value))
    return step


def _create(i: int):
    def step(db: Database) -> None:
        db.registry.create("City", {
            "name": f"N{i}", "state": "CA", "population": 500 * i, "hotels": frozenset(),
            "hotel_count": i,
        })
    return step


def _remove(i: int):
    def step(db: Database) -> None:
        city = _city(db, i)
        if city is not None:
            db.registry.remove(city)
    return step


def _some_hotels(db: Database):
    city = _city(db, 0)
    return frozenset() if city is None else db.store.deref(city)["hotels"]


_WHO = st.one_of(st.none(), st.integers(0, N_CITIES))
_CITY_UPDATES = st.one_of(
    st.builds(lambda v, w: _update("name", ":=", lambda db: const(v), w), st.sampled_from(["A", "B"]), _WHO),
    st.builds(lambda w: _update("name", "+=", lambda db: const("x"), w), _WHO),
    st.builds(lambda v, w: _update("state", ":=", lambda db: const(v), w), st.sampled_from(["OR", "ID"]), _WHO),
    st.builds(lambda k, op, w: _update("population", op, lambda db: const(k), w),
              st.integers(0, 3000), st.sampled_from(["+=", ":="]), _WHO),
    st.builds(lambda k, op, w: _update("hotel_count", op, lambda db: const(k), w),
              st.integers(-1, 3), st.sampled_from(["+=", ":="]), _WHO),
    st.builds(lambda w: _update("hotels", ":=", lambda db: const(frozenset()), w), _WHO),
    st.builds(lambda w: _update("hotels", "+=", lambda db: const(_some_hotels(db)), w), _WHO),
)
_STEPS = st.one_of(
    _CITY_UPDATES,
    st.builds(lambda k, op, i: _hotel_update("stars", op, k, i),
              st.integers(0, 5), st.sampled_from(["+=", ":="]), st.integers(0, N_CITIES)),
    st.builds(lambda v, i: _hotel_update("name", ":=", v, i), st.sampled_from(["P", "Q"]), st.integers(0, N_CITIES)),
    st.builds(_assign, st.sampled_from(["hotel_count", "population"]), st.integers(0, 9), st.integers(0, N_CITIES)),
    st.builds(lambda v, i: _assign("name", v, i), st.sampled_from(["A", "Z"]), st.integers(0, N_CITIES)),
    st.builds(_create, st.integers(1, 9)),
    st.builds(_remove, st.integers(0, N_CITIES)),
)


@given(st.lists(_STEPS, max_size=8), st.sampled_from([0, 1500, 2500, 4000]))
def test_a_cached_database_answers_as_its_uncached_twin(steps, p):
    cached, plain = _db(True), _db(False)
    prepared = {db: db.prepare(PREPARED) for db in (cached, plain)}

    def agree() -> None:
        for oql in READS:
            assert _outcome(lambda q=oql: cached.run(q)) == _outcome(lambda q=oql: plain.run(q)), oql
        assert _outcome(lambda: prepared[cached].run(p=p)) == _outcome(lambda: prepared[plain].run(p=p))

    agree()
    for step in steps:
        assert _outcome(lambda s=step: s(cached)) == _outcome(lambda s=step: s(plain))
        agree()
        agree()  # the repeats: hits wherever the step wrote nothing read


# -- which reads a write evicts --------------------------------------------------------

def _outcomes(db: Database, *queries: str) -> list[str]:
    return [db.run_detailed(oql).cache["result"] for oql in queries]


def test_a_field_write_evicts_only_the_reads_of_that_field():
    db = _db(True)
    assert _outcomes(db, STARS, HOTEL_COUNT) == ["miss", "miss"]
    assert _outcomes(db, STARS, HOTEL_COUNT) == ["hit", "hit"]
    _update("hotel_count", "+=", lambda db: const(1), None)(db)
    assert _outcomes(db, STARS, HOTEL_COUNT) == ["hit", "miss"]
    _hotel_update("stars", ":=", 5, 0)(db)
    assert _outcomes(db, STARS, HOTEL_COUNT) == ["miss", "hit"]


@pytest.mark.parametrize("write", [
    _assign("hotel_count", 7, 0),  # one field changes, but through a whole-state :=
    _create(3),
    _remove(0),
    lambda db: db.store.touch(),
], ids=["store.assign", "registry.create", "registry.remove", "touch"])
def test_a_structural_write_evicts_every_read(write):
    db = _db(True)
    _outcomes(db, STARS, HOTEL_COUNT)
    write(db)
    assert _outcomes(db, STARS, HOTEL_COUNT) == ["miss", "miss"]
    assert _outcomes(db, STARS, HOTEL_COUNT) == ["hit", "hit"]


def test_a_prepared_read_keeps_its_value_across_writes_it_does_not_read():
    db = _db(True)
    statement = db.prepare(PREPARED)
    first = statement.run_detailed(p=1500)
    _update("hotel_count", "+=", lambda db: const(1), None)(db)
    again = statement.run_detailed(p=1500)
    assert again.cache["result"] == "hit" and again.value == first.value
    _update("population", "+=", lambda db: const(1000), 0)(db)
    after = statement.run_detailed(p=1500)
    assert after.cache["result"] == "miss"
    assert to_python(after.value) == to_python(_db(False).prepare(PREPARED).run(p=1500)) | {"C0"}


# -- what the analysis reads ---------------------------------------------------------

def _dependencies(term):
    return analyze_dependencies(None, term, ["Cities"], [])


def test_the_read_set_is_every_projected_name():
    db = _db(True)
    entry = db.compile(STARS)
    deps = analyze_dependencies(entry.plan, entry.normalized, ["Cities"], [])
    assert deps.cacheable and deps.reads == frozenset({"hotels", "stars"})
    assert _dependencies(Var("Cities")).reads == frozenset()


def test_an_explicit_dereference_reads_the_whole_heap():
    term = Comprehension(MonoidRef("bag"), Proj(Deref(Var("c")), "name"), (Generator("c", Var("Cities")),))
    deps = _dependencies(term)
    assert deps.cacheable and deps.reads is None
    store = ObjectStore()
    obj = store.new(None)
    store.assign(obj, 1, "f")
    assert store.guard(None) == store.version == 2
    assert store.guard(()) == 1 and store.guard(["f"]) == 2 and store.guard(["g"]) == 1


def test_compile_derives_the_verdict_before_any_run():
    entry = _db(True).compile(STARS)
    assert entry.deps.cacheable and entry.deps.reads == {"hotels", "stars"}
    assert _db(False).compile(STARS).deps is None  # no cache: never computed


def test_explain_prints_the_verdict_with_a_result_cache():
    db = _db(True)
    assert "result cache: reads hotels, stars" in db.explain(STARS).splitlines()
    assert "result cache: reads no field" in db.explain("count(Cities)").splitlines()
    off = db.explain("select c.name from c in Cities where c.has_luxury()")
    assert "result cache: off, method call 'has_luxury' (arbitrary Python)" in off.splitlines()
    assert db.explain_data(STARS, analyze=True)["result_cache"] == {"reads": ["hotels", "stars"]}
    assert "result_cache" not in _db(False).explain_data(STARS)
