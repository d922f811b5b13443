"""The result cache never serves a stale answer.

Every mutation path the object layer offers — update programs
(``set_field`` / ``add_to_field`` / ``update_where``), direct registry
creates and removes, store-level assigns and deletes, extent reloads,
index creation — runs against a warm cache, and the cached database is
asserted value-equal to an uncached twin after every step (the
property-style suite drives a seeded random interleaving of the lot).
"""

import random

import pytest

from repro.calculus import const, eq, gt, proj, var
from repro.db.database import Database
from repro.db.sample_data import travel_schema
from repro.objects import add_to_field, run_update, set_field, update_where
from repro.values import to_python

QUERIES = (
    "select distinct c.name from c in Cities",
    "sum(select c.hotel_count from c in Cities)",
    "select distinct c.name from c in Cities where c.hotel_count > 2",
    "count(Cities)",
)


def _rows(n):
    return [
        {"name": f"C{i}", "hotels": set(), "hotel_count": i % 4,
         "population": 1000 * (i + 1), "state": "OR" if i % 2 else "WA"}
        for i in range(n)
    ]


def _object_db(n=8):
    db = Database(travel_schema())
    db.load_objects("Cities", "City", _rows(n))
    return db


def _twin_pair(n=8):
    plain = _object_db(n)
    cached = _object_db(n)
    cached.enable_cache()
    return plain, cached


def _assert_agree(plain, cached):
    for oql in QUERIES:
        assert to_python(cached.run(oql)) == to_python(plain.run(oql)), oql


class TestUpdatePrograms:
    def test_add_to_field_invalidates(self):
        plain, cached = _twin_pair()
        _assert_agree(plain, cached)  # cold
        _assert_agree(plain, cached)  # warm (result hits)
        program = update_where(
            "Cities", "c", gt(proj(var("c"), "population"), const(3000)),
            [add_to_field("hotel_count", const(10))],
        )
        run_update(program, plain.evaluator())
        run_update(program, cached.evaluator())
        _assert_agree(plain, cached)
        assert cached.cache.stats.invalidations > 0

    def test_set_field_invalidates(self):
        plain, cached = _twin_pair()
        _assert_agree(plain, cached)
        program = update_where(
            "Cities", "c", eq(proj(var("c"), "name"), const("C0")),
            [set_field("name", const("Renamed"))],
        )
        run_update(program, plain.evaluator())
        run_update(program, cached.evaluator())
        _assert_agree(plain, cached)
        assert "Renamed" in to_python(cached.run(QUERIES[0]))

    def test_invalidation_storm(self):
        """Experiment C1's storm: a mutation before every query, so every
        query finds its entry invalidated and none is ever stale."""
        db = _object_db(20)
        db.enable_cache()
        program = update_where("Cities", "c", None, [add_to_field("hotel_count", const(1))])
        query = "sum(select c.hotel_count from c in Cities)"
        base = db.run(query)
        for rounds in range(1, 6):
            run_update(program, db.evaluator())
            assert db.run(query) == base + 20 * rounds
        stats = db.cache.stats_dict()
        assert stats["invalidations"] > 0 and stats["result_hits"] == 0


class TestDirectStoreMutations:
    def test_registry_create_invalidates(self):
        plain, cached = _twin_pair()
        _assert_agree(plain, cached)
        attrs = {"name": "New", "hotels": set(), "hotel_count": 9,
                 "population": 1, "state": "OR"}
        plain.registry.create("City", dict(attrs))
        cached.registry.create("City", dict(attrs))
        _assert_agree(plain, cached)
        assert "New" in to_python(cached.run(QUERIES[0]))

    def test_registry_remove_invalidates(self):
        plain, cached = _twin_pair()
        _assert_agree(plain, cached)
        def remove_named(db, name):
            for obj in db.registry.extent("Cities"):
                if db.store.deref(obj)["name"] == name:
                    db.registry.remove(obj)
                    return

        remove_named(plain, "C3")
        remove_named(cached, "C3")
        _assert_agree(plain, cached)
        assert "C3" not in to_python(cached.run(QUERIES[0]))

    def test_store_assign_invalidates(self):
        plain, cached = _twin_pair()
        _assert_agree(plain, cached)
        for db in (plain, cached):
            obj = next(iter(db.registry.extent("Cities")))
            state = db.store.deref(obj)
            db.store.assign(obj, state.with_field("hotel_count", 99))
        _assert_agree(plain, cached)


class TestCatalogChanges:
    def test_load_extents_replace_invalidates(self):
        def fresh():
            db = Database(travel_schema())
            db.load_extents({"Ns": [1, 2, 3]})
            return db

        plain, cached = fresh(), fresh()
        cached.enable_cache()
        q = "sum(select n from n in Ns)"
        assert cached.run(q) == plain.run(q) == 6
        assert cached.run(q) == 6  # warm
        for db in (plain, cached):
            db.load_extents({"Ns": [10, 20]}, replace=True)
        assert cached.run(q) == plain.run(q) == 30

    def test_create_index_recompiles(self):
        def fresh():
            db = Database(travel_schema())
            db.load_extents(
                {"Rs": [{"k": i % 3, "v": i} for i in range(9)]}
            )
            return db

        plain, cached = fresh(), fresh()
        cached.enable_cache()
        q = "select distinct r.v from r in Rs where r.k = 1"
        assert cached.run(q) == plain.run(q)
        for db in (plain, cached):
            db.create_index("Rs", "k")
        # compile version moved: entry recompiles (now index-aware)
        assert cached.run(q) == plain.run(q)
        assert cached.cache.stats.invalidations >= 0


class TestPropertyStyleInterleaving:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_mutation_query_interleaving(self, seed):
        rng = random.Random(seed)
        plain, cached = _twin_pair(10)

        def mutate_add():
            threshold = rng.choice([2000, 5000, 8000])
            program = update_where(
                "Cities", "c", gt(proj(var("c"), "population"), const(threshold)),
                [add_to_field("hotel_count", const(1))],
            )
            run_update(program, plain.evaluator())
            run_update(program, cached.evaluator())

        def mutate_set():
            name = f"C{rng.randrange(10)}"
            program = update_where(
                "Cities", "c", eq(proj(var("c"), "name"), const(name)),
                [set_field("state", const(rng.choice(["OR", "WA", "CA"])))],
            )
            run_update(program, plain.evaluator())
            run_update(program, cached.evaluator())

        def create():
            attrs = {"name": f"X{rng.randrange(1000)}", "hotels": set(),
                     "hotel_count": rng.randrange(5),
                     "population": rng.randrange(10000), "state": "OR"}
            plain.registry.create("City", dict(attrs))
            cached.registry.create("City", dict(attrs))

        def query():
            oql = rng.choice(QUERIES)
            assert to_python(cached.run(oql)) == to_python(plain.run(oql)), oql

        ops = [mutate_add, mutate_set, create, query, query, query]
        for _ in range(40):
            rng.choice(ops)()
        _assert_agree(plain, cached)
        stats = cached.cache.stats_dict()
        assert stats["result_hits"] > 0  # the cache did real work
        assert stats["invalidations"] > 0  # and was really invalidated
