"""A repeated query costs only its lookups: no calculus term is hashed.

A calculus term is a tree of frozen dataclasses whose generated
``__hash__`` walks every node, and the query cache keys its entries by
the canonical term. ``compile`` wraps that key in a
:class:`~repro.cache.keys.CacheKey`, hashed once when it is made, so a
repeat's dictionary operations (the text alias, the entry, the stored
result) cost a stored hash and an identity test. Counted, not timed:
every ``__hash__`` of the calculus AST classes is counted across 50
repeats of a result hit, a compile hit whose result a write evicted, and
a prepared run.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cache.keys import CacheKey, canonical_term
from repro.calculus import ast, const
from repro.db.database import Database
from repro.db.sample_data import travel_schema
from repro.objects import add_to_field, run_update, update_where
from repro.oql import translate_oql

REPEATS = 50
HOTEL_COUNT = "sum(select c.hotel_count from c in Cities)"
PREPARED = "select distinct c.name from c in Cities where c.population > $p"
THRESHOLDS = (0, 1500, 2500)


def _db(cache: bool = True) -> Database:
    """Object-mode Cities, every mode pinned (robust under REPRO_*)."""
    db = Database(travel_schema(), cache=cache, telemetry=False)
    db.load_objects("Cities", "City", [
        {"name": f"C{i}", "state": "OR", "population": 1000 * (i + 1),
         "hotels": frozenset(), "hotel_count": i}
        for i in range(4)
    ])
    return db


@pytest.fixture
def term_hashes(monkeypatch):
    """The list every later ``__hash__`` of a calculus AST node appends
    its class name to."""
    calls: list[str] = []
    for cls in vars(ast).values():
        if isinstance(cls, type) and dataclasses.is_dataclass(cls) and "__hash__" in vars(cls):

            def counting(self, original=vars(cls)["__hash__"]):
                calls.append(type(self).__name__)
                return original(self)

            monkeypatch.setattr(cls, "__hash__", counting)
    return calls


def test_the_counter_sees_a_term_hashed(term_hashes):
    hash(translate_oql(HOTEL_COUNT))
    assert term_hashes


def test_a_result_hit_hashes_no_term(term_hashes):
    db = _db()
    db.run(HOTEL_COUNT)
    term_hashes.clear()
    for _ in range(REPEATS):
        assert db.run_detailed(HOTEL_COUNT).cache == {"compile": "hit", "result": "hit"}
    assert term_hashes == []


def test_a_compile_hit_after_a_write_hashes_no_term(term_hashes):
    db = _db()
    bump = update_where("Cities", "c", None, [add_to_field("hotel_count", const(1))])
    run_update(bump, db.evaluator())  # the update program's own plan, once
    db.run(HOTEL_COUNT)
    read = 0
    for i in range(REPEATS):
        run_update(bump, db.evaluator())
        term_hashes.clear()
        result = db.run_detailed(HOTEL_COUNT)
        read += len(term_hashes)
        assert result.cache == {"compile": "hit", "result": "miss"}
        assert result.value == 6 + 4 * (i + 2)
    assert read == 0


@pytest.mark.parametrize("cache", [True, False], ids=["cache", "no_cache"])
def test_a_prepared_run_hashes_no_term(term_hashes, cache):
    db = _db(cache)
    prepared = db.prepare(PREPARED)
    for p in THRESHOLDS:
        prepared.run(p=p)
    term_hashes.clear()
    for i in range(REPEATS):
        p = THRESHOLDS[i % len(THRESHOLDS)]
        assert len(prepared.run(p=p)) == sum(1000 * (k + 1) > p for k in range(4))
    assert term_hashes == []


# -- the key class -------------------------------------------------------------------


def test_equal_parts_make_an_equal_key_with_the_same_hash():
    term = canonical_term(translate_oql(HOTEL_COUNT))
    a = CacheKey((term, "auto", False, ()))
    b = CacheKey((canonical_term(translate_oql(HOTEL_COUNT)), "auto", False, ()))
    assert a == b and hash(a) == hash(b) == hash(a.parts)
    assert {a: 1}[b] == 1
    assert a != CacheKey((term, "interpret", False, ()))
    assert a != a.parts  # a key equals only keys


def test_a_key_hashes_its_term_once(term_hashes):
    term = canonical_term(translate_oql(HOTEL_COUNT))
    term_hashes.clear()
    key = CacheKey((term, "auto", False, ()))
    made = len(term_hashes)
    assert made > 0
    store = {key: "entry"}
    for _ in range(REPEATS):
        assert store[key] == "entry" and (key, ()) in {(key, ()): 1}
    assert len(term_hashes) == made


def test_alpha_variants_share_one_keyed_entry():
    db = _db()
    a = db.compile("select distinct x.name from x in Cities")
    b = db.compile("select distinct y.name from y in Cities")
    assert isinstance(a.key, CacheKey)
    assert a is b and db.cache.sizes()["compiled_entries"] == 1
    assert db.run("select distinct z.name from z in Cities") == db.run(
        "select distinct c.name from c in Cities", engine="interpret"
    )
