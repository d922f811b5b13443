"""A cache hit costs dictionary lookups under one lock: the query cache's
one plain lock, taken once per lookup or store, counted rather than
timed."""

from __future__ import annotations

import pytest

from repro.db import demo_travel_database
from repro.obs.telemetry import MetricsRegistry

QUERY = "select distinct c.name from c in Cities where c.population > 0"


class _CountingLock:
    def __init__(self, lock):
        self.lock = lock
        self.acquired = 0

    def __enter__(self):
        self.acquired += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


@pytest.fixture(params=[False, True], ids=["plain", "telemetry"])
def db(request):
    db = demo_travel_database(num_cities=3, seed=2)
    if request.param:  # its cache-size gauges read the stores without the lock
        db.enable_telemetry(MetricsRegistry())
    else:
        db.disable_telemetry()
    db.enable_cache()
    return db


def test_a_compile_hit_then_a_result_hit_takes_the_lock_twice(db):
    db.run(QUERY)
    lock = db.cache._lock = _CountingLock(db.cache._lock)
    assert db.run_detailed(QUERY).cache == {"compile": "hit", "result": "hit"}
    assert lock.acquired == 2
    if db.telemetry is not None:
        assert db.telemetry.value("repro_cache_entries", store="compiled") == 1
        assert db.telemetry.value("repro_cache_entries", store="result") == 1


def test_a_text_miss_that_compiles_and_stores_takes_it_five_times(db):
    lock = db.cache._lock = _CountingLock(db.cache._lock)
    assert db.run_detailed(QUERY).cache == {"compile": "miss", "result": "miss"}
    # text lookup, canonical lookup, remember, result lookup, result store
    assert lock.acquired == 5
    assert db.cache.stats_dict()["compiled_entries"] == 1


def test_an_alpha_variant_takes_it_once_per_step(db):
    db.run(QUERY)
    lock = db.cache._lock = _CountingLock(db.cache._lock)
    variant = QUERY.replace("c.", "k.").replace("c in", "k in")
    assert db.run_detailed(variant).cache == {"compile": "hit", "result": "hit"}
    # text lookup, canonical hit, alias, result lookup
    assert lock.acquired == 4
