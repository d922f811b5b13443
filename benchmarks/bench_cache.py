"""Experiment C1 (extension) — the query cache: cold, warm, invalidated.

Three regimes over the same query battery:

- **cold** — the cache is cleared before every run, so each run pays
  the full pipeline (parse, translate, normalize, plan, optimize,
  execute);
- **warm-compile** — result caching off (``CacheConfig(results=False)``),
  so repeats skip compilation but still execute;
- **warm-result** — the default cache, so repeats are version-checked
  lookups.

Shape: warm-result beats cold by well over the 5x the experiment
records; warm-compile sits between. The invalidation storm alternates
a mutation with the query, forcing a recompute every time — the shape
there is correctness (never a stale answer) plus a bounded overhead
over running the same workload without any cache.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import build_travel_db
from repro.cache import CacheConfig

QUERIES = (
    "select distinct c.name from c in Cities where c.population > 100000",
    "select distinct struct(city: c.name, hotel: h.name) "
    "from c in Cities, h in c.hotels where h.stars >= 4",
    "count(select h.name from c in Cities, h in c.hotels)",
    "select struct(city: city, n: count(partition)) "
    "from c in Cities group by city: c.name",
)

NUM_CITIES = 10


def _cached_db(results: bool = True):
    db = build_travel_db(num_cities=NUM_CITIES, seed=3)
    db.enable_cache(CacheConfig(results=results))
    return db


def _run_all(db):
    for oql in QUERIES:
        db.run(oql)


@pytest.mark.parametrize("mode", ["cold", "warm-compile", "warm-result"])
def test_cache_series(benchmark, mode):
    benchmark.group = f"C1 cache n={NUM_CITIES}"
    if mode == "cold":
        db = _cached_db()

        def run():
            db.cache.clear()
            _run_all(db)

    elif mode == "warm-compile":
        db = _cached_db(results=False)
        _run_all(db)
        run = lambda: _run_all(db)  # noqa: E731
    else:
        db = _cached_db()
        _run_all(db)
        run = lambda: _run_all(db)  # noqa: E731
    benchmark(run)
    stats = db.cache.stats.as_dict()
    if mode != "cold":
        assert stats["compile_hits"] > 0


def test_invalidation_storm(benchmark):
    """Mutate-then-query: every query misses, none is ever stale."""
    from repro.calculus import const
    from repro.db import travel_schema
    from repro.db.database import Database
    from repro.objects import add_to_field, run_update, update_where

    db = Database(travel_schema(), cache=False)
    db.load_objects(
        "Cities",
        "City",
        [
            {"name": f"C{i}", "hotels": set(), "hotel_count": 0,
             "population": 1000 * i, "state": "OR"}
            for i in range(20)
        ],
    )
    db.enable_cache()
    query = "sum(select c.hotel_count from c in Cities)"
    program = update_where(
        "Cities", "c", None, [add_to_field("hotel_count", const(1))]
    )
    evaluator = db.evaluator()
    benchmark.group = "C1 invalidation storm"
    state = {"rounds": 0}

    def storm():
        run_update(program, evaluator)
        state["rounds"] += 1
        assert db.run(query) == 20 * state["rounds"]

    storm()  # fills the cache: every later round finds an entry to invalidate
    benchmark(storm)
    stats = db.cache.stats.as_dict()
    assert stats["invalidations"] > 0
    assert stats["result_hits"] == 0  # every round was invalidated


# -- shape assertions (run by plain pytest, recorded in EXPERIMENTS.md) --------


def test_shape_warm_beats_cold():
    db = _cached_db()
    uncached = build_travel_db(num_cities=NUM_CITIES, seed=3)
    for oql in QUERIES:  # cached answers must match the uncached engine
        assert db.run(oql) == uncached.run(oql)

    def cold():
        db.cache.clear()
        _run_all(db)

    cold_t = _median_time(cold)
    _run_all(db)
    warm_t = _median_time(lambda: _run_all(db))
    assert cold_t / warm_t > 5.0, f"warm result cache should win big, got {cold_t / warm_t:.1f}x"

    compile_db = _cached_db(results=False)
    _run_all(compile_db)
    warm_compile_t = _median_time(lambda: _run_all(compile_db))
    assert warm_compile_t < cold_t, (
        f"skipping compilation should not be slower: "
        f"cold={cold_t * 1e3:.2f}ms warm-compile={warm_compile_t * 1e3:.2f}ms"
    )


def test_shape_alpha_variants_share_one_entry():
    db = _cached_db()
    db.run("select distinct c.name from c in Cities")
    db.run("select distinct x.name from x in Cities")
    stats = db.cache.stats_dict()
    assert stats["compiled_entries"] == 1
    assert stats["compile_hits"] >= 1


def _median_time(fn, repeats: int = 7) -> float:
    """Best-of-N wall time — robust against load spikes, which would
    otherwise make the cold/warm ratio assertions flaky in CI."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)
