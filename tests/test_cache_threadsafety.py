"""Threaded interleaving harness for the cache layer.

The LRU stores and the QueryCache's lookup + version-check + stats
sequences must be atomic under concurrent ``Database.run``: no corrupt
``OrderedDict`` state, no lost counter increments, no capacity
overshoot, no stale entry surviving an invalidation.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.cache.core import (
    MISSING,
    CacheConfig,
    CompiledQuery,
    LRUCache,
    QueryCache,
)
from repro.cache.invalidation import Dependencies

THREADS = 8
ROUNDS = 300


def run_threads(work):
    """Start THREADS workers on ``work(thread_index)`` simultaneously."""
    barrier = threading.Barrier(THREADS)

    def go(index):
        barrier.wait()
        return work(index)

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        futures = [pool.submit(go, i) for i in range(THREADS)]
        return [future.result() for future in futures]


# -- LRUCache ----------------------------------------------------------------


def test_lru_concurrent_put_get_respects_capacity():
    cache = LRUCache(max_entries=16)

    def work(index):
        for round_no in range(ROUNDS):
            key = (index * ROUNDS + round_no) % 40
            cache.put(key, key)
            value = cache.get(key)
            assert value is MISSING or value == key
            len(cache)
            cache.keys()

    run_threads(work)
    assert len(cache) <= 16


def test_lru_eviction_callback_fires_once_per_displacement():
    evicted = []
    lock = threading.Lock()

    def on_evict(key, value):
        with lock:
            evicted.append(key)

    cache = LRUCache(max_entries=4, on_evict=on_evict)
    total = THREADS * ROUNDS

    def work(index):
        for round_no in range(ROUNDS):
            cache.put((index, round_no), round_no)

    run_threads(work)
    # every put except the 4 survivors displaced exactly one entry
    assert len(evicted) == total - len(cache)
    assert len(cache) == 4


def test_lru_concurrent_remove_and_clear_are_safe():
    cache = LRUCache(max_entries=64)

    def work(index):
        for round_no in range(ROUNDS):
            cache.put(round_no % 50, index)
            if round_no % 7 == 0:
                cache.remove(round_no % 50)
            if index == 0 and round_no % 97 == 0:
                cache.clear()
            assert len(cache) <= 64

    run_threads(work)


# -- QueryCache --------------------------------------------------------------


def entry(version):
    return CompiledQuery(
        oql="q",
        engine="auto",
        typecheck=False,
        key="canon",
        calculus=None,
        normalized=None,
        trace=None,
        plan=None,
        phases=(),
        deps=Dependencies(cacheable=True),
        params=(),
        version=version,
    )


def test_querycache_compile_counters_are_exact():
    cache = QueryCache(CacheConfig(max_entries=128))
    cache.remember("text", "canon", entry(version=1))

    def work(index):
        hits = 0
        for _ in range(ROUNDS):
            if cache.compiled_by_text("text", version=1) is not None:
                hits += 1
        return hits

    results = run_threads(work)
    assert sum(results) == THREADS * ROUNDS
    assert cache.stats.compile_hits == THREADS * ROUNDS
    assert cache.stats.compile_misses == 1


def test_querycache_result_counters_are_exact():
    cache = QueryCache(CacheConfig(result_max_entries=64))
    cache.remember_result("key", versions=(1,), value=42)

    def work(index):
        hits = misses = 0
        for round_no in range(ROUNDS):
            hit, value = cache.result_for("key", versions=(1,))
            if hit:
                assert value == 42
                hits += 1
            ok, _ = cache.result_for(("miss", index, round_no), versions=(1,))
            assert not ok
            misses += 1
        return hits, misses

    results = run_threads(work)
    assert sum(h for h, _ in results) == THREADS * ROUNDS
    assert cache.stats.result_hits == THREADS * ROUNDS
    assert cache.stats.result_misses == THREADS * ROUNDS


def test_querycache_concurrent_invalidation_drops_entry_exactly_once():
    cache = QueryCache(CacheConfig(max_entries=32))

    def work(index):
        invalidated = 0
        for round_no in range(ROUNDS // 10):
            cache.remember(f"t{index}", "canon", entry(version=round_no))
            # probing with a different version invalidates atomically
            if cache.compiled_by_canon("canon", version=round_no + 1) is None:
                invalidated += 1
        return invalidated

    run_threads(work)
    # the stats sequence never lost an update: every recorded event is
    # one of the four counters, and sizes stay within capacity
    sizes = cache.sizes()
    assert sizes["compiled_entries"] <= 32
    stats = cache.stats_dict()
    assert stats["invalidations"] <= stats["compile_misses"]


def test_querycache_clear_races_with_lookups():
    cache = QueryCache(CacheConfig(max_entries=32, result_max_entries=32))

    def work(index):
        for round_no in range(ROUNDS):
            cache.remember_result((index, round_no % 8), (1,), round_no)
            cache.result_for((index, round_no % 8), (1,))
            if index == 0 and round_no % 50 == 0:
                cache.clear()
            cache.stats_dict()

    run_threads(work)
    assert cache.sizes()["result_entries"] <= 32
