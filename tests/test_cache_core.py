"""repro.cache building blocks: keys, LRU stores, stats, config."""

import pytest

from repro.cache import (
    CacheConfig,
    LRUCache,
    QueryCache,
    canonical_term,
    literal_skeleton,
    param_names,
    resolve_cache,
)
from repro.cache.core import MISSING
from repro.cache.keys import literal_vector
from repro.errors import DatabaseError
from repro.oql import translate_oql


class TestCanonicalTerm:
    def test_alpha_variants_collide(self):
        a = canonical_term(translate_oql("select distinct c.name from c in Cities"))
        b = canonical_term(translate_oql("select distinct x.name from x in Cities"))
        assert a == b
        assert hash(a) == hash(b)

    def test_different_extents_do_not_collide(self):
        a = canonical_term(translate_oql("select distinct c.name from c in Cities"))
        b = canonical_term(translate_oql("select distinct c.name from c in Towns"))
        assert a != b

    def test_different_structure_does_not_collide(self):
        a = canonical_term(translate_oql("select c.name from c in Cities"))
        b = canonical_term(
            translate_oql("select c.name from c in Cities where c.population > 1")
        )
        assert a != b

    def test_deterministic(self):
        q = ("select distinct struct(c: c.name, h: h.name) "
             "from c in Cities, h in c.hotels where h.stars > 3")
        assert canonical_term(translate_oql(q)) == canonical_term(translate_oql(q))

    def test_nested_binders(self):
        a = canonical_term(translate_oql(
            "select distinct h.name from h in "
            "(select distinct x from c in Cities, x in c.hotels)"))
        b = canonical_term(translate_oql(
            "select distinct k.name from k in "
            "(select distinct w from t in Cities, w in t.hotels)"))
        assert a == b

    def test_literals_distinguish(self):
        a = canonical_term(
            translate_oql("select c.name from c in Cities where c.population > 1")
        )
        b = canonical_term(
            translate_oql("select c.name from c in Cities where c.population > 2")
        )
        assert a != b

    def test_free_variable_is_never_captured(self):
        # The key renames binders; a free name a user can write (the
        # alphabet used to be q0, q1, ...) must not come out as a binder.
        bound = canonical_term(translate_oql("select distinct x from x in S"))
        free = canonical_term(translate_oql("select distinct q0 from x in S"))
        assert bound != free

    def test_literal_types_distinguish(self):
        # Const(1) == Const(True) == Const(1.0) under Python equality.
        keys = {
            canonical_term(translate_oql(f"select distinct {lit} from c in Cities"))
            for lit in ("1", "true", "1.0")
        }
        assert len(keys) == 3


class TestLiteralSkeleton:
    def test_literal_variants_share_a_skeleton(self):
        a = literal_skeleton(
            translate_oql("select c.name from c in Cities where c.population > 1")
        )
        b = literal_skeleton(
            translate_oql("select x.name from x in Cities where x.population > 999")
        )
        assert a == b

    def test_structure_still_distinguishes(self):
        a = literal_skeleton(
            translate_oql("select c.name from c in Cities where c.population > 1")
        )
        b = literal_skeleton(
            translate_oql("select c.name from c in Cities where c.state = 'OR'")
        )
        assert a != b

    def test_literals_of_every_type_blank_to_one_hole(self):
        skeletons = {
            literal_skeleton(translate_oql(f"select distinct {lit} from c in Cities"))
            for lit in ("1", "true", "1.0", "'one'")
        }
        assert len(skeletons) == 1

    def test_literal_vector_orders_constants(self):
        term = translate_oql(
            "select c.name from c in Cities "
            "where c.population > 10 and c.state = 'OR'")
        assert set(literal_vector(term)) >= {10, "OR"}


class TestParamNames:
    def test_collects_and_sorts(self):
        term = translate_oql(
            "select c.name from c in Cities "
            "where c.population > $min and c.state = $state")
        assert param_names(term) == ("min", "state")

    def test_no_params(self):
        assert param_names(translate_oql("count(Cities)")) == ()


class TestLRUCache:
    def test_lru_eviction_order(self):
        evicted = []
        lru = LRUCache(2, on_evict=lambda k, v: evicted.append(k))
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # refresh 'a'
        lru.put("c", 3)  # displaces 'b', the stale one
        assert evicted == ["b"]
        assert lru.get("b") is MISSING
        assert lru.get("a") == 1 and lru.get("c") == 3

    def test_a_stored_none_is_a_hit(self):
        lru = LRUCache(2)
        lru.put("a", None)
        assert lru.get("a") is None
        assert lru.get("b") is MISSING

    def test_min_capacity_enforced(self):
        with pytest.raises(DatabaseError):
            LRUCache(0)

    def test_remove_and_clear_are_silent(self):
        evicted = []
        lru = LRUCache(4, on_evict=lambda k, v: evicted.append(k))
        lru.put("a", 1)
        lru.remove("a")
        lru.put("b", 2)
        lru.clear()
        assert evicted == []
        assert len(lru) == 0


class TestQueryCacheStats:
    def test_result_roundtrip_and_invalidation(self):
        qc = QueryCache()
        hit, _ = qc.result_for("k", (1,))
        assert not hit
        qc.remember_result("k", (1,), "value")
        hit, value = qc.result_for("k", (1,))
        assert hit and value == "value"
        hit, _ = qc.result_for("k", (2,))  # version moved on
        assert not hit
        assert qc.stats.invalidations == 1
        assert qc.stats.result_hits == 1
        assert qc.stats.result_misses == 2

    def test_clear_keeps_then_resets_counters(self):
        qc = QueryCache()
        qc.remember_result("k", (1,), "v")
        qc.result_for("k", (1,))
        qc.clear()
        assert qc.stats.result_hits == 1
        assert qc.sizes() == {"compiled_entries": 0, "result_entries": 0}
        qc.clear(reset_stats=True)
        assert qc.stats.result_hits == 0

    def test_stats_dict_shape(self):
        keys = set(QueryCache().stats_dict())
        assert keys == {
            "compile_hits", "compile_misses", "result_hits", "result_misses",
            "evictions", "invalidations", "compiled_entries", "result_entries",
        }


class TestResolveCache:
    def test_false_and_true(self):
        assert resolve_cache(False) is None
        assert isinstance(resolve_cache(True), QueryCache)

    def test_config_and_instance(self):
        config = CacheConfig(max_entries=7)
        qc = resolve_cache(config)
        assert qc.config.max_entries == 7
        with pytest.raises(DatabaseError):  # a cache is one database's
            resolve_cache(qc)

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert resolve_cache(None) is None
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert isinstance(resolve_cache(None), QueryCache)
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert resolve_cache(None) is None

    def test_rejects_garbage(self):
        with pytest.raises(DatabaseError):
            resolve_cache(42)
